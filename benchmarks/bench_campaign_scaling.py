"""Campaign fan-out scaling — scenarios/second vs worker count.

The ROADMAP's north star asks for "as many scenarios as you can
imagine"; this bench measures how fast the campaign runner chews
through a fixed batch of generated WAN/OSPF failure scenarios as the
worker pool grows.  Each pool size sweeps into its own temporary
store, and every store must have the same canonical digest.  Expected
shape: near-linear speedup until the scenario mix runs out of
parallelism or cores.

Knobs:

* ``REPRO_BENCH_SCENARIOS`` — batch size (default 16)
* ``REPRO_BENCH_WORKERS``   — comma-separated pool sizes (default 1,2,4)

Run:  pytest benchmarks/bench_campaign_scaling.py --benchmark-only
"""

import os

import pytest

from repro.results import ResultStore
from repro.scenarios import Campaign, generate_scenario

from conftest import record_rows

_results = {}


def batch_size() -> int:
    return int(os.environ.get("REPRO_BENCH_SCENARIOS", "16"))


def worker_counts():
    raw = os.environ.get("REPRO_BENCH_WORKERS", "1,2,4")
    return [int(part) for part in raw.split(",") if part.strip()]


def make_spec(seed: int):
    return generate_scenario(seed, pattern="k-random-links", duration=40.0)


def run_campaign(workers: int, store: ResultStore):
    campaign = Campaign.seed_sweep(make_spec, range(batch_size()),
                                   workers=workers)
    return campaign.run(store)


@pytest.mark.parametrize("workers", worker_counts())
def test_campaign_scaling(benchmark, workers, tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    stats = benchmark.pedantic(run_campaign, args=(workers, store),
                               rounds=1, iterations=1)
    assert stats.executed == batch_size()
    assert store.aggregate().converged == batch_size()
    _results[workers] = (stats, store.canonical_digest())


def test_campaign_scaling_report(benchmark):
    benchmark(lambda: None)  # report-only test; table assembly below
    measured = sorted(_results)
    if not measured:
        pytest.skip("no measurements collected")
    base_wall = _results[measured[0]][0].wall_seconds
    rows = []
    for workers in measured:
        stats = _results[workers][0]
        rate = stats.executed / stats.wall_seconds
        speedup = base_wall / stats.wall_seconds
        rows.append(
            f"{workers:>7} {stats.executed:>9} "
            f"{stats.wall_seconds:>8.2f} {rate:>12.1f} {speedup:>8.2f}x"
        )
    # Reproducibility across pool sizes is part of the contract.
    digests = {_results[w][1] for w in measured}
    assert len(digests) == 1
    record_rows(
        "campaign_scaling",
        f"{'workers':>7} {'scenarios':>9} {'wall_s':>8} "
        f"{'scen_per_s':>12} {'speedup':>8}",
        rows,
    )
