"""Fleet fan-out scaling — distributed campaign throughput vs a
single-box ``Campaign.run``.

The fleet's promise is that coordination (chunk leasing, record
framing, shard stores, the final merge) costs little enough that
adding workers keeps buying throughput.  This bench runs the same
seeded sweep three ways and reports scenarios/second and scaling
efficiency against the single-box baseline:

* ``single``  — plain ``Campaign.run(store=...)``, the reference;
* ``fleet-N`` — ``FleetExecutor`` over the multiprocessing transport
  (worker processes + loopback TCP + shard merge) at 1/2/4 workers.

Every variant must produce the same canonical store digest — scaling
that changes results is not scaling.

Knobs:

* ``REPRO_BENCH_FLEET_SCENARIOS`` — sweep size (default 8)
* ``REPRO_BENCH_FLEET_WORKERS``   — comma-separated fleet sizes
  (default ``1,2,4``)
* ``REPRO_BENCH_FLEET_DURATION``  — simulated horizon per scenario
  (default 30)

Run:  pytest benchmarks/bench_fleet_scaling.py --benchmark-only
"""

import os
import shutil
import tempfile

import pytest

from repro.fleet import FleetExecutor, MultiprocessTransport
from repro.results import ResultStore
from repro.scenarios import Campaign, generate_scenario

from conftest import record_json, record_rows

_results = {}  # label -> (wall_seconds, scenario_count, digest)


def batch_size() -> int:
    return int(os.environ.get("REPRO_BENCH_FLEET_SCENARIOS", "8"))


def fleet_sizes():
    raw = os.environ.get("REPRO_BENCH_FLEET_WORKERS", "1,2,4")
    return [int(part) for part in raw.split(",") if part.strip()]


def duration() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_DURATION", "30"))


def make_spec(seed: int):
    return generate_scenario(seed, pattern="k-random-links",
                             duration=duration())


def sweep_campaign(workers=1):
    return Campaign.seed_sweep(make_spec, range(batch_size()),
                               workers=workers)


def run_single(store_dir: str):
    store = ResultStore(store_dir)
    sweep_campaign(workers=1).run(store=store)
    return store


def run_fleet(store_dir: str, workers: int):
    store = ResultStore(store_dir)
    sweep_campaign(workers=1).run(
        store=store,
        executor=FleetExecutor(MultiprocessTransport(), workers=workers))
    return store


def _measure(benchmark, label, runner):
    root = tempfile.mkdtemp(prefix=f"fleet_bench_{label}_")
    try:
        store = benchmark.pedantic(runner, args=(root,), rounds=1,
                                   iterations=1)
        assert len(store) == batch_size()
        _results[label] = (benchmark.stats["mean"], len(store),
                           store.canonical_digest())
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_single_box_baseline(benchmark):
    _measure(benchmark, "single", run_single)


@pytest.mark.parametrize("workers", fleet_sizes())
def test_fleet_scaling(benchmark, workers):
    _measure(benchmark, f"fleet-{workers}",
             lambda root: run_fleet(root, workers))


def test_fleet_scaling_report(benchmark):
    benchmark(lambda: None)  # report-only test; table assembly below
    if "single" not in _results:
        pytest.skip("no baseline measurement collected")
    base_wall, count, base_digest = _results["single"]
    # Scaling that changes results is not scaling.
    digests = {digest for __, __, digest in _results.values()}
    assert digests == {base_digest}
    rows = []
    variants = {}
    for label in sorted(_results):
        wall, scenarios, __ = _results[label]
        rate = scenarios / wall if wall else float("inf")
        speedup = base_wall / wall if wall else float("inf")
        workers = (1 if label == "single"
                   else int(label.split("-", 1)[1]))
        efficiency = speedup / workers
        rows.append(
            f"{label:>10} {scenarios:>9} {wall:>8.2f} {rate:>12.2f} "
            f"{speedup:>8.2f}x {efficiency * 100:>9.0f}%"
        )
        variants[label] = {
            "workers": workers,
            "scenarios": scenarios,
            "wall_seconds": wall,
            "scenarios_per_second": rate,
            "speedup": speedup,
            "efficiency": efficiency,
        }
    record_rows(
        "fleet_scaling",
        f"{'variant':>10} {'scenarios':>9} {'wall_s':>8} "
        f"{'scen_per_s':>12} {'speedup':>9} {'efficiency':>10}",
        rows,
    )
    record_json("fleet_scaling", {
        "scenarios": count,
        "digests_match": True,
        "variants": variants,
    })
