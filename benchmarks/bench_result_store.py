"""Result-store throughput — JSONL vs columnar, append to rollup.

The store must never be the bottleneck of a campaign: a scenario takes
tens of milliseconds to simulate, so the fsync'd hot-path append must
stay well under that in BOTH formats.  At campaign-analytics scale the
columnar segment store earns its keep: ``repro campaign report`` over
a million records must come off the mmap'd metric columns an order of
magnitude faster than streaming JSONL, on a fraction of the disk —
with the canonical digest (the record-identity contract) bit-for-bit
identical between the formats.

Acceptance gates (enforced at >= 100k records, recorded always):

* columnar ``aggregate()`` >= 10x faster than the JSONL streaming pass
* columnar store bytes on disk <= 1/5 of the JSONL store
* ``canonical_digest`` identical across the two formats

Knobs:

* ``REPRO_BENCH_STORE_RECORDS`` — records to write (default 2000;
  the paper-scale run uses 1000000)

Run:  pytest benchmarks/bench_result_store.py --benchmark-only
"""

import os

import pytest

from repro.results import ResultStore, make_record

from conftest import record_json, record_rows

_timings = {}
_figures = {}

#: The per-record fsync'd append path is measured over a bounded
#: sample — its figure of merit is latency per record, which does not
#: need a million fsyncs to estimate.
APPEND_SAMPLE = 2000

#: Batch size for populating the big stores (the merge/convert ingest
#: path: one fsync per batch).
POPULATE_BATCH = 10_000

#: The 10x/5x comparison gates only bind at analytics scale; below it
#: (a 2k-record smoke run, CI's 20k) the columnar report only has to
#: beat the JSONL one.
GATE_MIN_RECORDS = 100_000


def record_count() -> int:
    return int(os.environ.get("REPRO_BENCH_STORE_RECORDS", "2000"))


def synthetic_record(seed: int) -> dict:
    """A realistically-sized record (spec + result + metrics) without
    paying for a simulation per append."""
    spec = {
        "schema_version": 2, "name": f"bench-seed{seed}", "seed": seed,
        "duration": 40.0,
        "topology": {"kind": "wan", "params": {}},
        "protocol": {"kind": "ospf", "params": {"hello_interval": 1.0}},
        "traffic": {"pattern": "permutation", "rate_bps": 5e8},
        "injections": [{"kind": "link_fail", "at": 10.0 + seed % 7,
                        "node_a": "chicago", "node_b": "newyork"}],
        "slos": [{"kind": "converged_within", "seconds": 30.0}],
        "sim_params": {},
    }
    result = {
        "schema_version": 2, "name": f"bench-seed{seed}", "seed": seed,
        "sim_seconds": 40.0, "events_fired": 2000 + seed,
        "recomputations": 50 + seed % 13, "converged": True,
        "convergence_time": 20.0 + (seed % 97) / 10.0,
        "flows_delivered": 11, "flows_total": 11,
        "delivered_bytes": 1.6e10, "demanded_bytes": 1.7e10,
        "control_messages": 1380 + seed % 5, "control_bytes": 43000,
        "injections": [{"label": "link-fail chicago-newyork",
                        "at": 10.0, "recovered_at": 15.0}],
        "slos": [{"slo": "converged_within<=30s",
                  "kind": "converged_within", "status": "pass",
                  "observed": 20.0 + (seed % 97) / 10.0,
                  "threshold": 30.0, "detail": ""}],
        "diagnostics": {"realloc": {"cached_paths": 11,
                                    "incremental_recomputes": 50}},
        "wall_seconds": 0.05,
    }
    metrics = {"converged": True,
               "convergence_time": 20.0 + (seed % 97) / 10.0,
               "delivered_fraction": 0.94 - (seed % 11) / 1000.0,
               "max_recovery_seconds": 5.0 + (seed % 31) / 10.0,
               "mean_recovery_seconds": 2.0 + (seed % 31) / 20.0,
               "control_messages": 1380 + seed % 5,
               "control_bytes": 43000,
               "events_fired": 2000 + seed,
               "recomputations": 50 + seed % 13,
               "wall_seconds": 0.05}
    return make_record(spec, result, fingerprint=f"{seed:016x}",
                       metrics=metrics)


def _populate(path: str, fmt: str) -> ResultStore:
    """Batch-fill a store (the convert/merge ingest path) so the big
    fixtures do not pay a million hot-path fsyncs."""
    store = ResultStore(path, format=fmt)
    batch = []
    for seed in range(record_count()):
        batch.append(synthetic_record(seed))
        if len(batch) >= POPULATE_BATCH:
            store.append_many(batch)
            batch = []
    if batch:
        store.append_many(batch)
    if fmt == "columnar":
        store.seal()
    return store


def _dir_bytes(path: str) -> int:
    total = 0
    for root, __, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(root, name))
    return total


@pytest.fixture(scope="module")
def populated_jsonl(tmp_path_factory):
    return str(_populate(
        str(tmp_path_factory.mktemp("bench") / "jsonl"), "jsonl").path)


@pytest.fixture(scope="module")
def populated_columnar(tmp_path_factory):
    return str(_populate(
        str(tmp_path_factory.mktemp("bench") / "columnar"),
        "columnar").path)


@pytest.mark.parametrize("fmt", ["jsonl", "columnar"])
def test_store_append(benchmark, tmp_path, fmt):
    """The campaign hot path: one fsync'd append per finished
    scenario (columnar appends land in the tail WAL and seal into
    segments every few thousand records)."""
    count = min(record_count(), APPEND_SAMPLE)
    records = [synthetic_record(seed) for seed in range(count)]

    def append_all():
        store = ResultStore(str(tmp_path / f"append-{fmt}"), format=fmt)
        for record in records:
            store.append(record)
        return store

    store = benchmark.pedantic(append_all, rounds=1, iterations=1)
    assert len(store) == count
    _timings[f"append_{fmt}"] = benchmark.stats.stats.mean / count


@pytest.mark.parametrize("fmt", ["jsonl", "columnar"])
def test_store_reopen(benchmark, fmt, populated_jsonl, populated_columnar):
    """The resume question: how long to learn what already ran."""
    path = populated_jsonl if fmt == "jsonl" else populated_columnar
    store = benchmark(lambda: ResultStore(path, readonly=True))
    assert len(store) == record_count()
    _timings[f"reopen_{fmt}"] = benchmark.stats.stats.mean


@pytest.mark.parametrize("fmt", ["jsonl", "columnar"])
def test_store_report(benchmark, fmt, populated_jsonl, populated_columnar):
    """The ``campaign report`` path: JSONL streams every record
    through the rollups; columnar reduces the mmap'd metric columns."""
    path = populated_jsonl if fmt == "jsonl" else populated_columnar
    store = ResultStore(path, readonly=True)
    aggregate = benchmark.pedantic(store.aggregate, rounds=1, iterations=1)
    assert aggregate.records == record_count()
    assert aggregate.errors == 0
    assert aggregate.converged == record_count()
    _timings[f"report_{fmt}"] = benchmark.stats.stats.mean
    _figures[f"report_{fmt}"] = {
        "records": aggregate.records,
        "p99_convergence": aggregate.metric_rollups[
            "convergence_time"].stats()["p99"],
    }


def test_store_digest_and_disk(benchmark, populated_jsonl,
                               populated_columnar):
    """The identity + footprint contract: same records, same digest,
    a fraction of the bytes."""
    jsonl = ResultStore(populated_jsonl, readonly=True)
    columnar = ResultStore(populated_columnar, readonly=True)
    digest_c = benchmark.pedantic(columnar.canonical_digest,
                                  rounds=1, iterations=1)
    assert digest_c == jsonl.canonical_digest()
    _figures["digest"] = digest_c
    _figures["disk_jsonl"] = _dir_bytes(populated_jsonl)
    _figures["disk_columnar"] = _dir_bytes(populated_columnar)


def test_store_bench_report(benchmark):
    benchmark(lambda: None)  # report-only test; table assembly below
    if not _timings:
        pytest.skip("no measurements collected")
    n = record_count()
    rows = []
    for phase in ("append", "reopen", "report"):
        for fmt in ("jsonl", "columnar"):
            key = f"{phase}_{fmt}"
            if key not in _timings:
                continue
            seconds = _timings[key]
            scale = 1 if phase == "append" else n
            rows.append(f"{phase:>8} {fmt:>9} {n:>9} "
                        f"{seconds * 1e3:>10.3f} "
                        f"{scale / seconds:>12.0f}")
    payload = {
        "records": n,
        "timings_seconds": dict(_timings),
        "figures": dict(_figures),
    }
    if "report_jsonl" in _timings and "report_columnar" in _timings:
        speedup = _timings["report_jsonl"] / _timings["report_columnar"]
        payload["report_speedup"] = speedup
        rows.append(f"{'report':>8} {'speedup':>9} {n:>9} "
                    f"{'':>10} {speedup:>11.1f}x")
        floor = 10.0 if n >= GATE_MIN_RECORDS else 1.0
        assert speedup >= floor, (
            f"columnar report speedup {speedup:.1f}x < {floor:g}x "
            f"at {n} records")
    if "disk_jsonl" in _figures and "disk_columnar" in _figures:
        ratio = _figures["disk_jsonl"] / max(1, _figures["disk_columnar"])
        payload["disk_ratio"] = ratio
        rows.append(f"{'disk':>8} {'ratio':>9} {n:>9} "
                    f"{'':>10} {ratio:>11.1f}x")
        if n >= GATE_MIN_RECORDS:
            assert ratio >= 5.0, (
                f"columnar disk ratio {ratio:.1f}x < 5x at {n} records")
    record_rows(
        "result_store",
        f"{'phase':>8} {'format':>9} {'records':>9} {'total_ms':>10} "
        f"{'rec_per_s':>12}",
        rows,
    )
    record_json("result_store", payload)
