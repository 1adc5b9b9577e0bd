"""Fleet protocol-overhead benchmark: the wire without the work.

A fleet run's wall time is simulation + coordination, and tuning the
coordination half (framing, per-record fsyncs into shard stores, lease
bookkeeping, the final shard merge) needs a measurement that excludes
the simulator entirely.  This harness runs the REAL coordinator and
REAL TCP workers speaking the real frame protocol
(hello/request/record/chunk_done/done/bye plus heartbeats) — but the
"scenario execution" is a deterministic record fabricator, so every
measured second is protocol + store overhead.

:func:`run_protocol_bench` is the library entry and ``repro fleet
bench`` its only caller.  Records are fabricated
deterministically from the seed, so repeated runs push identical bytes
and the merged store's digest is stable — which also makes the bench a
smoke test of the coordinator/store plumbing under both on-disk
formats (``store_format="jsonl"`` or ``"columnar"``).
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import threading
import time as _time
from typing import Any, Dict, List, Optional

from repro.core.errors import ConfigurationError
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.protocol import encode_frame
from repro.fleet.worker import FleetWorker
from repro.results.records import canonical_json, make_record
from repro.results.store import ResultStore


def synthetic_payloads(count: int) -> List[Dict[str, Any]]:
    """``count`` tiny spec dicts, one per seed.  They are never run —
    the bench worker fabricates their records — but they flow through
    chunk planning, leases and the wire like real specs."""
    return [{"name": f"bench-{seed}", "seed": seed,
             "bench": True, "duration": 0.0}
            for seed in range(count)]


def fabricate_record(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic record the bench "runs" a payload into.

    Shapes match a real scenario record — flat rollup metrics, SLO
    verdicts inside the result, a fingerprint — so aggregation, CSV
    export and the columnar codec all exercise their real paths.
    """
    seed = payload.get("seed", 0)
    metrics = {
        "converged": True,
        "convergence_time": 1.0 + (seed % 97) * 0.01,
        "delivered_fraction": 1.0 - (seed % 13) * 0.002,
        "max_recovery_seconds": 0.5 + (seed % 41) * 0.02,
        "mean_recovery_seconds": 0.25 + (seed % 41) * 0.01,
        "control_messages": 100 + seed % 57,
        "control_bytes": 6400 + (seed % 57) * 64,
        "events_fired": 1000 + seed % 211,
        "recomputations": 3 + seed % 7,
        "wall_seconds": 0.0,
    }
    result = {
        "name": payload["name"],
        "seed": seed,
        "slos": [{"slo": "bench_delivered>=0.9", "status": "pass",
                  "observed": metrics["delivered_fraction"]}],
        "diagnostics": {},
    }
    fingerprint = hashlib.sha256(
        canonical_json({"payload": payload, "metrics": metrics})
        .encode()).hexdigest()[:16]
    return make_record(payload, result, fingerprint=fingerprint,
                       metrics=metrics)


class _BenchWorker(FleetWorker):
    """A fleet worker whose 'scenario run' is record fabrication.

    Everything else — connection, hello, leases, heartbeats, record
    streaming, chunk_done, the done/bye handshake — is the inherited
    real implementation, so the bytes on the wire are exactly a real
    worker's bytes.
    """

    def _run_payload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return fabricate_record(payload)


def run_protocol_bench(
    records: int = 2000,
    workers: int = 2,
    chunk_size: Optional[int] = None,
    store_format: Optional[str] = None,
    store_path: Optional[str] = None,
    lease_timeout: float = 30.0,
) -> Dict[str, Any]:
    """Push ``records`` fabricated records through ``workers`` real
    TCP workers; returns the measurements as a flat dict.

    ``store_path=None`` merges into a temporary store that is deleted
    afterwards; give a path to keep (and inspect) the merged store.
    """
    if records <= 0:
        raise ConfigurationError(f"records must be > 0, got {records}")
    if workers <= 0:
        raise ConfigurationError(f"workers must be > 0, got {workers}")
    payloads = synthetic_payloads(records)
    # The wire cost is deterministic: every record frame's bytes are
    # known before the run, so B/record is exact, not sampled.
    wire_bytes = sum(
        len(encode_frame({"type": "record", "chunk": 0,
                          "record": fabricate_record(payload)}))
        for payload in payloads)

    tmp_root = None
    if store_path is None:
        tmp_root = tempfile.mkdtemp(prefix="repro-fleet-bench-")
        store_path = tmp_root + "/store"
    try:
        store = ResultStore(store_path, format=store_format)
        coordinator = FleetCoordinator(
            payloads, store, chunk_size=chunk_size, workers_hint=workers,
            lease_timeout=lease_timeout, host="127.0.0.1", port=0)
        coordinator.start()
        host, port = coordinator.address
        threads = []
        start = _time.perf_counter()
        try:
            for i in range(workers):
                worker = _BenchWorker(host, port,
                                      worker_id=f"bench-{i}")
                thread = threading.Thread(target=worker.run, daemon=True,
                                          name=f"fleet-bench-{i}")
                thread.start()
                threads.append(thread)
            coordinator.wait()
            wall = _time.perf_counter() - start
            coordinator.drain()
        finally:
            coordinator.stop()
        for thread in threads:
            thread.join(timeout=5.0)
        merge_start = _time.perf_counter()
        stats = coordinator.finish()
        merge_seconds = _time.perf_counter() - merge_start
        return {
            "records": records,
            "workers": workers,
            "chunk_size": stats.chunk_size,
            "chunks": stats.chunks,
            "store_format": store.storage_format,
            "wall_seconds": wall,
            "records_per_second": records / wall if wall > 0 else 0.0,
            "merge_seconds": merge_seconds,
            "merged": stats.merged,
            "records_ingested": stats.records_ingested,
            "duplicates_dropped": stats.duplicates_dropped,
            "reclaimed": stats.reclaimed,
            "wire_bytes": wire_bytes,
            "wire_bytes_per_record": wire_bytes / records,
            "store_digest": store.canonical_digest(),
        }
    finally:
        if tmp_root is not None:
            shutil.rmtree(tmp_root, ignore_errors=True)
