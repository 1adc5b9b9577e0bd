"""Fan a batch of scenarios out across worker processes into a store.

A :class:`Campaign` is the scale half of the scenario engine: hand it
a list of specs (usually a seed sweep), pick a worker count, and
``campaign.run(store)`` runs every scenario — serialized specs out,
serialized results back.  Workers are plain ``multiprocessing``
processes; each scenario builds its world from scratch and resets the
process-global counters, so a result is the same whether it ran
first, last, alone, or in a pool (the reproducibility tests pin this
down).

A sweep's results are records in a
:class:`~repro.results.store.ResultStore`: every finished scenario is
appended the moment it arrives and *not* kept in memory, (spec, seed)
pairs already in the store are skipped, and a killed sweep re-run
with the same store completes only the remaining work — bit-for-bit
identical to an uninterrupted run.  ``store.aggregate()`` rolls the
records up (converged/errored counts, metric percentiles, SLO
tallies and the gate).

A worker that raises mid-scenario records a failed result (error
string in diagnostics, SLO verdicts ``error``) instead of aborting
the whole sweep.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import time as _time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple,
)

from repro.core.errors import ConfigurationError
from repro.api.metrics import scenario_metrics
from repro.results.records import make_record
from repro.results.store import ResultStore
from repro.scenarios.runner import (
    ScenarioRunner,
    error_result,
    result_fingerprint,
)
from repro.scenarios.spec import ScenarioSpec

_log = logging.getLogger("repro.campaign")


def effective_cpu_count() -> int:
    """CPUs this *process* may actually use — the honest parallelism
    ceiling for a worker pool.

    ``os.cpu_count()`` reports the machine; in a cgroup-limited
    container or under ``taskset`` that over-commits the pool badly.
    Prefer ``os.process_cpu_count()`` (3.13+), fall back to the
    scheduler affinity mask, and only then to the raw machine count.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        count = counter()
    else:
        try:
            count = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):  # non-Linux platforms
            count = os.cpu_count()
    return max(1, count or 1)


@dataclass
class WorkChunk:
    """A contiguous slice of a sweep's spec payloads — the unit of
    fleet work assignment (leased, heartbeat-kept, stolen, retried as
    one).  Chunk ids follow spec order, so the sequence of chunks
    replays the sweep exactly."""

    chunk_id: int
    payloads: List[Dict[str, Any]]

    def __len__(self) -> int:
        return len(self.payloads)


def plan_chunks(
    payloads: Sequence[Dict[str, Any]],
    chunk_size: Optional[int] = None,
    workers: int = 1,
) -> List[WorkChunk]:
    """Slice spec payloads into :class:`WorkChunk`\\ s.

    The default size aims at ~4 chunks per worker: big enough that
    framing and lease bookkeeping stay negligible, small enough that
    work stealing from a dead worker forfeits little progress.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1, got {chunk_size}")
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(payloads) / max(1, workers * 4)))
    return [
        WorkChunk(chunk_id=index,
                  payloads=list(payloads[start:start + chunk_size]))
        for index, start in enumerate(range(0, len(payloads), chunk_size))
    ]


def run_scenario_dict(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: dict in, dict out (must stay module-level
    and serialization-only so it pickles into pool workers)."""
    spec = ScenarioSpec.from_dict(spec_dict)
    return ScenarioRunner().run(spec).to_dict()


def run_scenario_dict_safe(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Fault-isolated worker entry point: a scenario that blows up
    mid-run returns an error result dict instead of poisoning the
    pool.  ``KeyboardInterrupt``/``SystemExit`` still propagate — a
    killed sweep should die, that's what resume is for."""
    try:
        return run_scenario_dict(spec_dict)
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        message = f"{type(exc).__name__}: {exc}"
        try:
            spec = ScenarioSpec.from_dict(spec_dict)
        except Exception:  # even deserialization failed
            spec = ScenarioSpec(name=spec_dict.get("name", "scenario"),
                                seed=spec_dict.get("seed", 0))
        return error_result(spec, message).to_dict()


def scenario_record(payload: Dict[str, Any],
                    raw: Dict[str, Any]) -> Dict[str, Any]:
    """The store record of one finished scenario: its spec dict and the
    worker's result dict, fingerprinted and flattened directly (no
    round trip through a ScenarioResult).  The one builder both
    ``Campaign.run`` and a fleet worker call, so a fleet record is the
    single-box record by construction."""
    return make_record(payload, raw,
                       fingerprint=result_fingerprint(raw),
                       metrics=scenario_metrics(raw))


@dataclass
class CampaignRunStats:
    """What a campaign run did — counts, not results.

    The results live in the run's :class:`ResultStore`, not in this
    object (that is the point: a sweep of 10k scenarios never holds
    results in memory).  Use ``store.aggregate()`` or
    ``store.iter_records()`` to read them back.
    """

    total: int = 0                # scenarios the campaign describes
    executed: int = 0             # run (and persisted) this invocation
    skipped: int = 0              # already in the store (resume)
    failed: int = 0               # executed but died mid-run
    slo_failures: int = 0         # non-passing verdicts this invocation
    wall_seconds: float = 0.0
    workers: int = 1
    store_path: str = ""

    def summary(self) -> str:
        return (
            f"{self.executed}/{self.total} scenario(s) executed "
            f"({self.skipped} already in store, {self.failed} errored"
            + (f", {self.slo_failures} SLO violation(s)"
               if self.slo_failures else "")
            + f") on {self.workers} worker(s) in {self.wall_seconds:.2f}s "
            f"-> {self.store_path}"
        )


class Campaign:
    """A batch of scenarios and the machinery to run them."""

    def __init__(self, specs: Sequence[ScenarioSpec],
                 workers: Optional[int] = None):
        if not specs:
            raise ConfigurationError("campaign needs at least one scenario")
        if workers is None:
            # cgroup/affinity-aware (effective_cpu_count), never wider
            # than the batch — and the choice is logged because silent
            # parallelism defaults are how containers get oversubscribed.
            workers = min(effective_cpu_count(), len(specs))
            _log.info(
                "campaign: auto-selected %d worker(s) "
                "(%d usable CPU(s), %d scenario(s))",
                workers, effective_cpu_count(), len(specs))
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError("campaign scenario names must be unique")
        self.specs = list(specs)
        self.workers = workers

    @classmethod
    def seed_sweep(
        cls,
        factory: Callable[[int], ScenarioSpec],
        seeds: Iterable[int],
        workers: Optional[int] = None,
    ) -> "Campaign":
        """Build a campaign from a seed -> spec factory (the common
        shape: same scenario family, many seeds)."""
        return cls([factory(seed) for seed in seeds], workers=workers)

    def _stream_results(
        self, payloads: List[Dict[str, Any]],
    ) -> "Iterator[Dict[str, Any]]":
        """Yield result dicts in spec order as workers finish them.

        ``imap`` (not ``map``) so results stream back one at a time —
        the parent appends each to the store and drops it, instead of
        materializing the whole sweep.
        """
        if self.workers == 1 or len(payloads) <= 1:
            for payload in payloads:
                yield run_scenario_dict_safe(payload)
            return
        with multiprocessing.get_context().Pool(self.workers) as pool:
            for raw in pool.imap(run_scenario_dict_safe, payloads,
                                 chunksize=1):
                yield raw

    def pending(self, store: "ResultStore",
                retry_errors: bool = False,
                ) -> "Tuple[List[ScenarioSpec], int]":
        """Split the campaign against ``store``: the specs still to
        run, in campaign order, and how many are skipped because their
        (spec_hash, seed) is already persisted.  ``retry_errors`` keeps
        pairs whose persisted record is a fault-isolation error result
        (a transient worker failure) in the pending list."""
        pending = []
        skipped = 0
        dispatched = set()
        for spec in self.specs:
            key = (spec.spec_hash(), spec.seed)
            if key in dispatched:
                # Identical specs can't normally coexist (names are
                # unique and hashed), but dedupe defensively rather
                # than crash on append mid-sweep.
                skipped += 1
                continue
            dispatched.add(key)
            if key not in store or (retry_errors and store.has_error(key)):
                pending.append(spec)
            else:
                skipped += 1
        return pending, skipped

    def run(self, store: "ResultStore",
            retry_errors: bool = False) -> CampaignRunStats:
        """Execute every scenario into ``store``; parallel when
        ``workers > 1``.

        Scenarios whose (spec_hash, seed) is already persisted are
        skipped (see :meth:`pending`), each finished result is appended
        to the store immediately and released, and a
        :class:`CampaignRunStats` summarizes what happened — so an
        interrupted sweep re-run with the same store finishes exactly
        the remaining work.  ``retry_errors`` also re-runs pairs whose
        persisted record is an error result, superseding it.
        """
        from repro import __version__

        start = _time.perf_counter()
        pending, skipped = self.pending(store, retry_errors)
        payloads = [spec.to_dict() for spec in pending]

        failed = 0
        slo_failures = 0
        for payload, raw in zip(payloads, self._stream_results(payloads)):
            if raw.get("diagnostics", {}).get("error") is not None:
                failed += 1
            slo_failures += sum(1 for verdict in raw.get("slos", [])
                                if verdict.get("status") != "pass")
            record = scenario_record(payload, raw)
            key = (record["spec_hash"], record["seed"])
            # Only a retried error record is already in the store.
            store.append(record, replace=key in store)

        store.record_provenance({
            "transport": "local",
            "workers": self.workers,
            "executed": len(payloads),
            "skipped": skipped,
            "repro_version": __version__,
        })
        return CampaignRunStats(
            total=len(self.specs),
            executed=len(payloads),
            skipped=skipped,
            failed=failed,
            slo_failures=slo_failures,
            wall_seconds=_time.perf_counter() - start,
            workers=self.workers,
            store_path=store.path,
        )
