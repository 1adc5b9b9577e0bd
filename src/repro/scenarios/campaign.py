"""Fan a batch of scenarios out across worker processes.

A :class:`Campaign` is the scale half of the scenario engine: hand it
a list of specs (usually a seed sweep), pick a worker count, and it
runs every scenario — serialized specs out, serialized results back —
then aggregates.  Workers are plain
``multiprocessing`` processes; each scenario builds its world from
scratch and resets the process-global counters, so a result is the
same whether it ran first, last, alone, or in a pool (the
reproducibility tests pin this down).

Two ways to run:

* ``campaign.run()`` — everything in memory, a :class:`CampaignResult`
  back (fine for dozens of scenarios);
* ``campaign.run(store=ResultStore(...))`` — every finished scenario
  is appended to the store the moment it arrives and *not* kept in
  memory, (spec, seed) pairs already in the store are skipped, and a
  killed sweep re-run with the same store completes only the remaining
  work — bit-for-bit identical to an uninterrupted run.

Either way a worker that raises mid-scenario records a failed result
(error string in diagnostics, SLO verdicts ``error``) instead of
aborting the whole sweep.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import time as _time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
)

from repro.core.errors import ConfigurationError
from repro.api.metrics import scenario_metrics
from repro.results.records import make_record
from repro.results.store import ResultStore
from repro.scenarios.runner import (
    ScenarioResult,
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
class CampaignResult:
    """Everything a campaign measured, plus the aggregates."""

    results: List[ScenarioResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1

    @property
    def scenario_count(self) -> int:
        return len(self.results)

    @property
    def converged_count(self) -> int:
        return sum(1 for r in self.results if r.converged)

    @property
    def failed_count(self) -> int:
        """Scenarios that died mid-run (fault isolation results)."""
        return sum(1 for r in self.results if r.error is not None)

    @property
    def slo_failures(self) -> int:
        """SLO verdicts that did not pass, campaign-wide (fail+error)."""
        return sum(1 for r in self.results for v in r.slos if not v.passed)

    @property
    def mean_convergence_time(self) -> Optional[float]:
        times = [r.convergence_time for r in self.results
                 if r.convergence_time is not None]
        if not times:
            return None
        return sum(times) / len(times)

    @property
    def mean_delivered_fraction(self) -> float:
        # Errored scenarios measured nothing (their zero demand reads
        # as delivered_fraction == 1.0) — keep them out of the mean.
        healthy = [r for r in self.results if r.error is None]
        if not healthy:
            return 0.0
        return (sum(r.delivered_fraction for r in healthy)
                / len(healthy))

    @property
    def recovery_times(self) -> List[float]:
        """Every measured per-injection recovery time, campaign-wide."""
        return [
            outcome.recovery_seconds
            for result in self.results
            for outcome in result.injections
            if outcome.recovery_seconds is not None
        ]

    def result_for_seed(self, seed: int) -> ScenarioResult:
        for result in self.results:
            if result.seed == seed:
                return result
        raise KeyError(f"no scenario with seed {seed} in this campaign")

    def fingerprints(self) -> Dict[int, str]:
        """seed -> result fingerprint (the reproducibility ledger)."""
        return {r.seed: r.fingerprint() for r in self.results}

    def summary(self) -> str:
        """Multi-line digest: one line per scenario + the aggregates."""
        lines = [result.summary() for result in self.results]
        conv = self.mean_convergence_time
        recoveries = self.recovery_times
        lines.append(
            f"-- {self.scenario_count} scenarios on {self.workers} worker(s) "
            f"in {self.wall_seconds:.2f}s wall: "
            f"{self.converged_count}/{self.scenario_count} converged"
            + (f", mean convergence {conv:.3f}s" if conv is not None else "")
            + f", mean delivered {self.mean_delivered_fraction * 100:.1f}%"
            + (f", mean recovery {sum(recoveries) / len(recoveries):.3f}s "
               f"({len(recoveries)} measured)" if recoveries else "")
            + (f", {self.failed_count} errored" if self.failed_count else "")
            + (f", {self.slo_failures} SLO violation(s)"
               if self.slo_failures else "")
        )
        return "\n".join(lines)


@dataclass
class CampaignRunStats:
    """What a *streaming* campaign run did — counts, not results.

    When a campaign runs against a :class:`ResultStore` the results
    live on disk, not in this object (that is the point: a
    10k-scenario sweep never holds results in memory).  Use
    ``store.iter_records()`` / :mod:`repro.results.aggregate` to read
    them back.
    """

    total: int = 0                # scenarios the campaign describes
    executed: int = 0             # run (and persisted) this invocation
    skipped: int = 0              # already in the store (resume)
    failed: int = 0               # executed but died mid-run
    slo_failures: int = 0         # non-passing verdicts this invocation
    wall_seconds: float = 0.0
    workers: int = 1
    store_path: str = ""
    transport: str = "local"      # "local" pool, or the fleet transport
    fleet: Optional[Dict[str, Any]] = None  # FleetRunStats.to_dict()

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

    def run(
        self, store: "Optional[ResultStore]" = None,
        retry_errors: bool = False,
        executor: Optional[Any] = None,
    ) -> "CampaignResult | CampaignRunStats":
        """Execute every scenario; parallel when ``workers > 1``.

        Without ``store``: everything in memory, a
        :class:`CampaignResult` back.  With ``store``: scenarios whose
        (spec_hash, seed) is already persisted are skipped, each
        finished result is appended to the store immediately and
        released, and a :class:`CampaignRunStats` summarizes what
        happened — so an interrupted sweep re-run with the same store
        finishes exactly the remaining work.  ``retry_errors`` also
        re-runs pairs whose persisted record is a fault-isolation
        error result (a transient worker failure), superseding it.

        ``executor`` swaps the local worker pool for a distributed
        backend (a :class:`repro.fleet.FleetExecutor`): the pending
        payloads fan out over the fleet and the merged store ends up
        record-for-record what this method would have written locally.
        Resume semantics, stats and gating are unchanged.
        """
        start = _time.perf_counter()
        pending = list(self.specs)
        skipped = 0
        retrying = set()
        if store is not None:
            remaining = []
            dispatched = set()
            for spec in pending:
                key = (spec.spec_hash(), spec.seed)
                if key in dispatched:
                    # Identical specs can't normally coexist (names are
                    # unique and hashed), but dedupe defensively rather
                    # than crash on append mid-sweep.
                    skipped += 1
                    continue
                dispatched.add(key)
                if key not in store:
                    remaining.append(spec)
                elif retry_errors and store.has_error(key):
                    retrying.add(key)
                    remaining.append(spec)
                else:
                    skipped += 1
            pending = remaining

        payloads = [spec.to_dict() for spec in pending]
        if executor is not None:
            if store is None:
                raise ConfigurationError(
                    "fleet execution streams records; pass a store")
            fleet_stats = executor.execute(payloads, store)
            return CampaignRunStats(
                total=len(self.specs),
                executed=fleet_stats.merged,
                skipped=skipped,
                failed=fleet_stats.failed,
                slo_failures=fleet_stats.slo_failures,
                wall_seconds=_time.perf_counter() - start,
                # The workers that joined, not the executor's knob: a
                # TCP fleet sizes itself, and nobody joins a sweep
                # whose store is already complete.
                workers=len(fleet_stats.workers),
                store_path=store.path,
                transport=executor.transport.name,
                fleet=fleet_stats.to_dict(),
            )

        results: List[ScenarioResult] = []
        failed = 0
        slo_failures = 0
        for payload, raw in zip(payloads, self._stream_results(payloads)):
            if raw.get("diagnostics", {}).get("error") is not None:
                failed += 1
            slo_failures += sum(1 for verdict in raw.get("slos", [])
                                if verdict.get("status") != "pass")
            if store is None:
                results.append(ScenarioResult.from_dict(raw))
            else:
                record = scenario_record(payload, raw)
                store.append(record,
                             replace=(record["spec_hash"],
                                      record["seed"]) in retrying)

        if store is not None:
            from repro import __version__

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
        return CampaignResult(
            results=results,
            wall_seconds=_time.perf_counter() - start,
            workers=self.workers,
        )
