"""The :class:`FleetExecutor`: a distributed backend for
``Campaign.run``.

``Campaign.run(store=..., executor=FleetExecutor(transport))`` keeps
the campaign API — resume skipping, stats, gating — and swaps the
``multiprocessing.Pool`` for a coordinator + workers over the given
transport object (:mod:`repro.fleet.transport`).  The contract it
upholds: the merged store at the end is record-for-record identical
(modulo the repo-wide volatile fields) to what
``Campaign.run(store=...)`` would have written single-box, including
the append order.

An exception or Ctrl-C still merges what the workers completed (the
next ``Campaign.run`` skips it); a coordinator killed outright leaves
its plan in the store's metadata for ``resume_coordinator``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.core.errors import ConfigurationError
from repro.fleet.coordinator import FleetCoordinator, FleetRunStats
from repro.results.store import ResultStore


class FleetExecutor:
    """Run a campaign's pending specs through a worker fleet."""

    def __init__(
        self,
        transport: Any,
        workers: int = 2,
        chunk_size: Optional[int] = None,
        lease_timeout: float = 30.0,
        max_chunk_attempts: int = 5,
        host: str = "127.0.0.1",
        port: int = 0,
        wait_timeout: Optional[float] = None,
        on_listening: Optional[Any] = None,
    ):
        if workers < 1:
            raise ConfigurationError(
                f"fleet workers must be >= 1, got {workers}")
        self.workers = workers
        #: Launches and reaps the workers: an InProcessTransport,
        #: MultiprocessTransport, TcpTransport or ChaosTransport.
        self.transport = transport
        self.chunk_size = chunk_size
        self.lease_timeout = lease_timeout
        self.max_chunk_attempts = max_chunk_attempts
        self.host = host
        self.port = port
        self.wait_timeout = wait_timeout
        #: Called with the bound (host, port) once the coordinator is
        #: listening — how ``repro fleet serve`` prints the join line.
        self.on_listening = on_listening
        #: Stats of the most recent :meth:`execute` (for callers that
        #: only see the CampaignRunStats summary).
        self.last_stats: Optional[FleetRunStats] = None

    def execute(self, payloads: Sequence[Dict[str, Any]],
                store: ResultStore) -> FleetRunStats:
        """Fan ``payloads`` (spec dicts, canonical order) out over the
        fleet, merge the shards into ``store``, return the stats."""
        transport = self.transport
        coordinator = FleetCoordinator(
            list(payloads), store,
            chunk_size=self.chunk_size,
            workers_hint=self.workers,
            lease_timeout=self.lease_timeout,
            max_chunk_attempts=self.max_chunk_attempts,
            host=self.host, port=self.port,
        )
        coordinator.start()
        if self.on_listening is not None:
            self.on_listening(coordinator.address)
        try:
            transport.launch(coordinator.address, self.workers)
            self._supervise(coordinator, transport)
            coordinator.drain()
            transport.join(timeout=30.0)
        except BaseException:  # incl. KeyboardInterrupt: Ctrl-C on a
            # long fleet run is the common abort, and it must salvage
            # too.  Whatever the workers already completed sits in the
            # shard stores, and the next coordinator start() would
            # wipe them as stale; merging the partial result into the
            # target store means an aborted run loses nothing — resume
            # re-executes only what really never finished.
            transport.shutdown()
            coordinator.stop()
            self.last_stats = coordinator.finish(transport=transport.name)
            if self.last_stats.merged:
                import logging

                logging.getLogger("repro.fleet").warning(
                    "fleet: aborted run salvaged %d completed "
                    "record(s) into %s; resume to finish the remaining "
                    "%d", self.last_stats.merged, store.path,
                    self.last_stats.unfinished)
            raise
        finally:
            transport.shutdown()
            coordinator.stop()
        stats = coordinator.finish(transport=transport.name)
        self.last_stats = stats
        return stats

    def _supervise(self, coordinator: FleetCoordinator,
                   transport: Any) -> None:
        """Wait for completion, but refuse to wait on a ghost fleet: a
        supervised transport (we launched every worker ourselves) with
        no live worker and work still pending can never finish."""
        import time as _time

        deadline = (None if self.wait_timeout is None
                    else _time.monotonic() + self.wait_timeout)
        while not coordinator.wait(0.25):
            if getattr(transport, "supervised", False) \
                    and not transport.alive():
                # One last grace period: the final worker may have
                # exited a beat before the done flag was raised.
                if coordinator.wait(1.0):
                    return
                raise ConfigurationError(
                    f"every fleet worker exited with work still "
                    f"pending: {coordinator.status()}")
            if deadline is not None and _time.monotonic() > deadline:
                raise ConfigurationError(
                    f"fleet run did not finish within "
                    f"{self.wait_timeout}s: {coordinator.status()}")

