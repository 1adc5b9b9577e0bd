"""The fleet subsystem: multi-box campaign fan-out.

PR 1 made experiments data (:mod:`repro.scenarios`), PR 3 made their
results durable (:mod:`repro.results`); this layer sits between them
and removes the last scale ceiling — one machine's cores.  A
:class:`FleetCoordinator` shards a sweep's ``(spec_hash, seed)`` work
into chunks and leases them to workers over a length-prefixed
JSON-over-TCP protocol (:mod:`~repro.fleet.protocol`); workers —
in-process threads, local processes, or ``repro fleet join`` clients
on other machines (:mod:`~repro.fleet.transport`) — stream records
back into per-worker shard stores; leases expire and chunks are
stolen from dead or stalled workers; and the shards merge into one
canonical :class:`~repro.results.store.ResultStore` that is
record-for-record what a single-box ``Campaign.run`` would have
written.

The failure story covers the coordinator itself: chunk-state
transitions are journalled to fsync'd JSONL next to the store
(:mod:`~repro.fleet.journal`), ``repro fleet serve --resume`` rebuilds
a crashed run from that journal re-ingesting surviving shards instead
of re-running them, workers reconnect through dropped sessions with
seeded backoff, and a deterministic chaos harness
(:mod:`~repro.fleet.chaos`) proves the digest survives all of it.
See ``docs/fleet.md`` for the full crash-recovery matrix.

Quickstart::

    from repro.fleet import FleetExecutor, MultiprocessTransport
    from repro.results import ResultStore
    from repro.scenarios import Campaign, generate_scenario

    campaign = Campaign.seed_sweep(generate_scenario, range(100))
    campaign.run(store=ResultStore("sweep"),
                 executor=FleetExecutor(MultiprocessTransport(), workers=4))

Or across machines::

    # box A
    repro fleet serve --store sweep --port 7654 --count 1000
    # boxes B, C, ...
    repro fleet join boxA:7654
"""

from repro.fleet.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    encode_frame,
    parse_address,
    recv_message,
    send_message,
)
from repro.fleet.journal import FleetJournal, default_journal_path
from repro.fleet.coordinator import (
    FleetCoordinator,
    FleetRunStats,
    resume_coordinator,
)
from repro.fleet.worker import FleetWorker, WorkerStats, worker_main
from repro.fleet.transport import (
    InProcessTransport,
    MultiprocessTransport,
    TcpTransport,
)
from repro.fleet.chaos import (
    ChaosSchedule,
    ChaosSocket,
    ChaosTransport,
    schedule_from_env,
)
from repro.fleet.executor import FleetExecutor

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ConnectionClosed",
    "encode_frame",
    "recv_message",
    "send_message",
    "parse_address",
    "FleetJournal",
    "default_journal_path",
    "FleetCoordinator",
    "FleetRunStats",
    "resume_coordinator",
    "FleetWorker",
    "WorkerStats",
    "worker_main",
    "InProcessTransport",
    "MultiprocessTransport",
    "TcpTransport",
    "ChaosSchedule",
    "ChaosSocket",
    "ChaosTransport",
    "schedule_from_env",
    "FleetExecutor",
]
