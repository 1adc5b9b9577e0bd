"""The fleet subsystem: multi-box campaign fan-out.

PR 1 made experiments data (:mod:`repro.scenarios`), PR 3 made their
results durable (:mod:`repro.results`); this layer sits between them
and removes the last scale ceiling — one machine's cores.  A
:class:`FleetCoordinator` shards a sweep's ``(spec_hash, seed)`` work
into chunks and leases them to workers over a length-prefixed
JSON-over-TCP protocol (:mod:`~repro.fleet.protocol`); workers —
``repro fleet join`` clients on any machine, or :func:`worker_main`
threads — stream records back into per-worker shard stores; leases
expire and chunks are stolen from dead or stalled workers; and the
shards merge into one canonical
:class:`~repro.results.store.ResultStore` that is record-for-record
what a single-box ``Campaign.run`` would have written.

The failure story covers the coordinator itself: a run's plan (its
exact chunk list) sits in the target store's metadata until the merge
clears it, ``repro fleet serve --store DIR --resume`` rebuilds a
crashed run from that plan re-ingesting surviving shards instead of
re-running them, workers reconnect through dropped sessions with
seeded backoff, and a deterministic chaos harness
(:mod:`~repro.fleet.chaos`) proves the digest survives all of it.
See ``docs/fleet.md`` for the full crash-recovery matrix.

Quickstart — one coordinator, workers join from any box::

    from repro.fleet import FleetCoordinator
    from repro.results import ResultStore
    from repro.scenarios import Campaign, generate_scenario

    campaign = Campaign.seed_sweep(generate_scenario, range(1000))
    store = ResultStore("sweep")
    pending, __ = campaign.pending(store)
    FleetCoordinator([spec.to_dict() for spec in pending], store,
                     host="0.0.0.0", port=7654).serve(on_listening=print)

    # boxes B, C, ...
    repro fleet join boxA:7654

which is what ``repro fleet serve --store sweep --port 7654 --count
1000`` runs.
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
from repro.fleet.coordinator import (
    FleetCoordinator,
    FleetRunStats,
    resume_coordinator,
)
from repro.fleet.worker import FleetWorker, WorkerStats, worker_main
from repro.fleet.chaos import (
    ChaosSchedule,
    ChaosSocket,
    schedule_from_env,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ConnectionClosed",
    "encode_frame",
    "recv_message",
    "send_message",
    "parse_address",
    "FleetCoordinator",
    "FleetRunStats",
    "resume_coordinator",
    "FleetWorker",
    "WorkerStats",
    "worker_main",
    "ChaosSchedule",
    "ChaosSocket",
    "schedule_from_env",
]
