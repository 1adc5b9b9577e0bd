"""The fleet coordinator: leases chunks out, herds the records home.

One coordinator owns one campaign's worth of pending work.  It plans
the sweep's spec payloads into contiguous chunks (see
:func:`repro.scenarios.campaign.plan_chunks`), serves them to workers
over the frame protocol, and streams every returned record into a
per-worker *shard* :class:`~repro.results.store.ResultStore` under
``<store>/shards/``.  When every chunk is resolved it merges the
shards into the target store in the sweep's canonical spec order — so
a fleet run's store is record-for-record identical to a single-box
``Campaign.run`` of the same specs.

Failure model (work stealing):

* a worker's TCP connection dying (SIGKILL, OOM, network) immediately
  reclaims its leased chunks and re-queues them for the next
  ``request``;
* a worker that stays connected but stops making progress loses its
  lease after ``lease_timeout`` seconds without a frame (records and
  heartbeats both refresh it) — the monitor thread re-queues the
  chunk, and late records from the zombie are deduplicated away;
* a worker reporting ``chunk_error`` (infrastructure failure outside
  the per-scenario fault isolation) gets the chunk re-queued, up to
  ``max_chunk_attempts`` per chunk before it is marked failed.

Duplicate completions are inevitable under reclaim (the original
worker may finish after the steal); the coordinator dedups record
ingest by ``(spec_hash, seed)``.  Records are deterministic given a
spec, so which copy survives does not matter — except that a healthy
record always supersedes an error record, both at ingest and at
merge, so a flaky worker cannot poison a key another worker completed.

The coordinator's own death is covered too: :meth:`start` writes the
run's *plan* (the exact chunk list) into the target store's metadata
under :data:`PLAN_KEY`, :meth:`finish` clears it, and
:func:`resume_coordinator` rebuilds a crashed run from that plan,
re-ingesting surviving shards instead of re-running them.  A worker
that keeps reporting ``chunk_error`` is *quarantined* — its next
report and any re-hello are rejected — so one broken installation
cannot spend every chunk's attempt budget.
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import socket
import threading
import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.results.records import record_error, spec_hash
from repro.results.store import (
    ResultStore,
    SHARDS_DIR,
    list_shards,
    shard_store_name,
)
from repro.obs.metrics import metrics
from repro.obs.spans import span
from repro.fleet.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.scenarios.campaign import WorkChunk, plan_chunks

_log = logging.getLogger("repro.fleet")

_PENDING, _LEASED, _DONE, _FAILED = "pending", "leased", "done", "failed"

#: Test hook: SIGKILL the coordinator's own process after ingesting
#: this many records — how the crash-recovery tests die at an
#: arbitrary, reproducible point with no cooperation from teardown.
_COORD_SELFKILL_ENV = "REPRO_FLEET_COORD_SELFKILL_AFTER"

#: Seconds a worker is told to wait when every chunk is leased out.
_POLL_HINT = 0.2

#: The target store's metadata key holding an unfinished run's plan.
PLAN_KEY = "fleet_plan"


@dataclass
class _ChunkState:
    chunk: WorkChunk
    status: str = _PENDING
    worker: Optional[str] = None
    deadline: float = 0.0
    attempts: int = 0


@dataclass
class FleetRunStats:
    """What one fleet run did, beyond the records it produced."""

    chunks: int = 0
    chunk_size: int = 0
    workers: List[str] = field(default_factory=list)
    reclaimed: int = 0            # leases stolen back (death or expiry)
    failed_chunks: int = 0        # chunks that exhausted their attempts
    records_ingested: int = 0     # accepted into shard stores
    duplicates_dropped: int = 0   # re-runs of already-ingested keys
    merged: int = 0               # records appended to the final store
    unfinished: int = 0           # specs never completed (failed chunks)
    failed: int = 0               # merged records that are error records
    slo_failures: int = 0         # non-passing verdicts in merged records
    resumed: bool = False         # this run continued a crashed one
    reingested_records: int = 0   # salvaged from shards, not re-run
    reingested_chunks: int = 0    # chunks fully covered by salvage
    requeued_lost: int = 0        # chunks the crash genuinely lost
    quarantined: List[str] = field(default_factory=list)
    stopped_cleanly: bool = True  # every server thread died on stop()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "chunks": self.chunks, "chunk_size": self.chunk_size,
            "workers": list(self.workers), "reclaimed": self.reclaimed,
            "failed_chunks": self.failed_chunks,
            "records_ingested": self.records_ingested,
            "duplicates_dropped": self.duplicates_dropped,
            "merged": self.merged, "unfinished": self.unfinished,
            "failed": self.failed, "slo_failures": self.slo_failures,
            "resumed": self.resumed,
            "reingested_records": self.reingested_records,
            "reingested_chunks": self.reingested_chunks,
            "requeued_lost": self.requeued_lost,
            "quarantined": list(self.quarantined),
            "stopped_cleanly": self.stopped_cleanly,
        }


class FleetCoordinator:
    """Serve one campaign's chunks to fleet workers over TCP."""

    def __init__(
        self,
        payloads: List[Dict[str, Any]],
        store: ResultStore,
        chunk_size: Optional[int] = None,
        workers_hint: int = 1,
        lease_timeout: float = 30.0,
        max_chunk_attempts: int = 5,
        host: str = "127.0.0.1",
        port: int = 0,
        chunks: Optional[List[WorkChunk]] = None,
        quarantine_after: int = 3,
        resume: bool = False,
    ):
        if store.readonly:
            raise ConfigurationError("fleet target store is read-only")
        if lease_timeout <= 0:
            raise ConfigurationError(
                f"lease_timeout must be > 0, got {lease_timeout}")
        if quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine_after must be >= 1, got {quarantine_after}")
        if not 0 <= port <= 65535:
            raise ConfigurationError(
                f"fleet port must be in 0..65535, got {port}")
        self.store = store
        self.lease_timeout = lease_timeout
        self.max_chunk_attempts = max_chunk_attempts
        self.quarantine_after = quarantine_after
        self._host_req, self._port_req = host, port
        # Canonical order: the sweep's spec order, which is also the
        # append order of a single-box run — merge preserves it.
        self._order_keys: List[Tuple[str, int]] = [
            (spec_hash(payload), payload.get("seed", 0))
            for payload in payloads]
        self._valid_keys = set(self._order_keys)
        # An explicit chunk list (the resume path replays the crashed
        # run's exact plan) bypasses planning; chunking must not drift
        # between the original run and its resume.
        if chunks is None:
            chunks = plan_chunks(payloads, chunk_size=chunk_size,
                                 workers=workers_hint)
        self.stats = FleetRunStats(
            chunks=len(chunks),
            chunk_size=max((len(c.payloads) for c in chunks), default=0),
            resumed=resume)
        self._chunks: Dict[int, _ChunkState] = {
            c.chunk_id: _ChunkState(chunk=c) for c in chunks}
        self._queue = deque(sorted(self._chunks))
        self._seen: Dict[Tuple[str, int], bool] = {}   # key -> is_error
        # worker -> chunk ids it currently leases: keeps lease touch/
        # expiry scans proportional to live leases, not total chunks.
        self._worker_leases: Dict[str, set] = {}
        self._shards: Dict[str, ResultStore] = {}
        self._worker_info: Dict[str, Dict[str, Any]] = {}
        self._worker_chunk_errors: Dict[str, int] = {}
        self._quarantined: set = set()
        self._connected: set = set()
        self._lock = threading.RLock()
        self._done = threading.Event()
        self._stopping = threading.Event()
        self._server: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._clients: List[socket.socket] = []
        self._resume = resume
        self._selfkill_after = int(
            os.environ.get(_COORD_SELFKILL_ENV, "0") or 0)
        if not self._chunks:
            self._done.set()

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise ConfigurationError("coordinator is not started")
        return self._server.getsockname()[:2]

    def start(self) -> "FleetCoordinator":
        # Bind first: a port that is taken (or refused) must fail the
        # run before it touches the store, or the plan below would
        # claim a crashed run that never served.
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind((self._host_req, self._port_req))
            server.listen(64)
        except BaseException:
            server.close()
            raise
        # Accept with a timeout: a blocked accept() is not reliably
        # woken by close() from another thread, and stop() must not
        # hang on it.
        server.settimeout(0.25)
        self._server = server
        if not self._resume:
            # A crashed fleet run can leave unmerged shards behind;
            # their keys would collide with a *fresh* run's re-executed
            # specs, so the slate is wiped.  A resume does the exact
            # opposite: the surviving shards are the salvage it came
            # back for (see resume_coordinator).
            shards_root = os.path.join(self.store.path, SHARDS_DIR)
            if os.path.isdir(shards_root):
                _log.warning("fleet: discarding stale shards in %s",
                             shards_root)
                shutil.rmtree(shards_root, ignore_errors=True)
            # The plan is the run's crash state: the exact chunk list
            # (ids + spec payloads), so a resume rebuilds an identical
            # coordinator with no generator flags to re-supply.  It is
            # durable before the accept loop serves any worker;
            # finish() clears it.
            self.store.update_metadata({PLAN_KEY: {
                "lease_timeout": self.lease_timeout,
                "max_chunk_attempts": self.max_chunk_attempts,
                "chunks": [{"chunk": chunk_id,
                            "specs": self._chunks[chunk_id].chunk.payloads}
                           for chunk_id in sorted(self._chunks)]}})
        for target in (self._accept_loop, self._monitor_loop):
            thread = threading.Thread(target=target, daemon=True,
                                      name=f"fleet-{target.__name__}")
            thread.start()
            self._threads.append(thread)
        _log.info("fleet coordinator serving %d chunk(s) on %s:%d",
                  len(self._chunks), *self.address)
        return self

    def serve(self, wait_timeout: Optional[float] = None,
              on_listening: "Optional[Callable[[Tuple[str, int]], Any]]"
              = None) -> FleetRunStats:
        """Run the whole fleet run: start, announce, wait for every
        chunk, drain, stop, merge.  Workers are not launched here —
        they join (``repro fleet join``, :func:`worker_main`), and
        ``on_listening`` is called with the bound address so a caller
        can tell them where.

        Any exception, Ctrl-C included, still stops the server and
        merges what the workers completed before it propagates: those
        records sit in the shard stores, which the next fresh
        :meth:`start` would wipe as stale.  So does running past
        ``wait_timeout`` seconds, which then raises
        :class:`ConfigurationError`; re-serving the sweep runs only
        what is still missing.
        """
        self.start()
        finished = False
        try:
            if on_listening is not None:
                on_listening(self.address)
            finished = self.wait(wait_timeout)
            if finished:
                self.drain()
        finally:
            self.stop()
            stats = self.finish()
        if not finished:
            raise ConfigurationError(
                f"fleet run did not finish within {wait_timeout}s: "
                f"{stats.merged} completed record(s) merged into "
                f"{self.store.path}, {stats.unfinished} scenario(s) "
                f"unfinished")
        return stats

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every chunk is resolved (done or failed)."""
        return self._done.wait(timeout)

    def drain(self, timeout: float = 5.0) -> None:
        """Give connected workers a moment to hear ``done`` and hang
        up cleanly before :meth:`stop` slams the sockets — otherwise a
        worker blocked on its next ``request`` reads the close as a
        coordinator crash and exits non-zero."""
        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            with self._lock:
                if not self._connected:
                    return
            _time.sleep(0.05)

    def stop(self) -> None:
        """Tear down the sockets and threads (idempotent).  A thread
        that outlives its 2s join is named in the log and flips
        ``stats.stopped_cleanly`` — a silent leak here is how a "done"
        process ends up wedged in atexit or holding the port."""
        self._stopping.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        with self._lock:
            clients = list(self._clients)
        for sock in clients:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        current = threading.current_thread()
        leaked = []
        for thread in list(self._threads):
            if thread is current:
                continue
            thread.join(timeout=2.0)
            if thread.is_alive():
                leaked.append(thread.name)
        if leaked:
            self.stats.stopped_cleanly = False
            _log.error("fleet: %d thread(s) failed to stop within 2s: %s",
                       len(leaked), ", ".join(sorted(leaked)))

    # -- server loops ------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._server is not None
        while not self._stopping.is_set():
            try:
                sock, addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            sock.settimeout(None)  # workers block on recv indefinitely
            with self._lock:
                self._clients.append(sock)
            thread = threading.Thread(target=self._serve_client,
                                      args=(sock, addr), daemon=True,
                                      name=f"fleet-client-{addr[1]}")
            thread.start()
            self._threads.append(thread)

    def _monitor_loop(self) -> None:
        tick = max(0.05, self.lease_timeout / 5.0)
        while not self._stopping.is_set():
            if self._stopping.wait(tick):
                return
            with self._lock:
                self._reclaim_expired_locked(_time.monotonic())

    def _serve_client(self, sock: socket.socket,
                      addr: Tuple[str, int]) -> None:
        """One connection's read loop.  Garbage in -> a best-effort
        ``error`` frame and a closed socket, never a coordinator
        crash; the dropped worker's leases are reclaimed."""
        worker: Optional[str] = None
        try:
            while True:
                message = recv_message(sock)
                if message is None or message["type"] == "bye":
                    return
                worker = self._dispatch(sock, message, worker)
        except ProtocolError as exc:
            _log.warning("fleet: dropping %s:%d (%s)", addr[0], addr[1], exc)
            try:
                send_message(sock, {"type": "error", "message": str(exc)})
            except OSError:
                pass
        except OSError:
            pass  # peer vanished mid-write; disconnect handling below
        except Exception:  # noqa: BLE001 - the no-crash contract
            # Hostile input must never take a serving thread down
            # silently; anything the dispatchers didn't classify is
            # logged and treated like a protocol violation.
            _log.exception("fleet: unexpected error serving %s:%d; "
                           "dropping the connection", addr[0], addr[1])
            try:
                send_message(sock, {"type": "error",
                                    "message": "internal coordinator error"})
            except OSError:
                pass
        finally:
            if worker is not None:
                self._on_disconnect(worker)
            with self._lock:
                if sock in self._clients:
                    self._clients.remove(sock)
            try:
                sock.close()
            except OSError:
                pass

    # -- message dispatch --------------------------------------------------

    def _dispatch(self, sock: socket.socket, message: Dict[str, Any],
                  worker: Optional[str]) -> Optional[str]:
        kind = message["type"]
        if kind == "status":
            send_message(sock, {"type": "status_reply",
                                "status": self.status()})
            return worker
        if kind == "hello":
            if worker is not None:
                # A second hello would register a phantom worker the
                # disconnect cleanup never removes.
                raise ProtocolError("repeated hello on one connection")
            return self._on_hello(sock, message)
        if worker is None:
            raise ProtocolError(f"{kind!r} before hello")
        with self._lock:
            info = self._worker_info.get(worker)
            if info is not None:
                info["last_seen"] = _time.monotonic()
        if kind == "request":
            self._on_request(sock, worker)
        elif kind == "record":
            self._on_record(worker, message)
        elif kind == "chunk_done":
            self._on_chunk_done(worker, message)
        elif kind == "chunk_error":
            self._on_chunk_error(worker, message)
        elif kind == "heartbeat":
            self._on_heartbeat(worker, message)
        else:
            raise ProtocolError(f"unknown message type {kind!r}")
        return worker

    #: Heartbeat metric snapshots retained per worker (newest last).
    METRICS_SERIES_CAP = 60

    def _on_heartbeat(self, worker: str, message: Dict[str, Any]) -> None:
        """Keep-alive, plus the optional telemetry payload.

        Workers since PR 9 attach progress counters (``stats``) and a
        metrics registry snapshot (``metrics``) to every beat; both
        fields are optional on the wire and type-guarded here — a
        hostile or stale peer degrades to a plain keep-alive.
        """
        self._touch_leases(worker)
        stats = message.get("stats")
        snap = message.get("metrics")
        with self._lock:
            info = self._worker_info.get(worker)
            if info is None:
                return
            if isinstance(stats, dict):
                progress = info.setdefault("worker_stats", {})
                for key in ("chunks", "records", "errors", "reconnects"):
                    value = stats.get(key)
                    if (isinstance(value, (int, float))
                            and not isinstance(value, bool)):
                        progress[key] = value
            if isinstance(snap, dict):
                info["metrics"] = snap
                series = info.setdefault("metrics_series", [])
                series.append(snap)
                del series[:-self.METRICS_SERIES_CAP]

    def _on_hello(self, sock: socket.socket,
                  message: Dict[str, Any]) -> str:
        if message.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: coordinator speaks "
                f"{PROTOCOL_VERSION}, worker sent "
                f"{message.get('protocol')!r}")
        requested = message.get("worker")
        if not isinstance(requested, str) or not requested:
            requested = "worker"
        with self._lock:
            if requested in self._quarantined:
                # A semantic rejection, not a connection hiccup: the
                # worker's reconnect loop treats it as fatal, which is
                # the point — a quarantined installation must not
                # cycle back in under backoff.
                raise ProtocolError(
                    f"worker {requested!r} is quarantined after repeated "
                    f"chunk errors; restart it under a new identity")
            # Uniquify on the SANITIZED shard name too: ids like
            # 'w:1' and 'w;1' differ raw but map to the same shard
            # directory, and two live workers must never share one
            # (concurrent appends would interleave records).
            taken_shards = {shard_store_name(name)
                            for name in self._connected}
            worker = requested
            suffix = 2
            while (worker in self._connected
                   or shard_store_name(worker) in taken_shards):
                worker = f"{requested}~{suffix}"
                suffix += 1
            self._connected.add(worker)
            reconnects = message.get("reconnects")
            if isinstance(reconnects, bool) or not isinstance(
                    reconnects, int):
                reconnects = 0
            self._worker_info[worker] = {
                "records": 0, "chunks_done": 0,
                "reconnects": reconnects,
                "last_seen": _time.monotonic(),
            }
            if worker not in self.stats.workers:
                self.stats.workers.append(worker)
        _log.info("fleet: worker %s joined", worker)
        send_message(sock, {"type": "welcome", "worker": worker,
                            "chunks": len(self._chunks),
                            "heartbeat": self.lease_timeout / 3.0})
        return worker

    def _on_request(self, sock: socket.socket, worker: str) -> None:
        now = _time.monotonic()
        with self._lock:
            self._reclaim_expired_locked(now)
            if self._queue:
                chunk_id = self._queue.popleft()
                state = self._chunks[chunk_id]
                state.status = _LEASED
                state.worker = worker
                state.deadline = now + self.lease_timeout
                state.attempts += 1
                self._worker_leases.setdefault(worker, set()).add(chunk_id)
                reply = {"type": "chunk", "chunk": chunk_id,
                         "specs": state.chunk.payloads}
            elif self._done.is_set():
                reply = {"type": "done"}
            else:
                reply = {"type": "wait", "seconds": _POLL_HINT}
        send_message(sock, reply)

    def _on_record(self, worker: str, message: Dict[str, Any]) -> None:
        record = message.get("record")
        if not isinstance(record, dict):
            raise ProtocolError("record message without a record object")
        try:
            key = (record["spec_hash"], record["seed"])
        except KeyError as exc:
            raise ProtocolError(f"record missing {exc}") from None
        if not isinstance(key[0], str) or not isinstance(key[1], int):
            raise ProtocolError("record key is not (str spec_hash, int seed)")
        if key not in self._valid_keys:
            # Not part of this sweep: a worker built against different
            # spec code (mismatched hashing) or a hostile peer.  Either
            # way it must not leak into the canonical store.
            raise ProtocolError(
                f"record key {key} is not in this sweep's work list")
        is_error = record_error(record) is not None
        with self._lock:
            self._touch_leases_locked(worker)
            if key in self._seen and not (self._seen[key] and not is_error):
                # Duplicate from a reclaimed-but-alive worker; a healthy
                # record is only re-admitted over a previous error one.
                self.stats.duplicates_dropped += 1
                return
            self._seen[key] = is_error
            shard = self._shards.get(worker)
            if shard is None:
                # Shards share the target store's format so the merge
                # can move whole segments instead of records.
                shard = ResultStore(
                    os.path.join(self.store.path, SHARDS_DIR,
                                 shard_store_name(worker)),
                    format=self.store.storage_format)
                self._shards[worker] = shard
        # The fsync-bearing append happens OUTSIDE the global lock: a
        # shard is written only by its own worker's connection thread,
        # and serializing every worker's disk flush behind one lock
        # would also stall the heartbeat/lease handling that shares it.
        try:
            shard.append(record, replace=key in shard)
        except Exception:
            with self._lock:
                # Release the claim so another worker can land the key
                # (unless someone already upgraded it meanwhile).
                if self._seen.get(key) == is_error:
                    del self._seen[key]
            raise
        with self._lock:
            self.stats.records_ingested += 1
            ingested = self.stats.records_ingested
            info = self._worker_info.get(worker)
            if info is not None:
                info["records"] += 1
        if 0 < self._selfkill_after <= ingested:
            # The record IS durable (the shard append fsync'd it);
            # everything volatile — lease table, dedup map, sockets —
            # dies right here.  Resume has to rebuild it all from the
            # plan plus the shards.
            _log.warning("fleet: coordinator self-kill test hook firing "
                         "after %d record(s)", ingested)
            os.kill(os.getpid(), signal.SIGKILL)

    def _chunk_state(self, message: Dict[str, Any],
                     kind: str) -> _ChunkState:
        """The chunk a message refers to — type-checked, because the
        id came off the wire and e.g. an unhashable list must read as
        a protocol violation, not a TypeError in the dict lookup."""
        chunk_id = message.get("chunk")
        if not isinstance(chunk_id, int):
            raise ProtocolError(
                f"{kind} with non-integer chunk id {chunk_id!r}")
        state = self._chunks.get(chunk_id)
        if state is None:
            raise ProtocolError(f"{kind} for unknown chunk {chunk_id!r}")
        return state

    def _on_chunk_done(self, worker: str, message: Dict[str, Any]) -> None:
        with self._lock:
            state = self._chunk_state(message, "chunk_done")
            # Only the current lease holder resolves the chunk: a
            # zombie finishing a stolen chunk is ignored (its records
            # were deduplicated on arrival anyway).
            if state.status == _LEASED and state.worker == worker:
                state.status = _DONE
                self._release_lease_locked(state)
                info = self._worker_info.get(worker)
                if info is not None:
                    info["chunks_done"] += 1
                self._check_complete_locked()

    def _on_chunk_error(self, worker: str, message: Dict[str, Any]) -> None:
        with self._lock:
            state = self._chunk_state(message, "chunk_error")
            if state.status == _LEASED and state.worker == worker:
                _log.warning("fleet: chunk %s failed on %s (%s)",
                             state.chunk.chunk_id, worker,
                             message.get("error"))
                self._requeue_locked(state)
                errors = self._worker_chunk_errors.get(worker, 0) + 1
                self._worker_chunk_errors[worker] = errors
                if errors >= self.quarantine_after:
                    self._quarantined.add(worker)
                    if worker not in self.stats.quarantined:
                        self.stats.quarantined.append(worker)
                    # Raising drops the connection with an ``error``
                    # frame; the worker's retry classifier reads that as
                    # semantic (not a network blip) and exits instead of
                    # reconnecting.
                    raise ProtocolError(
                        f"worker {worker!r} quarantined after {errors} "
                        f"chunk error(s); its leases are re-queued for "
                        f"healthier peers")

    # -- leases ------------------------------------------------------------

    def _touch_leases(self, worker: str) -> None:
        with self._lock:
            self._touch_leases_locked(worker)

    def _touch_leases_locked(self, worker: str) -> None:
        deadline = _time.monotonic() + self.lease_timeout
        for chunk_id in self._worker_leases.get(worker, ()):
            self._chunks[chunk_id].deadline = deadline

    def _release_lease_locked(self, state: _ChunkState) -> None:
        if state.worker is not None:
            self._worker_leases.get(state.worker, set()).discard(
                state.chunk.chunk_id)
        state.worker = None

    def _requeue_locked(self, state: _ChunkState) -> None:
        """Give a reclaimed/errored chunk another chance — or fail it
        for good once its attempts are spent."""
        self._release_lease_locked(state)
        if state.attempts >= self.max_chunk_attempts:
            state.status = _FAILED
            self.stats.failed_chunks += 1
            _log.error("fleet: chunk %d failed permanently after %d "
                       "attempt(s)", state.chunk.chunk_id, state.attempts)
            self._check_complete_locked()
        else:
            state.status = _PENDING
            self._queue.append(state.chunk.chunk_id)

    def _reclaim_expired_locked(self, now: float) -> None:
        for worker, chunk_ids in list(self._worker_leases.items()):
            for chunk_id in list(chunk_ids):
                state = self._chunks[chunk_id]
                if state.status == _LEASED and now > state.deadline:
                    _log.warning("fleet: lease on chunk %d (worker %s) "
                                 "expired; re-queueing", chunk_id, worker)
                    self.stats.reclaimed += 1
                    self._requeue_locked(state)

    def _on_disconnect(self, worker: str) -> None:
        with self._lock:
            self._connected.discard(worker)
            for chunk_id in list(self._worker_leases.get(worker, ())):
                state = self._chunks[chunk_id]
                if state.status == _LEASED:
                    _log.warning(
                        "fleet: worker %s disconnected holding chunk %d; "
                        "re-queueing", worker, chunk_id)
                    self.stats.reclaimed += 1
                    self._requeue_locked(state)

    def _check_complete_locked(self) -> None:
        if all(state.status in (_DONE, _FAILED)
               for state in self._chunks.values()):
            self._done.set()

    # -- observation & merge ----------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Snapshot for ``repro fleet status``."""
        with self._lock:
            by_status: Dict[str, int] = {}
            for state in self._chunks.values():
                by_status[state.status] = by_status.get(state.status, 0) + 1
            now = _time.monotonic()
            workers: Dict[str, Dict[str, Any]] = {}
            fleet_counters: Dict[str, float] = {}
            for name, info in self._worker_info.items():
                entry: Dict[str, Any] = {
                    "records": info["records"],
                    "chunks_done": info["chunks_done"],
                    "reconnects": info.get("reconnects", 0),
                    "connected": name in self._connected,
                    "idle_seconds": round(now - info["last_seen"], 3),
                }
                progress = info.get("worker_stats")
                if progress:
                    entry["worker_stats"] = dict(progress)
                    reconnects = progress.get("reconnects")
                    if isinstance(reconnects, (int, float)):
                        entry["reconnects"] = max(
                            entry["reconnects"], int(reconnects))
                snap = info.get("metrics")
                if snap is not None:
                    entry["metrics"] = snap
                    counters = snap.get("counters")
                    if isinstance(counters, dict):
                        for key, value in counters.items():
                            if isinstance(value, (int, float)):
                                fleet_counters[key] = (
                                    fleet_counters.get(key, 0) + value)
                entry["metrics_samples"] = len(
                    info.get("metrics_series", ()))
                workers[name] = entry
            return {
                "chunks": {"total": len(self._chunks), **by_status},
                "records_ingested": self.stats.records_ingested,
                "duplicates_dropped": self.stats.duplicates_dropped,
                "reclaimed": self.stats.reclaimed,
                "workers": workers,
                "fleet_metrics": {"counters": fleet_counters},
                "quarantined": sorted(self._quarantined),
                "resumed": self.stats.resumed,
                "done": self._done.is_set(),
            }

    def finish(self) -> FleetRunStats:
        """Merge the shard stores into the target store (canonical
        spec order, key dedup, healthy-beats-error) and write the run
        provenance.  Call after :meth:`wait`; returns the run stats."""
        shards_root = os.path.join(self.store.path, SHARDS_DIR)
        shard_paths = list_shards(shards_root)
        shards = [ResultStore(path, create=False) for path in shard_paths]
        # Keys whose record this merge appended — including error
        # records it superseded — are those whose index signature
        # changed.  (fingerprint, error) rather than the byte offset:
        # a columnar store legitimately moves resident rows to new
        # offsets when it seals its tail mid-merge, but never changes
        # what they claim.
        signature_before = {(e.spec_hash, e.seed): (e.fingerprint, e.error)
                            for e in self.store.iter_entries()}
        with span("fleet.merge", shards=len(shards)):
            self.stats.merged = self.store.merge_from(
                shards, order=self._order_keys, replace_errors=True)
        signature_after = {(e.spec_hash, e.seed): (e.fingerprint, e.error)
                           for e in self.store.iter_entries()}
        merged_keys = [key for key in self._order_keys
                       if key in signature_after
                       and signature_after[key] != signature_before.get(key)]
        self.stats.failed += sum(
            1 for key in merged_keys if self.store.has_error(key))
        # Columnar stores answer this from the verdict columns; JSONL
        # stores stream the merged records once, as before.
        self.stats.slo_failures += self.store.count_failing_slos(merged_keys)
        self.stats.unfinished = sum(
            1 for key in self._order_keys if key not in self.store)
        from repro import __version__

        self.store.record_provenance({
            "transport": "fleet",
            "workers": len(self.stats.workers),
            "worker_ids": list(self.stats.workers),
            "chunks": self.stats.chunks,
            "chunk_size": self.stats.chunk_size,
            "lease_timeout": self.lease_timeout,
            "reclaimed": self.stats.reclaimed,
            "merged": self.stats.merged,
            "merged_from": [os.path.basename(p) for p in shard_paths],
            "resumed": self.stats.resumed,
            "reingested_records": self.stats.reingested_records,
            "repro_version": __version__,
        })
        # The shards are merged, so there is nothing left to resume.
        self.store.update_metadata({PLAN_KEY: None})
        if os.path.isdir(shards_root):
            shutil.rmtree(shards_root, ignore_errors=True)
        # Mirror the run counters into the metrics registry (numeric
        # fields only; lists/flags are skipped by set_stats).
        metrics().set_stats("fleet.coordinator", self.stats.to_dict())
        return self.stats


def resume_coordinator(
    store_path: str,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_timeout: Optional[float] = None,
) -> FleetCoordinator:
    """Rebuild a coordinator for a crashed fleet run into ``store_path``.

    The plan the crashed run left in the store's metadata resurrects
    the exact chunk plan (ids and spec payloads — no generator flags to
    re-supply); what the crashed run already *completed* is then
    re-derived from disk:

    * every key in the target store or a surviving worker shard is
      seeded into the dedup map (healthy copies beating error copies,
      as at ingest), so re-leased workers returning those keys are
      deduplicated away;
    * a chunk whose keys are all covered is marked done without ever
      being leased — its shard-resident records are *re-ingested* by
      the final merge instead of re-run (``stats.reingested_*``);
    * everything else — never leased, or torn mid-chunk — is re-queued
      with a fresh attempt budget (``stats.requeued_lost``); the crash
      was the coordinator's fault, not the chunks'.

    The returned coordinator is not yet started; call :meth:`start`
    (which *keeps* the shards and the plan) and drive it exactly like a
    fresh one.
    """
    store = ResultStore(store_path, create=False)
    plan = store.metadata.get(PLAN_KEY)
    if not isinstance(plan, dict):
        raise ConfigurationError(
            f"store {store_path!r} holds no fleet plan, so there is no "
            f"crashed fleet run to resume: a completed run clears its "
            f"plan, and one that died before serving never wrote it; "
            f"re-run the sweep from its generator flags")
    chunks = [WorkChunk(chunk_id=int(entry["chunk"]),
                        payloads=list(entry["specs"]))
              for entry in plan.get("chunks", [])]
    payloads = [payload for chunk in chunks for payload in chunk.payloads]
    coordinator = FleetCoordinator(
        payloads,
        store,
        lease_timeout=float(lease_timeout
                            if lease_timeout is not None
                            else plan.get("lease_timeout", 30.0)),
        max_chunk_attempts=int(plan.get("max_chunk_attempts", 5)),
        host=host,
        port=port,
        chunks=chunks,
        resume=True,
    )
    # Coverage, from disk: the target store first, then every
    # surviving shard (the crashed run's fsync'd ingest).  Keys only
    # *shards* hold are the salvage — they will reach the target store
    # through the merge, not through a re-run.
    covered: Dict[Tuple[str, int], bool] = {
        (entry.spec_hash, entry.seed): bool(entry.error)
        for entry in store.iter_entries()}
    in_store = set(covered)
    shards_root = os.path.join(store.path, SHARDS_DIR)
    for shard_path in list_shards(shards_root):
        try:
            shard = ResultStore(shard_path, create=False, readonly=True)
        except Exception as exc:  # noqa: BLE001 - salvage is best-effort
            # A shard torn beyond its own recovery (e.g. a dying
            # column segment) forfeits only that shard's salvage; its
            # chunks simply re-run.
            _log.warning("fleet resume: skipping unreadable shard %s "
                         "(%s)", shard_path, exc)
            continue
        for entry in shard.iter_entries():
            key = (entry.spec_hash, entry.seed)
            is_error = bool(entry.error)
            if key not in covered or (covered[key] and not is_error):
                covered[key] = is_error
    stats = coordinator.stats
    stats.reingested_records = sum(
        1 for key in covered
        if key not in in_store and key in coordinator._valid_keys)
    with coordinator._lock:
        for key, is_error in covered.items():
            if key in coordinator._valid_keys:
                coordinator._seen[key] = is_error
        pending = []
        for chunk_id in sorted(coordinator._chunks):
            state = coordinator._chunks[chunk_id]
            keys = [(spec_hash(payload), payload.get("seed", 0))
                    for payload in state.chunk.payloads]
            if keys and all(key in covered for key in keys):
                state.status = _DONE
                if any(key not in in_store for key in keys):
                    stats.reingested_chunks += 1
            else:
                stats.requeued_lost += 1
                pending.append(chunk_id)
        coordinator._queue = deque(pending)
        coordinator._check_complete_locked()
    _log.info(
        "fleet resume: %d chunk(s) already covered (%d salvaged from "
        "shards, %d record(s) to re-ingest), %d re-queued",
        stats.chunks - stats.requeued_lost, stats.reingested_chunks,
        stats.reingested_records, stats.requeued_lost)
    return coordinator
