"""The fleet worker: lease a chunk, run it, stream the records back.

A :class:`FleetWorker` is a pull-based client of the coordinator: it
connects (over loopback for the in-process/multiprocessing transports,
across the network for ``repro fleet join``), introduces itself, and
loops *request -> run -> records -> chunk_done* until the coordinator
says ``done``.  Scenario execution reuses the campaign's fault-
isolated entry point (:func:`run_scenario_dict_safe`) and record
builder (:func:`scenario_record`), so a record produced by a fleet
worker is byte-for-byte the record a single-box campaign would have
persisted for the same spec.

A dropped connection is not worker death: the session loop reconnects
with seeded exponential backoff + jitter and re-introduces itself
under the same *stable* worker identity (the requested id never
drifts, even when a session's assigned name was uniquified), and the
coordinator's ingest dedup makes the re-run of an interrupted chunk
harmless.  Only a semantic rejection — version mismatch, protocol
violation, quarantine — ends the worker immediately; those repeat
identically on retry.

A background heartbeat thread keeps the lease alive while a long
scenario runs (the interval comes from the coordinator's ``welcome``).
Each session owns its heartbeat thread and hands it the session's
socket explicitly: the thread is signalled and joined *before* the
socket closes, so it can never race a teardown or send on a successor
session's connection; inside the loop only ``OSError`` is swallowed
(the socket dying under a send is expected; anything else is a bug
that should surface).  Socket writes are serialized by a lock since
records and heartbeats share the connection.

Test hooks: ``REPRO_FLEET_SELFKILL_AFTER=<n>`` makes the worker
SIGKILL its own process after streaming ``n`` records — how the
reclaim tests simulate a machine dying mid-chunk without cooperation.
``REPRO_FLEET_CHAOS_SEED=<s>`` wraps every coordinator connection in a
seeded :class:`~repro.fleet.chaos.ChaosSchedule` so external workers
misbehave deterministically (see :mod:`repro.fleet.chaos`).
"""

from __future__ import annotations

import logging
import os
import random
import signal
import socket
import threading
import time as _time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.errors import SimulationError
from repro.fleet.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.obs.metrics import metrics
from repro.obs.spans import maybe_enable_from_env, span
from repro.scenarios.campaign import run_scenario_dict_safe, scenario_record

_log = logging.getLogger("repro.fleet")

_SELFKILL_ENV = "REPRO_FLEET_SELFKILL_AFTER"

#: Session failures worth retrying: the connection (or the
#: coordinator's process) died.  Plain ProtocolError is excluded on
#: purpose — a version mismatch or quarantine rejection repeats
#: identically, so retrying it only burns the backoff budget.
_RETRYABLE = (OSError, ConnectionClosed)

#: Scenario determinism rides process-global id counters that every
#: run resets (see ``ScenarioRunner``); two scenarios running
#: concurrently in ONE process would interleave allocations and
#: corrupt each other's results.  Workers therefore serialize
#: execution per process — a real cost only for the in-process
#: transport (several worker threads share this lock), which exists to
#: exercise coordination, not to parallelize CPU-bound scenario runs
#: the GIL would serialize anyway.
_EXECUTION_LOCK = threading.Lock()


@dataclass
class WorkerStats:
    """What one worker session did."""

    worker_id: str = ""
    chunks: int = 0
    records: int = 0
    errors: int = 0       # chunk-level failures reported back
    reconnects: int = 0   # sessions lost and re-established


class FleetWorker:
    """One worker against a coordinator, across as many TCP sessions
    as it takes."""

    def __init__(self, host: str, port: int,
                 worker_id: Optional[str] = None,
                 connect_timeout: float = 10.0,
                 reconnect_attempts: int = 5,
                 backoff_base: float = 0.1,
                 backoff_max: float = 5.0,
                 backoff_seed: Optional[int] = None,
                 socket_wrapper: "Optional[Callable[[Any], Any]]" = None):
        self.host = host
        self.port = port
        # The identity requested in every hello.  Stable across
        # reconnects — the coordinator frees the name on disconnect,
        # so an idempotent re-hello normally gets the same name (and
        # shard) back; if the old session lingers, uniquification
        # hands out a fresh shard and ingest dedup keeps both honest.
        self.requested_id = (worker_id
                            or f"{socket.gethostname()}-{os.getpid()}")
        #: The name the coordinator assigned in the latest session.
        self.worker_id = self.requested_id
        self.connect_timeout = connect_timeout
        self.reconnect_attempts = reconnect_attempts
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        # Seeded jitter: deterministic for tests, stable-per-worker by
        # default so a fleet of restarting workers doesn't thunder.
        if backoff_seed is None:
            backoff_seed = zlib.crc32(self.requested_id.encode("utf-8"))
        self._backoff_rng = random.Random(backoff_seed)
        #: Applied to every freshly-connected socket (chaos injection).
        self.socket_wrapper = socket_wrapper
        self._sock: Optional[Any] = None
        self._send_lock = threading.Lock()
        self._records_sent = 0
        self._selfkill_after = int(os.environ.get(_SELFKILL_ENV, "0") or 0)

    # -- plumbing ----------------------------------------------------------

    def _connect(self) -> Any:
        """Dial the coordinator, retrying until ``connect_timeout`` —
        ``repro fleet join`` often races ``fleet serve`` coming up."""
        deadline = _time.monotonic() + self.connect_timeout
        while True:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout)
                # The timeout bounds the CONNECT only; session recvs
                # block indefinitely (a busy coordinator may be slow
                # to answer, which must not read as worker death).
                sock.settimeout(None)
                if self.socket_wrapper is not None:
                    sock = self.socket_wrapper(sock)
                return sock
            except OSError:
                if _time.monotonic() >= deadline:
                    raise
                _time.sleep(0.1)

    def _send(self, message: Dict[str, Any]) -> None:
        assert self._sock is not None
        with self._send_lock:
            send_message(self._sock, message)

    def _recv(self) -> Dict[str, Any]:
        assert self._sock is not None
        message = recv_message(self._sock)
        if message is None:
            raise ConnectionClosed("coordinator closed the connection")
        if message["type"] == "error":
            raise ProtocolError(
                f"coordinator rejected us: {message.get('message')}")
        return message

    def _start_heartbeat(
            self, sock: Any, interval: float,
            stats: WorkerStats) -> "Tuple[threading.Event, threading.Thread]":
        """One session's keep-alive thread.  The socket is captured
        here, not read off ``self``, so a reconnect can never hand the
        old thread a new session's connection.

        Each beat carries the worker's progress counters plus a metrics
        registry snapshot, so the coordinator can expose live per-worker
        telemetry (``repro fleet status --json``).  Both fields are
        optional on the wire — an old coordinator ignores them.
        """
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(interval):
                beat = {
                    "type": "heartbeat",
                    "stats": {
                        "chunks": stats.chunks,
                        "records": self._records_sent,
                        "errors": stats.errors,
                        "reconnects": stats.reconnects,
                    },
                    "metrics": metrics().snapshot(),
                }
                try:
                    with self._send_lock:
                        send_message(sock, beat)
                except OSError:
                    return  # the session died; its reader will notice

        thread = threading.Thread(
            target=loop, daemon=True,
            name=f"fleet-heartbeat-{self.worker_id}")
        thread.start()
        return stop, thread

    def _backoff_delay(self, failure: int) -> float:
        """Exponential backoff with jitter in [0.5x, 1x] of the cap —
        never zero, so a dead coordinator isn't hammered."""
        cap = min(self.backoff_max,
                  self.backoff_base * (2 ** max(0, failure - 1)))
        return cap * (0.5 + 0.5 * self._backoff_rng.random())

    # -- the work ----------------------------------------------------------

    def _run_payload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One spec dict -> the exact record a single-box
        ``Campaign.run(store=...)`` would append for it."""
        with _EXECUTION_LOCK:
            raw = run_scenario_dict_safe(payload)
        return scenario_record(payload, raw)

    def _run_chunk(self, chunk_id: int, specs: Any) -> None:
        if not isinstance(specs, list):
            raise ProtocolError("chunk message without a spec list")
        with span("fleet.chunk", chunk=chunk_id, specs=len(specs)):
            for payload in specs:
                record = self._run_payload(payload)
                self._send({"type": "record", "chunk": chunk_id,
                            "record": record})
                self._records_sent += 1
                metrics().counter("fleet.worker.records").inc()
                if 0 < self._selfkill_after <= self._records_sent:
                    _log.warning(
                        "fleet worker %s: self-kill test hook firing",
                        self.worker_id)
                    os.kill(os.getpid(), signal.SIGKILL)
            self._send({"type": "chunk_done", "chunk": chunk_id})
        metrics().counter("fleet.worker.chunks").inc()

    def _session(self, stats: WorkerStats) -> WorkerStats:
        """One connection's lifetime: hello, then the request loop
        until ``done``.  Raises a :data:`_RETRYABLE` error if the
        connection dies; ``run`` decides whether to come back."""
        self._sock = self._connect()
        heartbeat_stop: Optional[threading.Event] = None
        heartbeat: Optional[threading.Thread] = None
        try:
            self._send({"type": "hello", "worker": self.requested_id,
                        "protocol": PROTOCOL_VERSION,
                        "reconnects": stats.reconnects})
            welcome = self._recv()
            if welcome["type"] != "welcome":
                raise ProtocolError(
                    f"expected welcome, got {welcome['type']!r}")
            # The coordinator may have uniquified our name for this
            # session; the *requested* identity stays what it was.
            self.worker_id = welcome.get("worker", self.requested_id)
            stats.worker_id = self.worker_id
            interval = float(welcome.get("heartbeat", 5.0))
            heartbeat_stop, heartbeat = self._start_heartbeat(
                self._sock, max(0.05, interval), stats)
            while True:
                self._send({"type": "request"})
                reply = self._recv()
                kind = reply["type"]
                if kind == "done":
                    self._send({"type": "bye"})
                    stats.records = self._records_sent
                    return stats
                if kind == "wait":
                    _time.sleep(float(reply.get("seconds", 0.2)))
                    continue
                if kind != "chunk":
                    raise ProtocolError(
                        f"expected chunk/wait/done, got {kind!r}")
                chunk_id = reply.get("chunk")
                try:
                    self._run_chunk(chunk_id, reply.get("specs"))
                    stats.chunks += 1
                except (OSError, ProtocolError):
                    raise  # connection-level: nothing useful to report
                except Exception as exc:  # noqa: BLE001 - report, move on
                    # Infrastructure failure outside per-scenario fault
                    # isolation (record assembly, serialization); hand
                    # the chunk back for a retry elsewhere.
                    stats.errors += 1
                    self._send({"type": "chunk_error", "chunk": chunk_id,
                                "error": f"{type(exc).__name__}: {exc}"})
        finally:
            # Heartbeat first, socket second: the thread is joined
            # before the close, so it cannot send on a dead fd.
            if heartbeat_stop is not None:
                heartbeat_stop.set()
            if heartbeat is not None:
                heartbeat.join(timeout=2.0)
            sock, self._sock = self._sock, None
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass

    def run(self) -> WorkerStats:
        """Serve until the coordinator runs out of work, reconnecting
        through up to ``reconnect_attempts`` dropped sessions."""
        stats = WorkerStats(worker_id=self.requested_id)
        failures = 0
        while True:
            try:
                return self._session(stats)
            except _RETRYABLE as exc:
                failures += 1
                stats.reconnects = failures
                if failures > self.reconnect_attempts:
                    _log.error(
                        "fleet worker %s: giving up after %d lost "
                        "session(s): %s", self.requested_id, failures, exc)
                    raise
                delay = self._backoff_delay(failures)
                _log.warning(
                    "fleet worker %s: session lost (%s); reconnect "
                    "%d/%d in %.2fs", self.requested_id, exc, failures,
                    self.reconnect_attempts, delay)
                _time.sleep(delay)


def worker_main(host: str, port: int,
                worker_id: Optional[str] = None,
                connect_timeout: float = 10.0,
                reconnect_attempts: int = 5,
                backoff_base: float = 0.1,
                backoff_max: float = 5.0,
                backoff_seed: Optional[int] = None,
                socket_wrapper: "Optional[Callable[[Any], Any]]" = None,
                ) -> int:
    """Process/thread entry point (module-level so it pickles into
    ``multiprocessing`` children); returns an exit code."""
    maybe_enable_from_env()
    if socket_wrapper is None:
        from repro.fleet.chaos import schedule_from_env

        socket_wrapper = schedule_from_env(os.environ)
    try:
        stats = FleetWorker(host, port, worker_id=worker_id,
                            connect_timeout=connect_timeout,
                            reconnect_attempts=reconnect_attempts,
                            backoff_base=backoff_base,
                            backoff_max=backoff_max,
                            backoff_seed=backoff_seed,
                            socket_wrapper=socket_wrapper).run()
    except (OSError, SimulationError) as exc:
        _log.error("fleet worker failed: %s", exc)
        return 1
    _log.info("fleet worker %s finished: %d chunk(s), %d record(s), "
              "%d reconnect(s)",
              stats.worker_id, stats.chunks, stats.records,
              stats.reconnects)
    return 0
