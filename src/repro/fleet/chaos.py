"""Deterministic network fault injection for the fleet protocol.

The invariant every fleet feature rests on — fleet store digest ==
single-box store digest, bit for bit — is only believable if it holds
while the network misbehaves.  This module makes the misbehavior
*reproducible*: a :class:`ChaosSchedule` is a seeded plan of faults
(abrupt disconnects, delayed and partially-delivered frames, garbage
bytes), and a :class:`ChaosSocket` applies that plan to a real
socket's sends, so a test or a CI job can say "seed 7 drops the third
frame mid-length-prefix" and get exactly that, every run.

Design constraints that keep the invariant *checkable*:

* Chaos is injected only on the **send** path.  Corrupting received
  bytes would require inventing data the peer never sent; killing the
  connection (which a send-side disconnect does) already exercises
  every receive-side failure the real world produces — EOF between
  frames, EOF mid-header, EOF mid-payload.
* Chaos can delay, tear, or destroy bytes — it can never *forge* a
  valid record.  Garbage either fails framing or JSON validation at
  the coordinator, which drops the connection; the lease/reclaim/dedup
  machinery then has to carry the run, which is the point.
* Every schedule has a finite fault budget (``max_faults``).  Once
  spent, the network is clean — so any run with reconnection and
  lease reclaim terminates, and the digest assertion is reachable for
  *every* seed, not just lucky ones.

``REPRO_FLEET_CHAOS_SEED`` (and optional ``REPRO_FLEET_CHAOS_FAULTS``,
``REPRO_FLEET_CHAOS_RATE``) in a worker's environment wraps its
coordinator connections in a schedule — how ``repro fleet join``
workers in the CI chaos job misbehave without code changes.
"""

from __future__ import annotations

import random
import socket
import time as _time
from typing import Any, List, Optional, Tuple

from repro.core.errors import ConfigurationError

#: Schedule actions, as (kind, argument) pairs:
#:   ("pass", None)        deliver the frame untouched
#:   ("delay", seconds)    deliver late, in one piece
#:   ("split", cut)        deliver in two writes with a pause between
#:   ("disconnect", cut)   deliver ``cut`` bytes, then close the socket
#:   ("garbage", nbytes)   send ``nbytes`` of seeded noise, then close
Action = Tuple[str, Optional[float]]

#: Only these spend the fault budget; delays and splits are benign
#: (any TCP stack does both uninvited) and may continue forever.
_BUDGETED = ("disconnect", "garbage")

_FAULT_KINDS = ("delay", "split", "disconnect", "garbage")


class ChaosSchedule:
    """A seeded, finite plan of send-path faults.

    One schedule serves one worker across all its reconnections (the
    RNG stream continues through a reconnect, so the whole session's
    fault sequence is a pure function of the seed).  It doubles as the
    worker's ``socket_wrapper``: calling it wraps a freshly-connected
    socket in a :class:`ChaosSocket` sharing this plan.

    ``actions`` replaces the RNG with an explicit script — how the
    protocol tests force "disconnect after 2 bytes of the length
    prefix" instead of waiting for a seed to roll it.
    """

    def __init__(self, seed: int = 0, fault_rate: float = 0.2,
                 max_faults: Optional[int] = 8,
                 delay_max: float = 0.02, garbage_max: int = 64,
                 actions: "Optional[List[Action]]" = None):
        if not 0.0 <= fault_rate <= 1.0:
            raise ConfigurationError(
                f"fault_rate must be in [0, 1], got {fault_rate}")
        self.seed = seed
        self.fault_rate = fault_rate
        self.max_faults = max_faults
        self.delay_max = delay_max
        self.garbage_max = garbage_max
        self._rng = random.Random(seed)
        self._scripted = list(actions) if actions is not None else None
        self.faults_injected = 0
        self.frames_seen = 0
        self.connections = 0

    def exhausted(self) -> bool:
        return (self.max_faults is not None
                and self.faults_injected >= self.max_faults)

    def next_action(self, nbytes: int) -> Action:
        """Decide the fate of one outgoing frame of ``nbytes``."""
        self.frames_seen += 1
        if self._scripted is not None:
            action = (self._scripted.pop(0) if self._scripted
                      else ("pass", None))
            if action[0] in _BUDGETED:
                self.faults_injected += 1
            return action
        if nbytes < 2 or self._rng.random() >= self.fault_rate:
            return ("pass", None)
        kind = self._rng.choice(_FAULT_KINDS)
        if kind in _BUDGETED and self.exhausted():
            return ("pass", None)
        if kind == "delay":
            return ("delay", self._rng.uniform(0.0, self.delay_max))
        if kind == "split":
            return ("split", self._rng.randrange(1, nbytes))
        self.faults_injected += 1
        if kind == "disconnect":
            # cut in [0, nbytes): 0..3 tears the length prefix itself,
            # anything later tears the payload.
            return ("disconnect", self._rng.randrange(0, nbytes))
        return ("garbage", self._rng.randrange(1, self.garbage_max + 1))

    def garbage(self, nbytes: int) -> bytes:
        return bytes(self._rng.randrange(256) for _ in range(int(nbytes)))

    def wrap(self, sock: socket.socket) -> "ChaosSocket":
        self.connections += 1
        return ChaosSocket(sock, self)

    #: A schedule *is* a worker ``socket_wrapper``.
    __call__ = wrap


class ChaosSocket:
    """A socket proxy whose ``sendall`` obeys a :class:`ChaosSchedule`.

    Receives, timeouts, and close pass straight through — the receive
    side sees chaos only as its natural consequence (a dead
    connection), never as fabricated bytes.  Sends are already
    serialized by the worker's send lock, so the schedule's RNG is
    touched by one thread at a time and the fault sequence stays
    deterministic.
    """

    def __init__(self, sock: socket.socket, schedule: ChaosSchedule):
        self._sock = sock
        self._schedule = schedule

    def sendall(self, data: bytes) -> None:
        kind, arg = self._schedule.next_action(len(data))
        if kind == "pass":
            self._sock.sendall(data)
        elif kind == "delay":
            _time.sleep(float(arg))
            self._sock.sendall(data)
        elif kind == "split":
            cut = int(arg)
            self._sock.sendall(data[:cut])
            _time.sleep(0.002)
            self._sock.sendall(data[cut:])
        elif kind == "disconnect":
            cut = int(arg)
            if cut:
                try:
                    self._sock.sendall(data[:cut])
                except OSError:
                    pass  # already dying; the close below is the point
            self._sock.close()
            raise ConnectionResetError(
                f"chaos: injected disconnect after {cut}/{len(data)} bytes")
        elif kind == "garbage":
            try:
                self._sock.sendall(self._schedule.garbage(int(arg)))
            except OSError:
                pass
            self._sock.close()
            raise ConnectionResetError(
                f"chaos: injected {int(arg)} garbage bytes, then hung up")
        else:  # pragma: no cover - schedule vocabulary is closed
            raise ConfigurationError(f"unknown chaos action {kind!r}")

    # Everything else is the real socket's business.
    def recv(self, *args: Any, **kwargs: Any) -> bytes:
        return self._sock.recv(*args, **kwargs)

    def settimeout(self, value: "Optional[float]") -> None:
        self._sock.settimeout(value)

    def close(self) -> None:
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)


def schedule_from_env(environ: Any) -> "Optional[ChaosSchedule]":
    """Build a schedule from ``REPRO_FLEET_CHAOS_*`` variables, or
    None when chaos is not requested — the hook ``worker_main`` uses
    so external (``repro fleet join``) workers can misbehave on cue."""
    raw_seed = environ.get("REPRO_FLEET_CHAOS_SEED")
    if raw_seed in (None, ""):
        return None
    return ChaosSchedule(
        seed=int(raw_seed),
        fault_rate=float(environ.get("REPRO_FLEET_CHAOS_RATE", "0.2")),
        max_faults=int(environ.get("REPRO_FLEET_CHAOS_FAULTS", "8")),
    )

