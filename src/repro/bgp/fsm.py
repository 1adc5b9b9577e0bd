"""The BGP session finite state machine (RFC 4271 §8, simplified).

States and the happy path::

    IDLE -> CONNECT -> OPEN_SENT -> OPEN_CONFIRM -> ESTABLISHED

The transport is the Connection Manager's reliable channel, so a
connect never fails and the RFC's Active state (listening after a
failed connect) has no place: "TCP comes up" is modelled as a
configurable connect delay.  An OPEN on an ESTABLISHED session is the
daemon's to answer (a NOTIFICATION and a teardown).  The FSM keeps
its current state and the time the current session became
ESTABLISHED, not a log of transitions.
"""

from __future__ import annotations

import enum
from typing import Optional


class BGPState(enum.Enum):
    """Session states."""

    IDLE = "idle"
    CONNECT = "connect"
    OPEN_SENT = "open_sent"
    OPEN_CONFIRM = "open_confirm"
    ESTABLISHED = "established"


class SessionFSM:
    """Per-peer session state."""

    def __init__(self, peer_name: str = ""):
        self.peer_name = peer_name
        self.state = BGPState.IDLE
        self.established_at: Optional[float] = None

    def _move(self, new_state: BGPState, event: str, now: float) -> None:
        """Every transition passes here; *event* names its cause."""
        self.state = new_state
        if new_state is BGPState.ESTABLISHED and self.established_at is None:
            self.established_at = now

    # -- events ----------------------------------------------------------------

    def start(self, now: float) -> None:
        """ManualStart: begin connecting."""
        if self.state is not BGPState.IDLE:
            return
        self._move(BGPState.CONNECT, "manual start", now)

    def transport_up(self, now: float) -> None:
        """The (modelled) TCP connection came up: send OPEN next."""
        if self.state is not BGPState.CONNECT:
            return
        self._move(BGPState.OPEN_SENT, "transport up", now)

    def open_received(self, now: float) -> None:
        """Peer's OPEN arrived."""
        if self.state is BGPState.OPEN_SENT:
            self._move(BGPState.OPEN_CONFIRM, "open received", now)
        elif self.state is BGPState.CONNECT:
            # Peer connected first (collision resolved trivially): we
            # are implicitly at OPEN_SENT because the daemon responds
            # with its own OPEN.
            self._move(BGPState.OPEN_CONFIRM, "open received (passive)", now)

    def keepalive_received(self, now: float) -> None:
        """Peer's KEEPALIVE arrived."""
        if self.state is BGPState.OPEN_CONFIRM:
            self._move(BGPState.ESTABLISHED, "keepalive received", now)
        # In ESTABLISHED a keepalive just refreshes the hold timer.

    def session_failed(self, now: float, reason: str = "error") -> None:
        """Hold-timer expiry, NOTIFICATION, or transport loss."""
        if self.state is BGPState.IDLE:
            return
        self._move(BGPState.IDLE, reason, now)
        self.established_at = None

    # -- queries ---------------------------------------------------------------

    @property
    def established(self) -> bool:
        """Whether the session is up."""
        return self.state is BGPState.ESTABLISHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SessionFSM {self.peer_name} {self.state.value}>"
