"""The hybrid FTI/DES experiment clock — the paper's key mechanism.

Horse's premise (paper §2): while the emulated control plane is active
the experiment must advance like real time, in small *Fixed Time
Increments* (FTI), so that daemons' timers, round trips and message
interleavings stay realistic.  When the control plane has been quiet
for a user-defined timeout, the experiment falls back to plain
*Discrete Event Simulation* (DES) and the clock jumps straight to the
next event — this is where the speed-up over emulation comes from.

The clock records every mode transition, which is what the Figure 1
reproduction test asserts on: DES → FTI when the BGP session activity
starts, FTI persisting through the update exchange, FTI → DES after
convergence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.core.errors import ConfigurationError


class ClockMode(enum.Enum):
    """The two execution modes of the hybrid clock."""

    DES = "des"
    FTI = "fti"


class ClockPolicy(enum.Enum):
    """How the clock is allowed to move between modes.

    ``HYBRID`` is Horse's behaviour.  The pure policies exist for the
    ablation benches: ``PURE_FTI`` models an emulator that always runs
    in (near) real time, ``PURE_DES`` models a classic simulator that
    ignores control-plane realism.
    """

    HYBRID = "hybrid"
    PURE_DES = "pure_des"
    PURE_FTI = "pure_fti"


@dataclass(frozen=True)
class ModeTransition:
    """A recorded switch between execution modes."""

    time: float
    from_mode: ClockMode
    to_mode: ClockMode
    reason: str

    def __str__(self) -> str:
        return (
            f"t={self.time:.6f}s {self.from_mode.value.upper()} -> "
            f"{self.to_mode.value.upper()} ({self.reason})"
        )


class HybridClock:
    """Tracks experiment time, execution mode and mode transitions.

    Parameters
    ----------
    fti_increment:
        Size of one FTI step in simulated seconds (paper: "increasing
        the experiment time in small fixed intervals").  Default 1 ms.
    des_fallback_timeout:
        How long the control plane must stay quiet, in simulated
        seconds, before the clock returns to DES mode (paper: "after a
        user-defined timeout without control plane events").
    policy:
        Mode-switching policy; see :class:`ClockPolicy`.
    """

    def __init__(
        self,
        fti_increment: float = 0.001,
        des_fallback_timeout: float = 0.1,
        policy: ClockPolicy = ClockPolicy.HYBRID,
    ):
        if fti_increment <= 0:
            raise ConfigurationError("fti_increment must be positive")
        if des_fallback_timeout < 0:
            raise ConfigurationError("des_fallback_timeout must be non-negative")
        self.fti_increment = float(fti_increment)
        self.des_fallback_timeout = float(des_fallback_timeout)
        self.policy = policy
        self.now = 0.0
        self._mode = ClockMode.FTI if policy is ClockPolicy.PURE_FTI else ClockMode.DES
        self._last_control_activity: Optional[float] = None
        self.transitions: List[ModeTransition] = []
        self.fti_ticks = 0
        self.des_jumps = 0

    @property
    def mode(self) -> ClockMode:
        """The current execution mode."""
        return self._mode

    @property
    def last_control_activity(self) -> Optional[float]:
        """Simulated time of the most recent control-plane event seen."""
        return self._last_control_activity

    def notify_control_activity(self, time: "float | None" = None) -> None:
        """Record control-plane activity; switches DES → FTI if hybrid.

        The Connection Manager calls this whenever control-plane bytes
        are sent or delivered — the "New Event" arrow of Figure 2.
        """
        when = self.now if time is None else max(time, self.now)
        if self._last_control_activity is None or when > self._last_control_activity:
            self._last_control_activity = when
        if self.policy is ClockPolicy.PURE_DES:
            return
        if self._mode is ClockMode.DES:
            self._switch(ClockMode.FTI, when, reason="control-plane activity")

    def maybe_fall_back_to_des(self) -> bool:
        """Return to DES mode when the quiet timeout has elapsed.

        Called by the simulation loop after each FTI step.  Returns
        True when a transition happened.
        """
        if self.policy is not ClockPolicy.HYBRID:
            return False
        if self._mode is not ClockMode.FTI:
            return False
        if self._last_control_activity is None:
            quiet_for = self.now
        else:
            quiet_for = self.now - self._last_control_activity
        if quiet_for >= self.des_fallback_timeout:
            self._switch(
                ClockMode.DES,
                self.now,
                reason=f"control plane quiet for {quiet_for:.6f}s",
            )
            return True
        return False

    def advance_to(self, time: float) -> None:
        """DES jump: set the clock to the time of the executing event."""
        if time < self.now - 1e-12:
            raise ConfigurationError(
                f"clock cannot move backwards: now={self.now}, target={time}"
            )
        self.now = max(self.now, time)

    def _switch(self, mode: ClockMode, time: float, reason: str) -> None:
        self.transitions.append(
            ModeTransition(time=time, from_mode=self._mode, to_mode=mode, reason=reason)
        )
        self._mode = mode

    # -- introspection helpers -------------------------------------------

    def time_in_modes(self, end_time: "float | None" = None) -> dict:
        """Simulated seconds spent in each mode, from the transition log."""
        end = self.now if end_time is None else end_time
        spent = {ClockMode.DES: 0.0, ClockMode.FTI: 0.0}
        prev_time = 0.0
        prev_mode = (
            ClockMode.FTI if self.policy is ClockPolicy.PURE_FTI else ClockMode.DES
        )
        for transition in self.transitions:
            spent[prev_mode] += max(0.0, transition.time - prev_time)
            prev_time, prev_mode = transition.time, transition.to_mode
        spent[prev_mode] += max(0.0, end - prev_time)
        return {mode.value: seconds for mode, seconds in spent.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HybridClock t={self.now:.6f} mode={self._mode.value} "
            f"policy={self.policy.value} transitions={len(self.transitions)}>"
        )
