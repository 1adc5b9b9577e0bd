"""Scheduling facade over the event queue and clock.

Components never touch the heap directly: they ask the scheduler to run
a callback at/after a given time, to deliver control bytes, or to set up
periodic timers (statistics sampling, Hedera's 5-second polls, BGP
keepalives...).

A scheduled action is one :class:`~repro.core.events.CallbackEvent`
holding its callable and operands: ``at(t, fn, a, b)`` runs ``fn(a, b)``
at ``t``.  Callers pass a module-level function and the objects it acts
on rather than a fresh closure, so an action allocates no function,
cell or bound method (``docs/control_plane.md``, "What a scheduled
action costs").
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.clock import HybridClock
from repro.core.errors import SchedulingError
from repro.core.events import (
    CallbackEvent,
    Event,
    PRIORITY_CONTROL,
    PRIORITY_DEFAULT,
)
from repro.core.queue import EventQueue


class Scheduler:
    """Schedules events against a shared clock and queue."""

    def __init__(self, clock: HybridClock, queue: EventQueue):
        self.clock = clock
        self.queue = queue

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    def at(
        self,
        time: float,
        callback: Callable[..., Any],
        *operands: Any,
        priority: int = PRIORITY_DEFAULT,
        label: str = "",
    ) -> CallbackEvent:
        """Run ``callback(*operands)`` at absolute simulated time ``time``."""
        now = self.clock.now
        if time < now - 1e-12:
            raise SchedulingError(
                f"cannot schedule at t={time}; clock already at t={now}"
            )
        return self.queue.push(CallbackEvent(
            max(time, now), callback, operands, priority, label))

    def after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *operands: Any,
        priority: int = PRIORITY_DEFAULT,
        label: str = "",
    ) -> CallbackEvent:
        """Run ``callback(*operands)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        return self.queue.push(CallbackEvent(
            self.clock.now + delay, callback, operands, priority, label))

    def push(self, event: Event) -> Event:
        """Insert a pre-built event (validated against the clock)."""
        self.queue.validate_not_past(event, self.clock.now)
        return self.queue.push(event)

    def periodic(
        self,
        interval: float,
        callback: Callable[..., Any],
        *operands: Any,
        start_after: "float | None" = None,
        priority: int = PRIORITY_DEFAULT,
        label: str = "",
    ) -> "PeriodicTimer":
        """Run ``callback(*operands)`` every ``interval`` simulated seconds.

        Returns a :class:`PeriodicTimer` handle that can be stopped.
        """
        timer = PeriodicTimer(self, interval, callback, operands,
                              priority=priority, label=label)
        first_delay = interval if start_after is None else start_after
        timer.start(first_delay)
        return timer


class PeriodicTimer:
    """A repeating timer built on top of one-shot events.

    Used for statistics sampling, controller polling (Hedera's 5 s
    stats requests) and protocol keepalives.  Stopping the timer
    cancels the in-flight event, so no stale callback fires.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        interval: float,
        callback: Callable[..., Any],
        operands: tuple = (),
        priority: int = PRIORITY_DEFAULT,
        label: str = "",
    ):
        if interval <= 0:
            raise SchedulingError(f"periodic interval must be positive: {interval}")
        self.scheduler = scheduler
        self.interval = float(interval)
        self.callback = callback
        self.operands = operands
        self.priority = priority
        self.label = label
        self.fired_count = 0
        self._pending: Optional[CallbackEvent] = None
        self._stopped = False

    def start(self, first_delay: "float | None" = None) -> None:
        """(Re)arm the timer; ``first_delay`` defaults to the interval."""
        self._stopped = False
        delay = self.interval if first_delay is None else first_delay
        self._schedule(delay)

    def stop(self) -> None:
        """Stop the timer and cancel any in-flight event."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    @property
    def running(self) -> bool:
        """Whether the timer will fire again."""
        return not self._stopped

    def _schedule(self, delay: float) -> None:
        self._pending = self.scheduler.after(
            delay, self._fire, priority=self.priority, label=self.label
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fired_count += 1
        self.callback(*self.operands)
        if not self._stopped:
            self._schedule(self.interval)
