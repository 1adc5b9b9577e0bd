"""The tick-by-tick FTI walk as it stood before tick runs (PR 23), kept
as the test-only oracle of ``Simulation._loop``.

:class:`TickByTickSimulation` overrides the run loop and the drain with
the replaced code, verbatim: one ``fti_increment`` per pass, a
``_fire``/``_check_event_budget``/``advance_to`` call per event, the
fall-back test through ``HybridClock.maybe_fall_back_to_des`` after
every tick.  The shipped loop must agree with it bit for bit on
``clock.now``, ``fti_ticks``, ``des_jumps``, the transition log,
``time_in_modes()``, the firing order and the ``clock.now`` every event
saw (``test_fti_runs.py``).  Nothing under ``src/`` imports this module.

:func:`force_mode` lets that test's handlers switch the clock's mode
mid-run; no shipped policy does.
"""

from __future__ import annotations

import time as _time

from repro.core.clock import ClockMode, ClockPolicy, HybridClock
from repro.core.simulation import Simulation


def force_mode(clock: HybridClock, mode: ClockMode) -> None:
    """Switch ``clock`` to ``mode`` now, logging a transition if it changes."""
    if mode is not clock.mode:
        clock._switch(mode, clock.now, reason="test")


class TickByTickSimulation(Simulation):
    """``Simulation`` with the pre-PR-23 ``_loop`` and ``_drain_until``."""

    def _loop(self, until: "float | None") -> None:
        clock = self.clock
        queue = self.queue
        pacing = self.config.realtime_factor
        while True:
            self._check_event_budget()
            if clock.mode is ClockMode.DES:
                event = queue.peek()
                if event is None:
                    if until is not None:
                        clock.advance_to(until)
                    break
                if until is not None and event.time > until:
                    clock.advance_to(until)
                    break
                if event.time > clock.now:
                    clock.des_jumps += 1
                clock.advance_to(event.time)
                self._fire(queue.pop())
            else:  # FTI mode: walk one increment, firing events inside it
                boundary = clock.now + clock.fti_increment
                if until is not None and boundary > until:
                    self._drain_until(until)
                    clock.advance_to(until)
                    break
                self._drain_until(boundary)
                clock.advance_to(boundary)
                clock.fti_ticks += 1
                if pacing > 0:
                    _time.sleep(clock.fti_increment * pacing)
                fell_back = clock.maybe_fall_back_to_des()
                if not fell_back and queue.peek() is None:
                    # Nothing left to happen; in HYBRID the quiet timer
                    # will flip us to DES shortly, in PURE_FTI we keep
                    # ticking only when a horizon was given.
                    if until is None and clock.policy is not ClockPolicy.HYBRID:
                        break
                    if until is None and clock.policy is ClockPolicy.HYBRID:
                        continue  # tick until fallback, then DES breaks

    def _drain_until(self, boundary: float) -> None:
        """Fire, in order, every event with time <= boundary."""
        queue = self.queue
        clock = self.clock
        while True:
            event = queue.peek()
            if event is None or event.time > boundary:
                return
            self._check_event_budget()
            clock.advance_to(event.time)
            self._fire(queue.pop())
