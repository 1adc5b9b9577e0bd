"""The simulation driver: one experiment timeline, two planes.

:class:`Simulation` owns the hybrid clock, the future event list, the
Connection Manager and the simulated network, and executes the run loop
sketched in §2 of the paper:

* in **DES mode** the clock jumps to the next event's timestamp;
* in **FTI mode** the clock walks forward in fixed increments, firing
  any events that fall inside each increment, optionally pacing against
  the wall clock;
* the Connection Manager flips the clock DES → FTI on control activity,
  and the loop lets the clock fall back FTI → DES after the quiet
  timeout.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.core.clock import ClockMode, ClockPolicy, HybridClock
from repro.core.config import SimulationConfig
from repro.core.connection_manager import ConnectionManager
from repro.core.errors import ConfigurationError, SimulationError
from repro.core.events import Event
from repro.core.queue import EventQueue
from repro.core.scheduler import Scheduler
from repro.obs.spans import span


_INF = float("inf")


@dataclass
class RunReport:
    """What a call to :meth:`Simulation.run` measured.

    The Figure 3 bench is built from ``wall_seconds`` of these reports.
    """

    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0
    events_fired: int = 0
    fti_ticks: int = 0
    des_jumps: int = 0
    mode_transitions: int = 0

    def summary(self) -> str:
        """One-line human-readable digest."""
        speedup = (
            self.simulated_seconds / self.wall_seconds
            if self.wall_seconds > 0
            else float("inf")
        )
        return (
            f"simulated {self.simulated_seconds:.3f}s in wall {self.wall_seconds:.3f}s "
            f"(x{speedup:.1f}), {self.events_fired} events, "
            f"{self.fti_ticks} FTI ticks, {self.des_jumps} DES jumps, "
            f"{self.mode_transitions} mode transitions"
        )


class Simulation:
    """A single Horse experiment: hybrid clock + CM + simulated network."""

    def __init__(self, config: "SimulationConfig | None" = None):
        self.config = config or SimulationConfig()
        self.config.validate()
        self.clock = HybridClock(
            fti_increment=self.config.fti_increment,
            des_fallback_timeout=self.config.des_fallback_timeout,
            policy=self.config.clock_policy,
        )
        self.queue = EventQueue()
        self.scheduler = Scheduler(self.clock, self.queue)
        self.cm = ConnectionManager(self)
        self.network = None
        self.processes: List[Any] = []
        self.events_fired = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    # -- wiring -------------------------------------------------------------

    def attach_network(self, network) -> None:
        """Bind the simulated data plane to this experiment."""
        self.network = network
        network.bind(self)

    def add_process(self, process) -> None:
        """Register an emulated control-plane process (daemon/controller).

        The process's ``start(sim)`` hook runs immediately; daemons use
        it to arm their initial timers and open channels.
        """
        self.processes.append(process)
        process.start(self)

    # -- run loop -------------------------------------------------------------

    def run(self, until: "float | None" = None) -> RunReport:
        """Advance the experiment to ``until`` (simulated seconds).

        With ``until=None`` the experiment runs until the event queue
        drains — only sensible when no periodic control-plane timers
        are armed.  Returns a :class:`RunReport` with wall-clock and
        engine counters.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until < self.clock.now:
            raise ConfigurationError(
                f"cannot run to t={until}; clock already at t={self.clock.now}"
            )
        if until is None and self.config.clock_policy is ClockPolicy.PURE_FTI:
            raise ConfigurationError("PURE_FTI runs need an explicit 'until'")

        self._running = True
        start_wall = _time.perf_counter()
        start_sim = self.clock.now
        start_events = self.events_fired
        start_ticks = self.clock.fti_ticks
        start_jumps = self.clock.des_jumps
        start_transitions = len(self.clock.transitions)
        try:
            self._loop(until)
        finally:
            self._running = False
            # Bring byte counters current: rates were steady since the
            # last event, so callers see accruals up to "now".
            if self.network is not None:
                self.network.accrue(self.clock.now)
        return RunReport(
            simulated_seconds=self.clock.now - start_sim,
            wall_seconds=_time.perf_counter() - start_wall,
            events_fired=self.events_fired - start_events,
            fti_ticks=self.clock.fti_ticks - start_ticks,
            des_jumps=self.clock.des_jumps - start_jumps,
            mode_transitions=len(self.clock.transitions) - start_transitions,
        )

    def _loop(self, until: "float | None") -> None:
        clock = self.clock
        queue = self.queue
        pacing = self.config.realtime_factor
        increment = clock.fti_increment
        timeout = clock.des_fallback_timeout
        hybrid = clock.policy is ClockPolicy.HYBRID
        horizon = _INF if until is None else until
        unbounded = until is None and not hybrid
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
                continue
            # FTI mode: one run of ticks.  While a tick is empty nothing
            # it reads can change -- the head of the queue, the last
            # control activity, the event count -- so the run walks on
            # locals and pays one float add per tick (the adds a
            # tick-by-tick walk makes; n * increment rounds differently).
            # It ends with the first tick that holds an event, the tick
            # at which the quiet timeout has elapsed, or the horizon.
            head = queue.peek()
            next_event = _INF if head is None else head.time
            quiet_since = clock.last_control_activity or 0.0
            now = clock.now
            first_tick = clock.fti_ticks
            with span("clock.fti_run") as run:
                while True:
                    boundary = now + increment
                    if boundary > horizon:
                        self._drain_until(until)
                        clock.advance_to(until)
                        ended_by = "horizon"
                        break
                    eventful = next_event <= boundary
                    if eventful:
                        self._drain_until(boundary)
                        quiet_since = clock.last_control_activity or 0.0
                    clock.now = now = boundary
                    clock.fti_ticks += 1
                    if pacing > 0:
                        _time.sleep(increment * pacing)
                    if (hybrid and now - quiet_since >= timeout
                            and clock.maybe_fall_back_to_des()):
                        ended_by = "fallback"
                        break
                    if unbounded and queue.peek() is None:
                        # Nothing left to happen, no quiet timer to wait
                        # for, no ``until``: the run is over.
                        ended_by = "horizon"
                        break
                    if eventful:
                        ended_by = "event"
                        break
                run.set(ticks=clock.fti_ticks - first_tick, ended_by=ended_by)
            if ended_by == "horizon":
                break

    def _drain_until(self, boundary: float) -> None:
        """Fire, in order, every event with time <= boundary."""
        queue = self.queue
        clock = self.clock
        budget = self.config.max_events
        while True:
            event = queue.peek()
            if event is None or event.time > boundary:
                return
            if budget and self.events_fired >= budget:
                self._check_event_budget()  # raises
            time = event.time
            if time > clock.now:
                clock.now = time
            elif time < clock.now - 1e-12:
                clock.advance_to(time)  # raises: the clock never runs backwards
            self.events_fired += 1
            queue.pop().fire(self)

    def _fire(self, event: "Event | None") -> None:
        if event is None:
            return
        self.events_fired += 1
        event.fire(self)

    def _check_event_budget(self) -> None:
        budget = self.config.max_events
        if budget and self.events_fired >= budget:
            raise SimulationError(
                f"event budget exhausted ({budget} events) — "
                "likely a runaway control-plane loop"
            )

    def step(self) -> bool:
        """Fire exactly one event (DES semantics); False when drained.

        Handy for debugging and fine-grained tests; the main loop is
        :meth:`run`.
        """
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        self._fire(event)
        return True

    # -- reporting -------------------------------------------------------------

    def mode_transition_log(self) -> List[str]:
        """Human-readable transition log (Figure 1 reproduction)."""
        return [str(t) for t in self.clock.transitions]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulation t={self.clock.now:.6f} mode={self.clock.mode.value} "
            f"events={self.events_fired} queue={len(self.queue)}>"
        )
