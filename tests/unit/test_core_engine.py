"""Unit tests: events, queue, clock, scheduler, simulation loop."""

import pytest

from repro.core.clock import ClockMode, ClockPolicy, HybridClock
from repro.core.config import SimulationConfig
from repro.core.errors import (
    ConfigurationError,
    SchedulingError,
    SimulationError,
)
from repro.core.events import (
    CallbackEvent,
    Event,
    PRIORITY_CONTROL,
    PRIORITY_DEFAULT,
    PRIORITY_STATS,
)
from repro.core.queue import EventQueue
from repro.core.simulation import Simulation


class TestEventOrdering:
    """``sort_key`` is the order; ``seq`` comes from the queue."""

    def test_time_orders_first(self):
        queue = EventQueue()
        late = queue.push(CallbackEvent(2.0, lambda: None))
        early = queue.push(CallbackEvent(1.0, lambda: None))
        assert early.sort_key() < late.sort_key()

    def test_priority_breaks_time_ties(self):
        queue = EventQueue()
        stats = queue.push(
            CallbackEvent(1.0, lambda: None, priority=PRIORITY_STATS))
        control = queue.push(
            CallbackEvent(1.0, lambda: None, priority=PRIORITY_CONTROL))
        assert control.sort_key() < stats.sort_key()

    def test_seq_breaks_full_ties(self):
        queue = EventQueue()
        first = queue.push(CallbackEvent(1.0, lambda: None))
        second = queue.push(CallbackEvent(1.0, lambda: None))
        assert first.sort_key() < second.sort_key()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            CallbackEvent(-1.0, lambda: None)


class TestEventQueue:
    def test_pop_in_order(self):
        queue = EventQueue()
        events = [CallbackEvent(t, lambda: None) for t in (3.0, 1.0, 2.0)]
        for event in events:
            queue.push(event)
        times = [queue.pop().time for __ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(CallbackEvent(1.0, lambda: None))
        assert queue.peek() is queue.peek()
        assert len(queue) == 1

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        keep = queue.push(CallbackEvent(2.0, lambda: None))
        cancel = queue.push(CallbackEvent(1.0, lambda: None))
        cancel.cancel()
        assert queue.pop() is keep

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        cancel = queue.push(CallbackEvent(1.0, lambda: None))
        keep = queue.push(CallbackEvent(2.0, lambda: None))
        cancel.cancel()
        assert queue.peek() is keep

    def test_len_counts_live_only(self):
        queue = EventQueue()
        queue.push(CallbackEvent(1.0, lambda: None))
        dead = queue.push(CallbackEvent(2.0, lambda: None))
        dead.cancel()
        assert len(queue) == 1

    def test_bool(self):
        queue = EventQueue()
        assert not queue
        queue.push(CallbackEvent(1.0, lambda: None))
        assert queue

    def test_len_is_exact_through_churn(self):
        """len() stays exact through push/pop/cancel."""
        queue = EventQueue()
        events = [queue.push(CallbackEvent(float(t), lambda: None))
                  for t in range(20)]
        assert len(queue) == 20
        for event in events[::2]:
            event.cancel()
        assert len(queue) == 10
        for __ in range(4):
            queue.pop()
        assert len(queue) == 6
        events[1].cancel()  # double-cancel of a popped-or-live event
        events[1].cancel()
        assert len(queue) <= 6
        queue.clear()
        assert len(queue) == 0
        assert not queue

    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        first = queue.push(CallbackEvent(1.0, lambda: None))
        queue.push(CallbackEvent(2.0, lambda: None))
        assert queue.pop() is first
        first.cancel()  # stale cancel handle (PeriodicTimer.stop pattern)
        assert len(queue) == 1

    def test_iter_sorted(self):
        queue = EventQueue()
        for t in (3.0, 1.0, 2.0):
            queue.push(CallbackEvent(t, lambda: None))
        assert [e.time for e in queue] == [1.0, 2.0, 3.0]

    def test_validate_not_past(self):
        queue = EventQueue()
        event = CallbackEvent(1.0, lambda: None)
        with pytest.raises(SchedulingError):
            queue.validate_not_past(event, now=2.0)

    def test_seq_is_per_queue(self):
        """Each queue numbers its events from zero, so traces do not
        depend on how many simulations ran earlier in the process."""
        first_queue = EventQueue()
        for t in (1.0, 2.0, 3.0):
            first_queue.push(CallbackEvent(t, lambda: None))
        second_queue = EventQueue()
        event = second_queue.push(CallbackEvent(1.0, lambda: None))
        assert event.seq == 0
        assert [first_queue.pop().seq for __ in range(3)] == [0, 1, 2]


class TestHybridClock:
    def test_starts_in_des_for_hybrid(self):
        assert HybridClock().mode is ClockMode.DES

    def test_starts_in_fti_for_pure_fti(self):
        clock = HybridClock(policy=ClockPolicy.PURE_FTI)
        assert clock.mode is ClockMode.FTI

    def test_control_activity_enters_fti(self):
        clock = HybridClock()
        clock.notify_control_activity()
        assert clock.mode is ClockMode.FTI
        assert len(clock.transitions) == 1

    def test_pure_des_never_enters_fti(self):
        clock = HybridClock(policy=ClockPolicy.PURE_DES)
        clock.notify_control_activity()
        assert clock.mode is ClockMode.DES
        assert clock.transitions == []

    def test_falls_back_after_quiet_timeout(self):
        clock = HybridClock(des_fallback_timeout=0.1)
        clock.notify_control_activity()
        clock.advance_to(0.05)
        assert not clock.maybe_fall_back_to_des()
        clock.advance_to(0.11)
        assert clock.maybe_fall_back_to_des()
        assert clock.mode is ClockMode.DES

    def test_activity_refreshes_quiet_timer(self):
        clock = HybridClock(des_fallback_timeout=0.1)
        clock.notify_control_activity()
        clock.advance_to(0.09)
        clock.notify_control_activity()
        clock.advance_to(0.15)
        assert not clock.maybe_fall_back_to_des()

    def test_pure_fti_never_falls_back(self):
        clock = HybridClock(policy=ClockPolicy.PURE_FTI, des_fallback_timeout=0.1)
        clock.advance_to(10.0)
        assert not clock.maybe_fall_back_to_des()

    def test_cannot_move_backwards(self):
        clock = HybridClock()
        clock.advance_to(5.0)
        with pytest.raises(ConfigurationError):
            clock.advance_to(4.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            HybridClock(fti_increment=0)
        with pytest.raises(ConfigurationError):
            HybridClock(des_fallback_timeout=-1)

    def test_transition_log_alternates(self):
        clock = HybridClock(des_fallback_timeout=0.1)
        for round_no in range(3):
            clock.notify_control_activity()
            clock.advance_to(clock.now + 0.2)
            clock.maybe_fall_back_to_des()
        modes = [t.to_mode for t in clock.transitions]
        assert modes == [
            ClockMode.FTI, ClockMode.DES,
            ClockMode.FTI, ClockMode.DES,
            ClockMode.FTI, ClockMode.DES,
        ]

    def test_time_in_modes_sums_to_now(self):
        clock = HybridClock(des_fallback_timeout=0.1)
        clock.notify_control_activity()
        clock.advance_to(0.5)
        clock.maybe_fall_back_to_des()
        clock.advance_to(2.0)
        spent = clock.time_in_modes()
        assert spent["des"] + spent["fti"] == pytest.approx(2.0)


class TestScheduler:
    def test_after_runs_in_order(self):
        sim = Simulation()
        fired = []
        sim.scheduler.after(0.2, lambda: fired.append("b"))
        sim.scheduler.after(0.1, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"]

    def test_at_rejects_past(self):
        sim = Simulation()
        sim.clock.advance_to(1.0)
        with pytest.raises(SchedulingError):
            sim.scheduler.at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(SchedulingError):
            sim.scheduler.after(-0.1, lambda: None)

    def test_periodic_fires_repeatedly(self):
        sim = Simulation()
        fired = []
        timer = sim.scheduler.periodic(1.0, lambda: fired.append(sim.now))
        sim.run(until=5.5)
        assert fired == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0])
        assert timer.fired_count == 5

    def test_periodic_stop(self):
        sim = Simulation()
        fired = []
        timer = sim.scheduler.periodic(1.0, lambda: fired.append(sim.now))
        sim.scheduler.at(2.5, timer.stop)
        sim.run(until=10.0)
        assert fired == pytest.approx([1.0, 2.0])
        assert not timer.running

    def test_periodic_custom_start(self):
        sim = Simulation()
        fired = []
        sim.scheduler.periodic(1.0, lambda: fired.append(sim.now), start_after=0.25)
        sim.run(until=2.5)
        assert fired == pytest.approx([0.25, 1.25, 2.25])

    def test_periodic_rejects_bad_interval(self):
        sim = Simulation()
        with pytest.raises(SchedulingError):
            sim.scheduler.periodic(0.0, lambda: None)


class TestSimulationLoop:
    def test_des_jumps_over_gaps(self):
        sim = Simulation()
        sim.scheduler.at(100.0, lambda: None)
        report = sim.run()
        assert sim.now == 100.0
        assert report.des_jumps >= 1
        assert report.fti_ticks == 0

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulation()
        report = sim.run(until=5.0)
        assert sim.now == 5.0
        assert report.events_fired == 0

    def test_control_activity_switches_to_fti(self):
        sim = Simulation()
        sim.scheduler.at(1.0, lambda: sim.clock.notify_control_activity())
        sim.run(until=2.0)
        # entered FTI at 1.0, fell back at 1.0 + timeout (+ tick rounding)
        assert len(sim.clock.transitions) == 2
        assert sim.clock.transitions[0].to_mode is ClockMode.FTI
        assert sim.clock.transitions[1].to_mode is ClockMode.DES
        fall_back = sim.clock.transitions[1].time
        assert fall_back == pytest.approx(1.0 + sim.config.des_fallback_timeout,
                                          abs=2 * sim.config.fti_increment)

    def test_fti_fires_events_inside_increment(self):
        sim = Simulation(SimulationConfig(fti_increment=0.01))
        fired = []
        sim.scheduler.at(0.0, lambda: sim.clock.notify_control_activity())
        sim.scheduler.at(0.005, lambda: fired.append(sim.now))
        sim.run(until=0.2)
        assert fired == [0.005]

    def test_pure_fti_requires_until(self):
        sim = Simulation(SimulationConfig(clock_policy=ClockPolicy.PURE_FTI))
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_pure_fti_tick_count(self):
        sim = Simulation(SimulationConfig(
            clock_policy=ClockPolicy.PURE_FTI, fti_increment=0.1))
        report = sim.run(until=1.0)
        assert report.fti_ticks == 10

    def test_max_events_budget(self):
        sim = Simulation(SimulationConfig(max_events=5))

        def reschedule():
            sim.scheduler.after(0.001, reschedule)

        sim.scheduler.after(0.001, reschedule)
        with pytest.raises(SimulationError):
            sim.run(until=10.0)

    def test_run_not_reentrant(self):
        sim = Simulation()

        def recurse():
            sim.run(until=2.0)

        sim.scheduler.at(0.5, recurse)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_run_backwards_rejected(self):
        sim = Simulation()
        sim.run(until=5.0)
        with pytest.raises(ConfigurationError):
            sim.run(until=4.0)

    def test_step_fires_one_event(self):
        sim = Simulation()
        fired = []
        sim.scheduler.at(1.0, lambda: fired.append(1))
        sim.scheduler.at(2.0, lambda: fired.append(2))
        assert sim.step()
        assert fired == [1]
        assert sim.step()
        assert not sim.step()

    def test_report_wall_time_positive(self):
        sim = Simulation()
        sim.scheduler.at(1.0, lambda: None)
        report = sim.run()
        assert report.wall_seconds >= 0
        assert report.simulated_seconds == pytest.approx(1.0)
        assert "events" in report.summary()


class TestSimulationConfig:
    def test_defaults_valid(self):
        SimulationConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("fti_increment", 0),
        ("des_fallback_timeout", -0.1),
        ("realtime_factor", -1),
        ("stats_interval", 0),
        ("max_events", -1),
    ])
    def test_rejects_bad_values(self, field, value):
        config = SimulationConfig(**{field: value})
        with pytest.raises(ConfigurationError):
            config.validate()
