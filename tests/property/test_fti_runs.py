"""Property: a run of FTI ticks is the tick-by-tick walk, bit for bit.

``Simulation._loop`` advances over a run of empty increments in one
tight loop; ``clock_reference.TickByTickSimulation`` is the walk it
replaced.  Both are driven over the same hypothesis event schedule —
control and non-control events, bursts inside one tick, events exactly
on a tick boundary, a quiet timeout that elapses exactly on a boundary,
an ``until`` that lands inside a run, an empty queue, handlers that
force the mode — and must agree with ``==`` (no tolerance) on the
clock, the counters, the transition log, the firing order and the
``clock.now`` every event saw.
"""

import pytest
from hypothesis import given, settings, strategies as st

from clock_reference import TickByTickSimulation, force_mode
from repro.core import simulation as simulation_module
from repro.core.clock import ClockMode, ClockPolicy
from repro.core.config import SimulationConfig
from repro.core.errors import SimulationError
from repro.core.events import PRIORITY_CONTROL, PRIORITY_STATS
from repro.core.simulation import Simulation
from repro.obs import TRACER

INCREMENTS = (0.001, 0.005, 0.0003)
MAX_TICK = 260


class _Endpoint:
    def __init__(self, name, log, clock):
        self.name = name
        self._log = log
        self._clock = clock

    def receive(self, channel, data, metadata):
        self._log.append(("delivered", data, self._clock.now,
                          self._clock.fti_ticks, self._clock.mode))


def _grid(anchor, increment, count):
    """Tick boundaries as the loop computes them: repeated adds."""
    grid = [anchor]
    for __ in range(count):
        grid.append(grid[-1] + increment)
    return grid


# (tick index on the grid, offset inside the tick as a fraction — 0.0
# is exactly on the boundary —, kind, parameter)
KINDS = ("plain", "notify", "send", "burst", "force_des", "force_fti")
_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=MAX_TICK),
        st.sampled_from((0.0, 0.0, 0.25, 0.5, 0.999)),
        st.sampled_from(KINDS + ("plain", "notify", "send")),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=14,
)
_scenarios = st.fixed_dictionaries({
    "increment": st.sampled_from(INCREMENTS),
    "policy": st.sampled_from(
        (ClockPolicy.HYBRID, ClockPolicy.HYBRID, ClockPolicy.PURE_FTI,
         "forced")),
    # In increments: 0 falls back after one tick, 100 is the default
    # ratio, the rest put the deadline on and around a boundary.
    "timeout_ticks": st.sampled_from((0, 1, 3, 10, 10.5, 100)),
    "anchor": st.sampled_from((0.0, 0.0, 0.125, 0.1, 1.0 / 3.0)),
    "events": _events,
    # Where the run is cut: grid positions (tick, fraction).
    "cuts": st.lists(
        st.tuples(st.integers(min_value=0, max_value=MAX_TICK + 120),
                  st.sampled_from((0.0, 0.5))),
        max_size=2),
    "max_events": st.sampled_from((0, 0, 0, 3, 9)),
})


def _drive(sim_class, scenario):
    increment = scenario["increment"]
    policy = scenario["policy"]
    forced = policy == "forced"
    grid = _grid(scenario["anchor"], increment, MAX_TICK + 130)
    # The timeout as the sum the clock would reach: for whole tick
    # counts ``now - last_activity`` can equal it exactly.
    whole = int(scenario["timeout_ticks"])
    timeout = _grid(0.0, increment, whole)[-1] + (
        scenario["timeout_ticks"] - whole) * increment
    sim = sim_class(SimulationConfig(
        fti_increment=increment,
        des_fallback_timeout=timeout,
        clock_policy=ClockPolicy.PURE_DES if forced else policy,
        max_events=scenario["max_events"],
    ))
    clock = sim.clock
    log = []
    a = _Endpoint("a", log, clock)
    b = _Endpoint("b", log, clock)
    channels = [sim.cm.open_channel(a, b, latency=latency)
                for latency in (0.0, increment / 4, increment,
                                increment * 7.5)]

    def handler(label, kind, param):
        def fire():
            log.append((label, kind, clock.now, clock.fti_ticks, clock.mode))
            if kind == "notify":
                clock.notify_control_activity()
            elif kind == "send":
                channels[param].send(a, bytes([label % 251]))
            elif kind == "burst":
                # More work inside this tick, and just past its end.
                for index in range(param + 1):
                    sim.scheduler.after(
                        increment * index / 3.0,
                        handler(1000 + label * 10 + index,
                                "notify" if index % 2 else "plain", 0))
            elif kind == "force_des":
                force_mode(clock, ClockMode.DES)
            elif kind == "force_fti":
                force_mode(clock, ClockMode.FTI)
        return fire

    for label, (tick, fraction, kind, param) in enumerate(scenario["events"]):
        time = grid[tick] + fraction * increment
        priority = (PRIORITY_CONTROL, PRIORITY_STATS)[param % 2]
        sim.scheduler.at(time, handler(label, kind, param),
                         priority=priority)
    if forced:
        force_mode(clock, ClockMode.FTI)

    reports = []
    error = None
    cuts = sorted(grid[tick] + fraction * increment
                  for tick, fraction in scenario["cuts"])
    # HYBRID and the forced clock also run to exhaustion; a PURE_FTI
    # run needs its horizon.
    horizons = cuts + ([] if policy is ClockPolicy.PURE_FTI else [None])
    try:
        for until in horizons:
            report = sim.run(until=until)
            reports.append((report.simulated_seconds, report.events_fired,
                            report.fti_ticks, report.des_jumps,
                            report.mode_transitions))
    except SimulationError as exc:
        error = (type(exc), str(exc))
    return {
        "now": clock.now,
        "mode": clock.mode,
        "fti_ticks": clock.fti_ticks,
        "des_jumps": clock.des_jumps,
        "transitions": [(t.time, t.from_mode, t.to_mode, t.reason)
                        for t in clock.transitions],
        "time_in_modes": clock.time_in_modes(),
        "last_activity": clock.last_control_activity,
        "events_fired": sim.events_fired,
        "queue": sim.queue.stats,
        "log": log,
        "reports": reports,
        "error": error,
    }


@given(_scenarios)
@settings(max_examples=400, deadline=None)
def test_tick_runs_equal_the_tick_by_tick_walk(scenario):
    run = _drive(Simulation, scenario)
    walk = _drive(TickByTickSimulation, scenario)
    assert run == walk


def _default_flap(sim_class, increment, until):
    """The shape ``campaign_sweep`` is made of: a hello round every
    second, each followed by the 100-tick quiet timeout."""
    sim = sim_class(SimulationConfig(fti_increment=increment))
    seen = []
    sim.scheduler.periodic(
        1.0, lambda: (seen.append(sim.clock.now),
                      sim.clock.notify_control_activity()))
    sim.scheduler.at(2.0005, lambda: seen.append(("plain", sim.clock.now)))
    sim.run(until=until)
    return (sim.clock.now, sim.clock.fti_ticks, sim.clock.des_jumps,
            [(t.time, t.from_mode, t.to_mode, t.reason)
             for t in sim.clock.transitions],
            sim.clock.time_in_modes(), seen)


@pytest.mark.parametrize("increment", INCREMENTS)
@pytest.mark.parametrize("until", (3.5, 3.05, 3.0 + 0.1))
def test_hello_cadence_under_the_default_timeout(increment, until):
    run = _default_flap(Simulation, increment, until)
    assert run == _default_flap(TickByTickSimulation, increment, until)
    assert run[1] >= 50  # two and a half quiet timeouts at least


@pytest.mark.parametrize("policy", (ClockPolicy.HYBRID, ClockPolicy.PURE_FTI))
def test_a_paced_run_sleeps_once_per_tick(monkeypatch, policy):
    sleeps = []
    monkeypatch.setattr(simulation_module._time, "sleep", sleeps.append)
    sim = Simulation(SimulationConfig(
        fti_increment=0.005, realtime_factor=0.5, clock_policy=policy))
    sim.scheduler.at(0.011, sim.clock.notify_control_activity)
    sim.scheduler.at(0.0302, lambda: None)
    report = sim.run(until=0.4)
    assert report.fti_ticks >= 20
    assert len(sleeps) == report.fti_ticks
    assert set(sleeps) == {0.005 * 0.5}


def test_the_backwards_clock_error_is_reachable_from_a_drain():
    """The drain inlines ``advance_to``'s comparison; an event that
    surfaces behind the clock still raises its ConfigurationError."""
    from repro.core.errors import ConfigurationError

    sim = Simulation(SimulationConfig(clock_policy=ClockPolicy.PURE_FTI))
    event = sim.scheduler.at(0.0105, lambda: None)
    sim.scheduler.at(0.0102, lambda: setattr(sim.clock, "now", 0.0109))
    with pytest.raises(ConfigurationError, match="cannot move backwards"):
        sim.run(until=0.05)
    assert not event.cancelled


def _run_spans():
    TRACER.clear()
    TRACER.enable()
    try:
        sim = Simulation(SimulationConfig())
        TRACER.set_virtual_clock(lambda: sim.clock.now)
        sim.scheduler.at(0.5, sim.clock.notify_control_activity)
        sim.scheduler.at(0.52, lambda: None)
        sim.scheduler.at(0.9, sim.clock.notify_control_activity)
        sim.run(until=0.95)
        return sim, [sp for sp in TRACER.spans()
                     if sp.name == "clock.fti_run"]
    finally:
        TRACER.set_virtual_clock(None)
        TRACER.disable()
        TRACER.clear()


def test_one_span_per_tick_run():
    sim, spans = _run_spans()
    assert [sp.attrs["ended_by"] for sp in spans] == [
        "event", "fallback", "horizon"]
    assert sum(sp.attrs["ticks"] for sp in spans) == sim.clock.fti_ticks
    first, second, third = spans
    # Virtual-time track: a run starts where the previous one ended.
    assert first.virtual_start == 0.5
    assert first.virtual_end == second.virtual_start
    assert second.virtual_end == sim.clock.transitions[1].time
    assert (third.virtual_start, third.virtual_end) == (0.9, 0.95)
    assert first.attrs["ticks"] == 20 and third.attrs["ticks"] == 49
