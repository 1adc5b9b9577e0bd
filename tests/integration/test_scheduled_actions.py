"""A scheduled action is one event holding its operands.

Every action the library schedules — a failure injection, a flow's
start and stop, a packet hop, a BGP or OSPF timer, a switch's expiry
check — is a :class:`~repro.core.events.CallbackEvent` whose callback is
a module-level function and whose operands ride in the event.  These
tests pin that, and pin that the change moved nothing:

* no queued callback is a closure (``<lambda>`` or ``<locals>``);
* every event is pushed at the same point, time and priority as when
  each action was a closure (``tests/data/scheduled_actions_golden.json``
  was recorded with closures; only the callback names differ);
* a hook patched on ``network.stop_flow`` after the flows were added
  still sees every stop (the callee is looked up when the event fires);
* a ``capacity-degrade`` injection adds a bounded number of GC-tracked
  objects at set-up.
"""

import gc
import json
import os

import pytest

from repro.core.events import CallbackEvent
from repro.core.queue import EventQueue
from repro.core.scheduler import PeriodicTimer
from repro.netproto.packet import make_udp_packet
from repro.scenarios import (
    ProtocolRecipe,
    ScenarioRunner,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
)
from repro.scenarios.injections import (
    CapacityDegrade,
    LinkFail,
    LinkFlap,
    LinkRestore,
    NodeFail,
    NodeRecover,
    Partition,
    TrafficBurst,
)

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                      "scheduled_actions_golden.json")

PROTOCOLS = ("none", "static", "bgp", "ospf", "sdn")
DURATION = 4.0

#: Protocol parameters that bring every timer into a 4 s run: BGP's hold
#: timer expires on the cut session (hold check, teardown, reconnect),
#: OSPF floods several times.
PARAMS = {
    "bgp": {"hold_time": 3.0, "keepalive_interval": 1.0},
    "ospf": {"hello_interval": 1.0, "dead_interval": 4.0},
}

#: Callback names that replaced the closures the golden file was
#: recorded with: new name -> the names it stands for there.
RENAMED = {
    "_cut": {"Experiment.fail_link.<locals>.cut"},
    "_replug": {"Experiment.restore_link.<locals>.replug"},
    "_node_down": {"Experiment.fail_node.<locals>.down"},
    "_node_up": {"Experiment.restore_node.<locals>.up"},
    "_degrade": {"Experiment.degrade_link.<locals>.degrade"},
    "_repair": {"Experiment.degrade_link.<locals>.repair"},
    "_expire_entries": {"Experiment.use_controller.<locals>.<lambda>"},
    "_start_flow": {"Network.add_flow.<locals>.<lambda>"},
    "_stop_flow": {"Network.add_flow.<locals>.<lambda>"},
    "_recompute_due": {"Network._recompute"},
    "_packet_arrives": {"Network.transmit.<locals>.<lambda>"},
    "_connect": {"BGPDaemon.start.<locals>.<lambda>",
                 "BGPDaemon._teardown.<locals>.<lambda>"},
    "_connect_timeout": {"BGPDaemon._connect.<locals>.attempt_timeout"},
    "_send_keepalive": {"BGPDaemon._on_established.<locals>.<lambda>"},
    "_check_hold": {"BGPDaemon._arm_hold_timer.<locals>.check"},
    "_flush": {"BGPDaemon._schedule_flush.<locals>.<lambda>"},
    "_run_spf": {"OSPFDaemon._run_spf"},
}


def action_spec(protocol):
    """A k=4 fat-tree under ``protocol`` with one injection of every
    kind, all inside a 4 s run."""
    device = "switch" if protocol == "sdn" else "router"
    return ScenarioSpec(
        name=f"actions-{protocol}", seed=3, duration=DURATION,
        topology=TopologyRecipe("fattree", {"k": 4, "device": device}),
        protocol=ProtocolRecipe(protocol, dict(PARAMS.get(protocol, {}))),
        traffic=TrafficRecipe(pattern="permutation", rate_bps=2e8,
                              start_time=0.3, duration=1.0, stagger=0.1),
        injections=[
            LinkFail(at=0.5, node_a="e0_0", node_b="a0_0"),
            LinkRestore(at=3.8, node_a="e0_0", node_b="a0_0"),
            LinkFlap(at=0.4, node_a="a1_0", node_b="c0_0", cycles=2,
                     period=0.3, duty=0.5),
            NodeFail(at=0.6, node="c1_1"),
            NodeRecover(at=1.1, node="c1_1"),
            Partition(at=0.7, group=["e2_0"], heal_at=1.2),
            CapacityDegrade(at=0.45, node_a="a3_1", node_b="c1_0",
                            factor=0.5, until=0.95),
            TrafficBurst(at=0.55, duration=0.5, rate_bps=1e8, flows=3,
                         seed=2),
        ])


def materialize(protocol):
    """The spec's experiment, plus one UDP packet injected at t=0 so
    packet hops (and, under SDN, a packet-in) are scheduled too."""
    exp, __ = ScenarioRunner().materialize(action_spec(protocol))
    network = exp.network
    src, dst = network.get_node("h0_0_0"), network.get_node("h1_0_0")
    network.inject_packet(src, None, make_udp_packet(
        src.mac, dst.mac, src.ip, dst.ip, 1000, 9000, payload=b"hop"))
    return exp


def callback_name(event):
    """The qualname of what ``event`` runs, looking through a periodic
    timer to the callback it repeats; the class name of any other
    event."""
    if not isinstance(event, CallbackEvent):
        return type(event).__name__
    callback = event.callback
    timer = getattr(callback, "__self__", None)
    if isinstance(timer, PeriodicTimer):
        callback = timer.callback
    return callback.__qualname__


def pushed_events(protocol):
    """``(time, priority, seq, callback name)`` of every event pushed
    while materializing and running ``action_spec(protocol)``."""
    pushed = []
    push = EventQueue.push

    def recording_push(queue, event):
        push(queue, event)
        pushed.append((event.time, event.priority, event.seq,
                       callback_name(event)))
        return event

    EventQueue.push = recording_push
    try:
        exp = materialize(protocol)
        exp.sim.run(until=DURATION)
    finally:
        EventQueue.push = push
    return pushed


def queued_closures(exp):
    names = {callback_name(event) for event in exp.sim.queue}
    return sorted(name for name in names
                  if "<lambda>" in name or "<locals>" in name)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_no_queued_callback_is_a_closure(protocol):
    exp = materialize(protocol)
    assert queued_closures(exp) == []
    for until in (1.0, DURATION):
        exp.sim.run(until=until)
        assert queued_closures(exp) == []


def test_the_specs_exercise_every_action():
    seen = {name for protocol in PROTOCOLS
            for *__, name in pushed_events(protocol)}
    assert set(RENAMED) <= seen


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_pushes_match_the_closure_recording(protocol, golden):
    names = golden["names"]
    expected = [(time, priority, seq, names[index])
                for time, priority, seq, index in golden["pushed"][protocol]]
    actual = pushed_events(protocol)
    assert [entry[:3] for entry in actual] == [entry[:3] for entry in expected]
    for (*__, new), (*__, old) in zip(actual, expected):
        assert old in RENAMED.get(new, {new}), (new, old)


def test_a_stop_flow_hook_patched_after_add_flow_sees_every_stop():
    exp, __ = ScenarioRunner().materialize(action_spec("static"))
    network = exp.network
    stop = network.stop_flow
    seen = []

    def hooked(flow):
        seen.append(flow.id)
        stop(flow)

    network.stop_flow = hooked
    exp.sim.run(until=DURATION)
    ends = sorted(flow.id for flow in network.flows
                  if flow.end_time is not None
                  and flow.end_time <= DURATION)
    assert ends and sorted(seen) == ends
    assert not any(flow.active for flow in network.flows
                   if flow.id in seen)


#: GC-tracked objects one ``capacity-degrade`` injection with a repair
#: adds at set-up: its InjectionOutcome, and per action (degrade,
#: repair) one CallbackEvent, its operand tuple and its heap entry.
#: As closures it was 12: two functions, three cells and two closure
#: tuples where the operand tuples are now.
OBJECTS_PER_DEGRADE = 7


def test_setup_objects_per_capacity_degrade():
    def tracked_after_materialize(count):
        spec = action_spec("static")
        spec.injections = [
            CapacityDegrade(at=1.0 + 0.001 * index, node_a="a3_1",
                            node_b="c1_0", factor=0.5,
                            until=2.0 + 0.001 * index)
            for index in range(count)]
        gc.collect()
        before = len(gc.get_objects())
        exp, outcomes = ScenarioRunner().materialize(spec)
        gc.collect()
        added = len(gc.get_objects()) - before
        del exp, outcomes
        return added

    # One injection in the base run, so the experiment's link lookup
    # (built on the first injection) is on both sides.
    tracked_after_materialize(1)  # warm every cache first
    base = tracked_after_materialize(1)
    per_injection = (tracked_after_materialize(201) - base) / 200
    assert per_injection <= OBJECTS_PER_DEGRADE
