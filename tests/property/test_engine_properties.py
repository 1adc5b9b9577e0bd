"""Property tests: engine invariants — event order, clock monotonicity,
FTI/DES accounting, demand estimator bounds, fat-tree structure."""

from hypothesis import given, settings, strategies as st

from repro.controllers.hedera import estimate_demands
from repro.core.clock import ClockMode, ClockPolicy, HybridClock
from repro.core.config import SimulationConfig
from repro.core.events import CallbackEvent
from repro.core.queue import EventQueue
from repro.core.simulation import Simulation
from repro.topology.fattree import FatTreeTopo

times = st.floats(min_value=0.0, max_value=1000.0,
                  allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(times, st.integers(min_value=0, max_value=20)),
                max_size=50))
@settings(max_examples=150, deadline=None)
def test_queue_pops_in_total_order(items):
    queue = EventQueue()
    for time, priority in items:
        queue.push(CallbackEvent(time, lambda: None, priority=priority))
    popped = []
    while True:
        event = queue.pop()
        if event is None:
            break
        popped.append(event.sort_key())
    assert popped == sorted(popped)


# Few distinct values, so equal times and equal priorities are common.
coarse_triples = st.tuples(st.sampled_from((0.0, 0.5, 0.5000000000000001, 1.0, 7.25)),
                           st.sampled_from((0, 10, 20)),
                           st.integers(min_value=0, max_value=3))


@given(coarse_triples, coarse_triples)
@settings(max_examples=300, deadline=None)
def test_event_less_than_is_the_sort_key_order(left, right):
    """Events no longer define ``<``; "less than" is what the heap
    compares — the ``(time, priority, seq, event)`` entry ``push``
    builds — and that must order exactly like ``sort_key``."""
    queue = EventQueue()
    for time, priority, __ in (left, right):
        queue.push(CallbackEvent(time, lambda: None, priority=priority))
    a, b = sorted(queue._heap, key=lambda entry: entry[2])  # push order
    assert (a < b) == (a[3].sort_key() < b[3].sort_key())
    assert (b < a) == (b[3].sort_key() < a[3].sort_key())


@given(st.lists(coarse_triples, max_size=40), st.data())
@settings(max_examples=150, deadline=None)
def test_queue_iterates_and_pops_by_sort_key_with_ties(items, data):
    """The heap orders (time, priority, seq) entries, not events: ties
    on time and priority fall back to push order, cancelled events are
    skipped, and iteration previews exactly what pop will deliver."""
    queue = EventQueue()
    pushed = [queue.push(CallbackEvent(time, lambda: None, priority=priority))
              for time, priority, __ in items]
    assert [event.seq for event in pushed] == list(range(len(pushed)))
    for event in pushed:
        if data.draw(st.booleans()):
            event.cancel()
    expected = sorted((event for event in pushed if not event.cancelled),
                      key=lambda event: event.sort_key())
    assert list(queue) == expected
    assert len(queue) == len(expected)
    popped = []
    while queue:
        assert queue.peek() is expected[len(popped)]
        popped.append(queue.pop())
    assert popped == expected
    assert queue.pop() is None


@given(st.lists(times, min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_simulation_time_never_decreases(event_times):
    sim = Simulation()
    observed = []
    for t in event_times:
        sim.scheduler.at(t, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(event_times)


@given(st.lists(times, min_size=1, max_size=20), times)
@settings(max_examples=100, deadline=None)
def test_control_activity_times_produce_alternating_transitions(
        activity_times, horizon):
    sim = Simulation(SimulationConfig(des_fallback_timeout=0.05))
    for t in activity_times:
        sim.scheduler.at(t, lambda: sim.clock.notify_control_activity())
    sim.run(until=max(horizon, max(activity_times) + 1.0))
    modes = [t.to_mode for t in sim.clock.transitions]
    for first, second in zip(modes, modes[1:]):
        assert first != second  # strictly alternating
    if modes:
        assert modes[0] is ClockMode.FTI


@given(st.lists(times, min_size=0, max_size=20), times)
@settings(max_examples=100, deadline=None)
def test_time_in_modes_partitions_run(activity_times, extra):
    horizon = max(activity_times, default=0.0) + extra + 0.1
    sim = Simulation(SimulationConfig(des_fallback_timeout=0.05))
    for t in activity_times:
        sim.scheduler.at(t, lambda: sim.clock.notify_control_activity())
    sim.run(until=horizon)
    spent = sim.clock.time_in_modes()
    assert spent["des"] + spent["fti"] == sim.now or abs(
        spent["des"] + spent["fti"] - sim.now) < 1e-6
    assert spent["des"] >= 0 and spent["fti"] >= 0


@given(st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=50, deadline=None)
def test_pure_fti_tick_count_exact(steps, increment):
    sim = Simulation(SimulationConfig(
        clock_policy=ClockPolicy.PURE_FTI, fti_increment=increment))
    report = sim.run(until=steps * increment)
    # Floating-point boundary accumulation may absorb the final tick
    # into the horizon clamp: exact up to one tick.
    assert steps - 1 <= report.fti_ticks <= steps


hosts_st = st.lists(
    st.sampled_from([f"h{i}" for i in range(12)]),
    min_size=1, max_size=30,
)


@given(hosts_st, hosts_st)
@settings(max_examples=150, deadline=None)
def test_demand_estimator_bounds_and_conservation(sources, sinks):
    pairs = [(s, d) for s, d in zip(sources, sinks) if s != d]
    if not pairs:
        return
    demands = estimate_demands(pairs)
    assert len(demands) == len(pairs)
    per_sender = {}
    per_receiver = {}
    for (src, dst, __), value in demands.items():
        assert -1e-9 <= value <= 1.0 + 1e-9
        per_sender[src] = per_sender.get(src, 0.0) + value
        per_receiver[dst] = per_receiver.get(dst, 0.0) + value
    for host, total in per_sender.items():
        assert total <= 1.0 + 1e-6
    for host, total in per_receiver.items():
        assert total <= 1.0 + 1e-6


@given(st.integers(min_value=1, max_value=5).map(lambda n: n * 2))
@settings(max_examples=5, deadline=None)
def test_fattree_structure_invariants(k):
    ft = FatTreeTopo(k=k)
    assert len(ft.hosts()) == k ** 3 // 4
    assert len(ft.switches()) == 5 * k ** 2 // 4
    # Every edge switch serves exactly k/2 hosts and k/2 aggs.
    links_by_node = {}
    for link in ft.link_specs:
        links_by_node.setdefault(link.node_a, []).append(link.node_b)
        links_by_node.setdefault(link.node_b, []).append(link.node_a)
    for edge in ft.edge_switches:
        neighbors = links_by_node[edge]
        hosts = [n for n in neighbors if n.startswith("h")]
        aggs = [n for n in neighbors if n.startswith("a")]
        assert len(hosts) == k // 2
        assert len(aggs) == k // 2
    for core in ft.core_switches:
        pods = {n.split("_")[0][1:] for n in links_by_node[core]}
        assert len(pods) == k  # one agg in every pod
    ips = [h.ip for h in ft.host_specs.values()]
    assert len(set(ips)) == len(ips)
