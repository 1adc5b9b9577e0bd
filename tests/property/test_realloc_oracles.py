"""Oracle tests for the two scans the realloc engine no longer runs.

PR 13 replaced two per-recompute scans with O(what changed) answers:

* the scenario runner's recovery hook used to build
  ``Network.active_flows()`` and look at every ``flow.path``; it now
  asks :meth:`ReallocEngine.all_delivered`, a counter kept where cached
  walks are indexed;
* ``ReallocEngine._scan_epochs`` used to compare the epochs of every
  node and link with what it last saw; it now compares only entities
  whose mutation points *registered* them as touched.

The old scans live on here, as test-only oracles: under random scenario
histories and random churn the cheap answers must agree with them at
every reallocation.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.dataplane import arrays as arrays_module
from repro.dataplane.fib import NextHop
from repro.dataplane.flowtable import FlowEntry
from repro.dataplane.network import Network
from repro.openflow.actions import ActionOutput
from repro.openflow.groups import Bucket, Group
from repro.openflow.constants import GroupType
from repro.openflow.match import Match
from repro.scenarios import (
    LinkFail,
    LinkFlap,
    LinkRestore,
    NodeFail,
    NodeRecover,
    ProtocolRecipe,
    ScenarioRunner,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
)
from repro.scenarios.runner import _EPS
from span_reference import SpanReference, counters as span_counters
from test_incremental_realloc import (
    _Driver,
    _SwitchDriver,
    _ops,
    _switch_ops,
)


# ---------------------------------------------------------------------------
# The oracles: the scans as they ran before PR 13
# ---------------------------------------------------------------------------


def flows_all_delivered(network) -> bool:
    """The all-flows predicate of the pre-PR-13 ``_check_recovery``:
    some flow is running and every running flow's walk delivered."""
    active = network.active_flows()
    return bool(active) and all(
        flow.path is not None and flow.path.delivered for flow in active)


def unseen_epochs(network) -> list:
    """The full epoch poll of the pre-PR-13 ``_scan_epochs``, read-only:
    every node or link whose epoch differs from what the engine last
    saw.  After a recompute there must be none, or the push missed it.
    """
    engine = network.realloc
    missed = [name for name, node in network.nodes.items()
              if engine._seen_node_epoch.get(name) != node.fwd_epoch]
    for link in network.links:
        if (engine._seen_link_path_epoch.get(link.id) != link.path_epoch
                or engine._seen_link_cap_epoch.get(link.id) != link.cap_epoch):
            missed.append(link)
    return missed


# ---------------------------------------------------------------------------
# (a) recovery: the engine's O(1) answer vs the all-flows scan
# ---------------------------------------------------------------------------

_K4_LINKS = [(spec.node_a, spec.node_b) for spec in
             TopologyRecipe("fattree", {"k": 4, "device": "router"})
             .build().link_specs]
_K4_FABRIC = sorted({name for link in _K4_LINKS for name in link
                     if not name.startswith("h")})

_times = st.floats(1.5, 16.0).map(lambda t: round(t, 3))
_links = st.sampled_from(_K4_LINKS)
_injections = st.one_of(
    st.builds(lambda at, link: LinkFail(at=at, node_a=link[0],
                                        node_b=link[1]), _times, _links),
    st.builds(lambda at, link: LinkRestore(at=at, node_a=link[0],
                                           node_b=link[1]), _times, _links),
    st.builds(lambda at, link: LinkFlap(at=at, node_a=link[0],
                                        node_b=link[1], cycles=2,
                                        period=1.0, duty=0.5),
              _times, _links),
    st.builds(lambda at, node: NodeFail(at=at, node=node),
              _times, st.sampled_from(_K4_FABRIC)),
    st.builds(lambda at, node: NodeRecover(at=at, node=node),
              _times, st.sampled_from(_K4_FABRIC)),
)


@st.composite
def _histories(draw):
    """A k=4 fat-tree scenario: static routes (optionally through the
    symmetry quotient) or a reactive OpenFlow controller (flows miss
    before they deliver), flows that may end before the horizon, and a
    handful of link/node failures and repairs — paired with whether
    the run takes the incremental or the full-recompute path."""
    control = draw(st.sampled_from(["static", "static-symmetry", "sdn"]))
    incremental = draw(st.booleans())
    sim_params = {}
    if control == "sdn":
        device, protocol = "switch", ProtocolRecipe("sdn", {})
    else:
        device = "router"
        protocol = ProtocolRecipe("static", {"ecmp": draw(st.booleans())})
        if control == "static-symmetry":
            sim_params["symmetry"] = True
    return ScenarioSpec(
        name="recovery-oracle", seed=draw(st.integers(0, 50)),
        duration=20.0,
        topology=TopologyRecipe("fattree", {"k": 4, "device": device}),
        protocol=protocol,
        traffic=TrafficRecipe(
            pattern="permutation", rate_bps=2e8, start_time=1.0,
            duration=draw(st.sampled_from([6.0, 12.0, 25.0])),
            stagger=draw(st.sampled_from([0.0, 2.0]))),
        injections=draw(st.lists(_injections, max_size=6)),
        sim_params=sim_params,
    ), incremental


def _run_with_oracle(spec, incremental=True):
    """Run *spec* with the old hook beside the new one; returns (the
    runner's outcomes, the old hook's outcomes, hook calls seen)."""
    exp, outcomes = ScenarioRunner().materialize(spec)
    network = exp.network
    network.incremental_realloc = incremental
    shadow = [[outcome.at, None] for outcome in outcomes]
    calls = []

    def old_hook(now):
        healthy = flows_all_delivered(network)
        assert network.realloc.all_delivered() == healthy, (
            f"t={now}: engine says {not healthy}, the flows say {healthy}")
        calls.append(now)
        if healthy:
            for mark in shadow:
                if mark[1] is None and mark[0] <= now + _EPS:
                    mark[1] = now

    network.on_reallocation.append(old_hook)
    exp.run(until=spec.duration)
    return outcomes, shadow, len(calls)


@given(_histories())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_recovery_check_agrees_with_the_all_flows_scan(history):
    outcomes, shadow, calls = _run_with_oracle(*history)
    assert calls > 0
    assert [o.recovered_at for o in outcomes] == [m[1] for m in shadow]


def test_recovered_at_on_the_pinned_k4_scenario():
    """The ``recovered_at`` list of one pinned OSPF k=4 scenario, as
    the parent commit (full scan per hook call) measured it."""
    spec = ScenarioSpec(
        name="recovery-pin", seed=5, duration=30.0,
        topology=TopologyRecipe("fattree", {"k": 4, "device": "router"}),
        protocol=ProtocolRecipe("ospf", {"hello_interval": 1.0,
                                         "dead_interval": 4.0}),
        traffic=TrafficRecipe(pattern="permutation", rate_bps=2e8,
                              start_time=1.0, duration=24.0, stagger=2.0),
        injections=[
            LinkFail(at=8.0, node_a="e0_0", node_b="a0_0"),
            NodeFail(at=9.5, node="c0_0"),
            LinkRestore(at=15.0, node_a="e0_0", node_b="a0_0"),
            NodeRecover(at=18.0, node="c0_0"),
            LinkFlap(at=20.0, node_a="a1_1", node_b="c1_1", cycles=2,
                     period=2.0, duty=0.5),
            LinkFail(at=27.5, node_a="h3_1_1", node_b="e3_1"),
        ],
    )
    outcomes, shadow, __ = _run_with_oracle(spec)
    assert [o.recovered_at for o in outcomes] == [m[1] for m in shadow]
    assert [(o.label, o.recovered_at) for o in outcomes] == [
        ("link-fail e0_0-a0_0@8", 12.05005),
        ("node-fail c0_0@9.5", 12.05005),
        ("link-restore e0_0-a0_0@15", 15.0),
        ("node-recover c0_0@18", 18.0),
        ("link-flap a1_1-c1_1#0@20", 20.0),
        ("link-flap a1_1-c1_1#1@22", 22.0),
        ("link-fail h3_1_1-e3_1@27.5", None),
    ]


# ---------------------------------------------------------------------------
# (b) dirt: every epoch bump registers its owner; the push misses nothing
# ---------------------------------------------------------------------------


def _attached_network():
    sim = Simulation(SimulationConfig())
    net = Network("touch")
    sim.attach_network(net)
    router = net.add_router("r")
    switch = net.add_switch("s")
    host = net.add_host("h", "10.0.0.1")
    link = net.add_link(router, switch)
    net.add_link(host, router)
    # Mutations whose setters only act on a change need something to
    # change from.
    router.fib.install("10.9.0.0/16", [NextHop(port=1)])
    switch.table.add(FlowEntry(match=Match(in_port=7),
                               actions=[ActionOutput(1)], hard_timeout=1))
    switch.groups.add(Group(1, GroupType.SELECT, (Bucket((ActionOutput(1),)),)))
    net.recompute(0.0)      # full: every epoch seen, nothing left touched
    assert not net._touched_nodes and not net._touched_links
    return net, router, switch, link


_GROUP = Group(2, GroupType.SELECT, (Bucket((ActionOutput(1),)),))

# (what bumps an epoch, who must end up registered as touched)
EPOCH_BUMPS = {
    "Node.up": (lambda net, r, s, l: setattr(r, "up", False), "r"),
    "Node.bump_fwd_epoch": (lambda net, r, s, l: s.bump_fwd_epoch(), "s"),
    "Router.set_interface": (
        lambda net, r, s, l: r.set_interface(1, "10.1.0.1"), "r"),
    "FIB.install": (
        lambda net, r, s, l: r.fib.install("10.2.0.0/16", [(1, None)]), "r"),
    "FIB.withdraw": (lambda net, r, s, l: r.fib.withdraw("10.9.0.0/16"), "r"),
    "FIB.clear": (lambda net, r, s, l: r.fib.clear(), "r"),
    "FlowTable.add": (
        lambda net, r, s, l: s.table.add(
            FlowEntry(match=Match(in_port=1), actions=[ActionOutput(2)])),
        "s"),
    "FlowTable.delete": (
        lambda net, r, s, l: s.table.delete(Match(in_port=7)), "s"),
    "FlowTable.expire": (lambda net, r, s, l: s.table.expire(5.0), "s"),
    "FlowTable.clear": (lambda net, r, s, l: s.table.clear(), "s"),
    "GroupTable.add": (lambda net, r, s, l: s.groups.add(_GROUP), "s"),
    "GroupTable.modify": (
        lambda net, r, s, l: s.groups.modify(
            Group(1, GroupType.SELECT, (Bucket((ActionOutput(2),)),))), "s"),
    "GroupTable.delete": (lambda net, r, s, l: s.groups.delete(1), "s"),
    "Switch.agent": (lambda net, r, s, l: setattr(s, "agent", object()), "s"),
    "Link.up": (lambda net, r, s, l: setattr(l, "up", False), "link"),
    "Link.capacity_bps": (
        lambda net, r, s, l: l.set_capacity(l.capacity_bps / 2), "link"),
}


@pytest.mark.parametrize("name", sorted(EPOCH_BUMPS))
def test_every_epoch_bump_registers_its_owner(name):
    mutate, owner = EPOCH_BUMPS[name]
    net, router, switch, link = _attached_network()
    before = net.realloc.stats["epoch_notifications"]
    mutate(net, router, switch, link)
    assert unseen_epochs(net), f"{name} moved no epoch — not a bump site"
    if owner == "link":
        assert net._touched_links == {link} and not net._touched_nodes
    else:
        assert net._touched_nodes == {net.nodes[owner]}
        assert not net._touched_links
    assert net.realloc.stats["epoch_notifications"] > before
    # The incremental recompute that follows consumes the registration
    # and leaves nothing for a full poll to find.
    net.recompute(0.0)
    assert not net._touched_nodes and not net._touched_links
    assert unseen_epochs(net) == []
    assert net.realloc.full_recomputes == 1


def test_unattached_entities_register_nothing():
    """Before ``add_node`` there is no network to tell; attaching bumps
    ``topo_epoch``, and the full recompute that forces resyncs."""
    from repro.dataplane.router import Router

    router = Router("loose")
    router.fib.install("10.0.0.0/8", [(1, None)])   # must not raise
    sim = Simulation(SimulationConfig())
    net = Network("late")
    sim.attach_network(net)
    net.recompute(0.0)
    net.add_node(router)
    assert not net._touched_nodes
    net.recompute(0.0)
    assert net.realloc.full_recomputes == 2
    assert unseen_epochs(net) == []


@given(st.lists(_ops, min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_push_misses_nothing_under_router_churn(ops):
    driver = _Driver(incremental=True)
    for op in ops:
        driver.apply(op)
        # Every op that mutates also recomputes (the first one fully).
        if driver.net.recomputations:
            assert unseen_epochs(driver.net) == [], op
    assert driver.net.realloc.full_recomputes <= 1


@given(st.lists(_switch_ops, min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_push_misses_nothing_under_switch_churn(ops):
    driver = _SwitchDriver(incremental=True)
    for op in ops:
        driver.apply(op)
        if driver.net.recomputations:
            assert unseen_epochs(driver.net) == [], op
    assert driver.net.realloc.full_recomputes <= 1


# ---------------------------------------------------------------------------
# (c) accrual: flow-table entries on the sealed timeline vs the per-flow loop
# ---------------------------------------------------------------------------


def scalar_seal(engine):
    """The per-flow loop of the pre-PR-16 seal — what ran whenever a
    live flow walked flow-table entries — over the engine's delivered
    cached flows in flow-id order, after whatever was still sealed so
    segment order is preserved.  It feeds the counters the timeline
    still feeds, flows' and entries'; direction, port and host counters
    are rate spans, held to ``span_reference``."""
    segments, engine._segments = engine._segments, []
    engine.replay_accrual()
    accruing = [entry.flow for __, entry in sorted(engine._cache.items())
                if entry.delivered]
    for dt, seg_now in segments:
        for flow in accruing:
            if (not flow.active or flow.path is None
                    or not flow.path.delivered):
                continue
            if flow.rate_bps <= 0:
                continue
            transferred = flow.rate_bps * dt / 8.0  # bits -> bytes
            flow.delivered_bytes += transferred
            for __, entry in flow.path.entries:
                entry.byte_count += transferred
                entry.last_used_at = seg_now


def _hedera_entry_counters(monkeypatch, oracle):
    """Every switch's entry counters at every stats reply of a k=4
    Hedera run with a flow that stops mid-run and a link that fails,
    then every byte counter at the end — as hex — and the direction,
    port and host counters the span reference computes."""
    from repro.api import Experiment
    from repro.controllers import HederaApp
    from repro.dataplane.realloc import ReallocEngine
    from repro.openflow.switch_agent import SwitchAgent
    from repro.topology import FatTreeTopo

    if oracle:
        monkeypatch.setattr(ReallocEngine, "_seal", scalar_seal)
    snapshots = []
    answer = SwitchAgent._stats_reply

    def answer_and_snapshot(agent, request):
        reply = answer(agent, request)   # brings the counters current
        snapshots.append((agent.name, agent._now().hex(), [
            (entry.priority, entry.match.encode(), entry.byte_count.hex(),
             entry.last_used_at.hex(), entry.packet_count)
            for entry in agent.switch.table.entries()]))
        return reply

    monkeypatch.setattr(SwitchAgent, "_stats_reply", answer_and_snapshot)
    exp = Experiment("entry-accrual",
                     config=SimulationConfig(stats_interval=0.5, seed=2))
    exp.load_topo(FatTreeTopo(k=4))
    exp.network.recompute_min_interval = 0.005
    exp.use_controller(apps=[HederaApp(exp.topology_view(),
                                       poll_interval=5.0, hash_seed=2)])
    exp.add_demo_traffic(rate_bps=1e9, duration=30.0)
    hosts = [host.name for host in exp.network.hosts()]
    exp.add_flow(hosts[1], hosts[-2], 3e8, start_time=2.0, duration=9.0)
    exp.fail_link("a0_0", "c0_0", at=12.0)
    exp.add_stats(interval=0.5)
    reference = SpanReference(exp.network, monkeypatch)
    exp.run(until=32.0)
    network = exp.network
    network.finalize_accounting()
    closing = (
        [flow.delivered_bytes.hex() for flow in network.flows],
        _hexed(span_counters(network)),
        [(entry.byte_count.hex(), entry.last_used_at.hex())
         for switch in network.switches()
         for entry in switch.table.entries()])
    spans = _hexed(reference.counters(network.realloc.last_accrual))
    return snapshots, closing, spans, network.realloc.stats


def _hexed(counters):
    return [tuple(value.hex() for value in values)
            for values in counters.values()]


def test_entry_counters_equal_the_per_flow_loop(monkeypatch):
    timeline, closing, spans, stats = _hedera_entry_counters(monkeypatch,
                                                             False)
    monkeypatch.undo()
    # undo() also undid this directory's threshold pin: the oracle run
    # must see the same kernel, with a mirror beside its loop.
    monkeypatch.setattr(arrays_module, "ARRAYS_MIN_FLOWS", 0)
    loop, loop_closing, loop_spans, loop_stats = _hedera_entry_counters(
        monkeypatch, True)
    assert len(timeline) == 8 * 6            # 8 edge switches, 6 polls
    assert any(float.fromhex(count) > 0 and float.fromhex(used) > 0
               for __, __, entries in timeline
               for __, __, count, used, __ in entries)
    assert timeline == loop
    assert closing == loop_closing
    # Direction, port and host counters: the span rule, bit for bit.
    assert closing[1] == spans == loop_spans
    assert any(float.fromhex(value) > 0 for values in spans
               for value in values)
    # The timeline really was the path taken, and the loop the oracle's.
    assert stats["accrual_segments"] > 0 and stats["accrual_replays"] > 0
    assert loop_stats["accrual_segments"] == loop_stats["accrual_replays"] == 0
    assert stats["kernel"] == loop_stats["kernel"] == "arrays"
