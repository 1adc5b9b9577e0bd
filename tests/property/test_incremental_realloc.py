"""Property tests: the incremental reallocation engine is equivalent
to a from-scratch recompute.

Two identical leaf-spine networks are driven through the same random
injection sequence — link/node fail/restore, gray capacity degrades,
flow churn, time advances — one with the incremental engine, one with
``incremental_realloc=False`` (every reallocation walks and solves
everything).  After every step the flows' rates, path statuses and
accrued byte counters must match, and the aggregate link/host counters
must agree to float-sum reordering tolerance.

Rates and per-flow byte counters are compared *exactly*: a component
solve is a pure function of the component instance, and the full path
runs through the same partition-and-solve code with everything dirty,
so incremental splicing must be bit-for-bit identical.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.dataplane.flow import FluidFlow
from repro.dataplane.flowtable import FlowEntry
from repro.dataplane.network import Network
from repro.netproto.addr import IPv4Prefix
from repro.openflow.actions import ActionOutput
from repro.openflow.match import Match

GBPS = 1_000_000_000


def build_leaf_spine(incremental: bool):
    """2 spines, 3 edge routers, 2 hosts per edge, ECMP everywhere."""
    sim = Simulation(SimulationConfig())
    net = Network("leaf-spine")
    sim.attach_network(net)
    net.incremental_realloc = incremental

    spines = [net.add_router(f"s{i}") for i in range(2)]
    edges = [net.add_router(f"e{i}") for i in range(3)]
    hosts = []
    for e_idx, edge in enumerate(edges):
        for h_idx in range(2):
            host = net.add_host(f"h{e_idx}_{h_idx}",
                                f"10.0.{e_idx}.{h_idx + 1}",
                                gateway=f"10.0.{e_idx}.254")
            hosts.append(host)
    links = []
    # Host attachments: edge ports 1..2 face hosts.
    for e_idx, edge in enumerate(edges):
        for h_idx in range(2):
            host = hosts[e_idx * 2 + h_idx]
            links.append(net.add_link(host, edge, capacity_bps=GBPS))
            edge.fib.install(f"10.0.{e_idx}.{h_idx + 1}/32",
                             [(h_idx + 1, None)])
    # Edge uplinks: ports 3..4 face the spines.
    for e_idx, edge in enumerate(edges):
        for s_idx, spine in enumerate(spines):
            links.append(net.add_link(edge, spine,
                                      capacity_bps=GBPS // 2))
    # Remote subnets from each edge: ECMP across both uplinks.
    for e_idx, edge in enumerate(edges):
        for other in range(3):
            if other == e_idx:
                continue
            edge.fib.install(f"10.0.{other}.0/24", [(3, None), (4, None)])
    # Spines reach each subnet via the owning edge (spine port = edge
    # index + 1, by construction order).
    for spine in spines:
        for e_idx in range(3):
            spine.fib.install(f"10.0.{e_idx}.0/24", [(e_idx + 1, None)])
    return sim, net, hosts, links, spines + edges


# Operations reference links/nodes/hosts by index so the same sequence
# replays identically on both networks.
_ops = st.one_of(
    st.tuples(st.just("fail_link"), st.integers(0, 11)),
    st.tuples(st.just("restore_link"), st.integers(0, 11)),
    st.tuples(st.just("fail_node"), st.integers(0, 4)),
    st.tuples(st.just("restore_node"), st.integers(0, 4)),
    st.tuples(st.just("degrade"), st.integers(0, 11),
              st.floats(0.1, 1.0)),
    st.tuples(st.just("start_flow"), st.integers(0, 5), st.integers(0, 5),
              st.floats(1e6, 2e9)),
    st.tuples(st.just("stop_flow"), st.integers(0, 31)),
    st.tuples(st.just("poke"),),
    st.tuples(st.just("advance"), st.floats(0.001, 0.05)),
)


class _Driver:
    """Applies one op stream to one network."""

    def __init__(self, incremental: bool):
        (self.sim, self.net, self.hosts,
         self.links, self.routers) = build_leaf_spine(incremental)
        self.flows = []
        self.t = 0.0
        self.flow_seq = 0

    def apply(self, op):
        kind = op[0]
        if kind == "fail_link":
            self.links[op[1]].set_up(False)
            self.net.invalidate_routing()
        elif kind == "restore_link":
            self.links[op[1]].set_up(True)
            self.net.invalidate_routing()
        elif kind == "fail_node":
            self.net.set_node_up(self.routers[op[1]].name, False)
        elif kind == "restore_node":
            self.net.set_node_up(self.routers[op[1]].name, True)
        elif kind == "degrade":
            link = self.links[op[1]]
            link.set_capacity(link.nominal_capacity_bps * op[2])
            self.net.invalidate_routing()
        elif kind == "start_flow":
            __, src, dst, demand = op
            if src == dst:
                return
            flow = FluidFlow(self.hosts[src], self.hosts[dst],
                             demand_bps=demand,
                             src_port=41000 + self.flow_seq,
                             start_time=self.t)
            self.flow_seq += 1
            self.net.flows.append(flow)
            self.flows.append(flow)
            self.net.start_flow(flow)
        elif kind == "stop_flow":
            if self.flows:
                self.net.stop_flow(self.flows[op[1] % len(self.flows)])
        elif kind == "poke":
            self.net.invalidate_routing()
        # Always advance a little so the coalesced recompute event
        # fires ("advance" ops add extra dt on top).
        self.t += op[1] if kind == "advance" else 1e-4
        self.sim.run(until=self.t)


@given(st.lists(_ops, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_incremental_matches_full_recompute(ops):
    inc = _Driver(incremental=True)
    full = _Driver(incremental=False)
    assert inc.net.incremental_realloc
    assert not full.net.incremental_realloc

    for step, op in enumerate(ops):
        inc.apply(op)
        full.apply(op)

        assert len(inc.flows) == len(full.flows)
        for fa, fb in zip(inc.flows, full.flows):
            where = f"step {step} op {op} flow {fa.name}"
            assert fa.active == fb.active, where
            sa = fa.path.status if fa.path is not None else None
            sb = fb.path.status if fb.path is not None else None
            assert sa == sb, where
            # Bit-for-bit: the incremental engine must splice exactly
            # the rates a from-scratch recompute would produce.
            assert fa.rate_bps == fb.rate_bps, where
            assert fa.delivered_bytes == fb.delivered_bytes, where

        # Aggregates accumulate in different orders between the two
        # engines; compare to float-reordering tolerance.
        for la, lb in zip(inc.links, full.links):
            for da, db in ((la.forward, lb.forward), (la.reverse, lb.reverse)):
                assert math.isclose(da.current_load_bps, db.current_load_bps,
                                    rel_tol=1e-9, abs_tol=1e-3)
                assert math.isclose(da.bytes_carried, db.bytes_carried,
                                    rel_tol=1e-9, abs_tol=1e-3)
        for ha, hb in zip(inc.hosts, full.hosts):
            assert math.isclose(ha.rx_rate_bps, hb.rx_rate_bps,
                                rel_tol=1e-9, abs_tol=1e-3)
            assert math.isclose(ha.rx_bytes, hb.rx_bytes,
                                rel_tol=1e-9, abs_tol=1e-3)

    # The incremental engine must actually have been incremental: after
    # the warm-up full pass, recomputes go down the scoped path.
    assert inc.net.realloc.full_recomputes <= 1
    if full.net.recomputations:
        assert full.net.realloc.full_recomputes == full.net.recomputations


def _entry_to(prefix: str, port: int) -> FlowEntry:
    return FlowEntry(match=Match(nw_dst=IPv4Prefix(prefix)),
                     actions=[ActionOutput(port)])


def build_switch_line(incremental: bool):
    """h0,h1 - s0 - s1 - s2 - h2,h3 with static OpenFlow entries.

    Exercises the switch pipeline under the incremental engine:
    table-version epochs (reinstall/retarget bump ``table.version``)
    must invalidate exactly the cached walks through that switch.
    """
    sim = Simulation(SimulationConfig())
    net = Network("switch-line")
    sim.attach_network(net)
    net.incremental_realloc = incremental
    switches = [net.add_switch(f"s{i}") for i in range(3)]
    hosts = [net.add_host(f"h{i}", f"10.1.0.{i + 1}") for i in range(4)]
    links = [
        net.add_link(hosts[0], switches[0], capacity_bps=GBPS),   # s0:1
        net.add_link(hosts[1], switches[0], capacity_bps=GBPS),   # s0:2
        net.add_link(hosts[2], switches[2], capacity_bps=GBPS),   # s2:1
        net.add_link(hosts[3], switches[2], capacity_bps=GBPS),   # s2:2
        net.add_link(switches[0], switches[1],
                     capacity_bps=GBPS // 2),                     # s0:3 s1:1
        net.add_link(switches[1], switches[2],
                     capacity_bps=GBPS // 2),                     # s1:2 s2:3
    ]
    # dst host index -> egress port per switch.
    ports = {0: (1, 1, 3), 1: (2, 1, 3), 2: (3, 2, 1), 3: (3, 2, 2)}
    for dst, (p0, p1, p2) in ports.items():
        prefix = f"10.1.0.{dst + 1}/32"
        switches[0].table.add(_entry_to(prefix, p0))
        switches[1].table.add(_entry_to(prefix, p1))
        switches[2].table.add(_entry_to(prefix, p2))
    return sim, net, hosts, links, switches, ports


_switch_ops = st.one_of(
    st.tuples(st.just("fail_link"), st.integers(0, 5)),
    st.tuples(st.just("restore_link"), st.integers(0, 5)),
    st.tuples(st.just("fail_node"), st.integers(0, 2)),
    st.tuples(st.just("restore_node"), st.integers(0, 2)),
    st.tuples(st.just("degrade"), st.integers(0, 5), st.floats(0.1, 1.0)),
    st.tuples(st.just("start_flow"), st.integers(0, 3), st.integers(0, 3),
              st.floats(1e6, 2e9)),
    st.tuples(st.just("stop_flow"), st.integers(0, 31)),
    # Re-add an entry unchanged: bumps table.version, path unchanged —
    # the spurious-dirty path must still match the full engine.
    st.tuples(st.just("reinstall"), st.integers(0, 2), st.integers(0, 3)),
    # Point a switch's entry for one destination at the wrong egress
    # (blackhole/bounce) or back at the right one.
    st.tuples(st.just("retarget"), st.integers(0, 2), st.integers(0, 3),
              st.booleans()),
    st.tuples(st.just("advance"), st.floats(0.001, 0.05)),
)


class _SwitchDriver:
    """Applies one switch-topology op stream to one network."""

    def __init__(self, incremental: bool):
        (self.sim, self.net, self.hosts, self.links,
         self.switches, self.ports) = build_switch_line(incremental)
        self.flows = []
        self.t = 0.0
        self.flow_seq = 0

    def apply(self, op):
        kind = op[0]
        if kind == "fail_link":
            self.links[op[1]].set_up(False)
            self.net.invalidate_routing()
        elif kind == "restore_link":
            self.links[op[1]].set_up(True)
            self.net.invalidate_routing()
        elif kind == "fail_node":
            self.net.set_node_up(self.switches[op[1]].name, False)
        elif kind == "restore_node":
            self.net.set_node_up(self.switches[op[1]].name, True)
        elif kind == "degrade":
            link = self.links[op[1]]
            link.set_capacity(link.nominal_capacity_bps * op[2])
            self.net.invalidate_routing()
        elif kind == "start_flow":
            __, src, dst, demand = op
            if src == dst:
                return
            flow = FluidFlow(self.hosts[src], self.hosts[dst],
                             demand_bps=demand,
                             src_port=42000 + self.flow_seq,
                             start_time=self.t)
            self.flow_seq += 1
            self.net.flows.append(flow)
            self.flows.append(flow)
            self.net.start_flow(flow)
        elif kind == "stop_flow":
            if self.flows:
                self.net.stop_flow(self.flows[op[1] % len(self.flows)])
        elif kind == "reinstall":
            __, s_idx, dst = op
            prefix = f"10.1.0.{dst + 1}/32"
            self.switches[s_idx].table.add(
                _entry_to(prefix, self.ports[dst][s_idx]))
            self.net.invalidate_routing()
        elif kind == "retarget":
            __, s_idx, dst, correct = op
            prefix = f"10.1.0.{dst + 1}/32"
            port = self.ports[dst][s_idx] if correct else 1
            self.switches[s_idx].table.add(_entry_to(prefix, port))
            self.net.invalidate_routing()
        self.t += op[1] if kind == "advance" else 1e-4
        self.sim.run(until=self.t)


@given(st.lists(_switch_ops, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_incremental_matches_full_on_switch_pipeline(ops):
    inc = _SwitchDriver(incremental=True)
    full = _SwitchDriver(incremental=False)
    for step, op in enumerate(ops):
        inc.apply(op)
        full.apply(op)
        assert len(inc.flows) == len(full.flows)
        for fa, fb in zip(inc.flows, full.flows):
            where = f"step {step} op {op} flow {fa.name}"
            sa = fa.path.status if fa.path is not None else None
            sb = fb.path.status if fb.path is not None else None
            assert sa == sb, where
            assert fa.rate_bps == fb.rate_bps, where
            assert fa.delivered_bytes == fb.delivered_bytes, where
    # Entry byte counters accrue through the cached paths too.
    for sa, sb in zip(inc.switches, full.switches):
        for ea, eb in zip(sa.table.entries(), sb.table.entries()):
            assert math.isclose(ea.byte_count, eb.byte_count,
                                rel_tol=1e-9, abs_tol=1e-3)
    assert inc.net.realloc.full_recomputes <= 1


@given(st.lists(_ops, min_size=5, max_size=25))
@settings(max_examples=30, deadline=None)
def test_incremental_walks_no_more_than_full(ops):
    """The dirty set never exceeds "every active flow, every time"."""
    inc = _Driver(incremental=True)
    full = _Driver(incremental=False)
    for op in ops:
        inc.apply(op)
        full.apply(op)
    assert inc.net.realloc.flows_walked <= full.net.realloc.flows_walked
    assert inc.net.realloc.flows_solved <= full.net.realloc.flows_solved
