"""Only contended links couple flows — and pruning the rest is exact.

A direction is *contended* when the demand offered to it (each flow
crossing it once) exceeds ``capacity · (1 − CONTENTION_MARGIN)``.  The
realloc engine partitions and solves the flow/direction graph through
contended directions only; this module pins that the smaller instance
gives the big one's answer float for float, at four levels:

(i)   **the lemma, on the kernels themselves** — dropping every
      uncontended link from a random interned instance changes no
      row's rate (``==``), under ``bottleneck_filling`` and
      ``bottleneck_filling_arrays``;
(ii)  **the engine under churn** — starts, stops, link flaps and
      capacity degrades that cross the boundary in both directions, on
      arrays and forced-heap engines: after every step each rate,
      direction load and host rate ``==`` the *unpruned global
      instance* (one heap solve over every delivered flow and every
      direction, built here from the engine's walk cache — the solve as
      it was before pruning, kept as the oracle), every byte counter
      ``==`` a from-scratch engine's, and the engine's flags ``==`` a
      from-scratch classification;
(iii) **boundaries** — offered load exactly at capacity, a hair either
      side of the margin, demands at or below ``EPSILON``, a path
      crossing one direction twice, a seed direction no flow crosses;
(iv)  **the quotient hand-over** — a class-closed degrade pushes
      directions across the boundary while the symmetry quotient owns
      the rates (no flag is updated), then a flow stop hands back to
      the concrete path, which must not trust the flags it left.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.dataplane import solver
from repro.dataplane.arrays import CONTENTION_MARGIN, HAVE_NUMPY
from repro.dataplane.flow import FluidFlow, PathResult, PathStatus
from repro.dataplane.network import Network
from repro.scenarios import (
    CapacityDegrade,
    ProtocolRecipe,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
)
from repro.scenarios.runner import ScenarioRunner
from repro.topology.fattree import FatTreeTopo

from realloc_reference import all_directions
from test_kernel_parity import _Driver, all_ones, dense_instances

GBPS = 1_000_000_000
KERNELS = ["auto", "heap"]   # "auto" is the arrays mirror when numpy imports


# ---------------------------------------------------------------------------
# (i) The lemma on the kernels
# ---------------------------------------------------------------------------


def prune(instance):
    """The instance without its uncontended links, the survivors in
    their relative dense order (what the heap's tie-breaks see)."""
    demands, capacities, link_members, flow_links = instance
    kept = []
    for link, capacity in enumerate(capacities):
        offered = 0.0
        for row, links in enumerate(flow_links):
            if link in links:
                offered += demands[row]
        if offered > capacity * (1.0 - CONTENTION_MARGIN):
            kept.append(link)
    dense = {link: pos for pos, link in enumerate(kept)}
    return (demands,
            [capacities[link] for link in kept],
            [link_members[link] for link in kept],
            [[dense[link] for link in links if link in dense]
             for links in flow_links])


@pytest.mark.parametrize("clean", [False, True], ids=["messy", "ties"])
@given(messy=dense_instances(False), ties=dense_instances(True))
@settings(max_examples=250, deadline=None)
def test_dropping_uncontended_links_moves_no_rate(clean, messy, ties):
    instance = ties if clean else messy
    kernels = {"heap": lambda d, c, m, f: solver.bottleneck_filling(
        d, c, m, all_ones(f))}
    if HAVE_NUMPY:
        from repro.dataplane.arrays import bottleneck_filling_arrays

        kernels["arrays"] = bottleneck_filling_arrays
    for name, kernel in kernels.items():
        assert kernel(*prune(instance)) == kernel(*instance), name


# ---------------------------------------------------------------------------
# The oracles: the unpruned global instance, a from-scratch classification
# ---------------------------------------------------------------------------


def unpruned_global(engine):
    """``(rates by flow id, loads by direction, rx by host, tx by
    host)`` from ONE heap instance over every delivered flow (id order)
    and every direction they cross (first-appearance order, a
    twice-crossed one once) — no flag consulted, nothing partitioned."""
    entries = [entry for __, entry in sorted(engine._cache.items())
               if entry.delivered]
    demands, capacities, link_members, flow_links = [], [], [], []
    index = {}
    for pos, entry in enumerate(entries):
        demands.append(entry.flow.demand_bps)
        links = []
        for direction in dict.fromkeys(entry.dirs):
            dense = index.setdefault(direction, len(index))
            if dense == len(capacities):
                capacities.append(direction.capacity_bps)
                link_members.append([])
            links.append((dense, 1))
            if demands[pos] > solver.EPSILON:
                link_members[dense].append(pos)
        flow_links.append(links)
    rates = solver.bottleneck_filling(demands, capacities, link_members,
                                      flow_links)
    loads, rx, tx = {}, {}, {}
    for entry, rate in zip(entries, rates):
        for direction in entry.dirs:        # a twice-crossed hop twice
            loads[direction] = loads.get(direction, 0.0) + rate
        flow = entry.flow
        rx[flow.dst] = rx.get(flow.dst, 0.0) + rate
        tx[flow.src] = tx.get(flow.src, 0.0) + rate
    by_id = {entry.flow.id: rate for entry, rate in zip(entries, rates)}
    return by_id, loads, rx, tx


def classify_from_scratch(engine):
    """Every flag from nothing but the cached walks: offered load per
    direction, each flow once, flow-id order."""
    offered = {}
    for __, entry in sorted(engine._cache.items()):
        for direction in dict.fromkeys(entry.dirs):
            offered[direction] = (offered.get(direction, 0.0)
                                  + entry.flow.demand_bps)
    return {direction for direction, load in offered.items()
            if load > direction.capacity_bps * (1.0 - CONTENTION_MARGIN)}


def assert_equals_unpruned(net, where=""):
    """Every rate, load, host rate and flag of ``net``, after a
    recompute, against the oracles above — all ``==``."""
    engine = net.realloc
    rates, loads, rx, tx = unpruned_global(engine)
    for flow in net.flows:
        # Stopped and undelivered flows hold 0 and are in no instance.
        assert flow.rate_bps == rates.get(flow.id, 0.0), (where, flow.name)
    for direction in all_directions(net):
        assert direction.current_load_bps == loads.get(direction, 0.0), (
            where, direction)
    for host in net.hosts():
        assert host.rx_rate_bps == rx.get(host, 0.0), (where, host.name)
        assert host.tx_rate_bps == tx.get(host, 0.0), (where, host.name)
    if net.recomputations:      # no flag is known before the first one
        assert engine._contended == classify_from_scratch(engine), where


# ---------------------------------------------------------------------------
# (ii) The engine under churn
# ---------------------------------------------------------------------------

# On the parity leaf-spine (1 Gb/s host links, 0.5 Gb/s uplinks) these
# put offered loads on every side of the boundary: a lone 10-40 Mb/s
# flow contends nowhere, 2 x 250 Mb/s sits exactly on an uplink's
# capacity, 2 x 170 Mb/s exactly on an uplink degraded to 0.68, and
# 1 Gb/s contends everywhere it goes.
_DEMANDS = (1e7, 4e7, 1.7e8, 2.5e8, 5e8, 1e9)
_FACTORS = st.one_of(st.sampled_from((0.04, 0.1, 0.34, 0.5, 0.68, 1.0)),
                     st.floats(0.02, 1.0))

_mutations = st.one_of(
    st.tuples(st.just("start_flow"), st.integers(0, 5), st.integers(0, 5),
              st.sampled_from(_DEMANDS)),
    st.tuples(st.just("start_flow"), st.integers(0, 5), st.integers(0, 5),
              st.sampled_from(_DEMANDS)),
    st.tuples(st.just("stop_flow"), st.integers(0, 31)),
    st.tuples(st.just("fail_link"), st.integers(0, 11)),
    st.tuples(st.just("restore_link"), st.integers(0, 11)),
    st.tuples(st.just("degrade"), st.integers(0, 11), _FACTORS),
    st.tuples(st.just("degrade"), st.integers(0, 11), st.just(1.0)),
    st.tuples(st.just("reroute"), st.integers(0, 2), st.integers(0, 2),
              st.sampled_from(((3,), (4,), (3, 4)))),
)
_ops = st.one_of(
    _mutations,
    # Several mutations inside one instant: one recompute sees them all.
    st.tuples(st.just("burst"), st.lists(_mutations, min_size=2,
                                         max_size=6)),
    st.tuples(st.just("advance"), st.floats(0.001, 0.05)),
    st.tuples(st.just("sample")),
    st.tuples(st.just("forget")),
)


def _apply(driver, op):
    if op[0] == "burst":
        for sub in op[1]:
            driver.mutate(sub)
        op = ("advance", 1e-3)
    driver.apply(op)
    if op[0] == "forget":
        # Nothing recomputes on a forget alone; make the full
        # recompute it forces happen inside this step.
        driver.net.invalidate_routing()
        driver.apply(("advance", 1e-3))


@given(st.lists(_ops, min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_pruned_engines_equal_the_unpruned_instance_under_churn(ops):
    drivers = {kernel: _Driver(kernel) for kernel in KERNELS}
    # The from-scratch twin: every recompute walks, classifies and
    # solves everything.
    scratch = drivers["scratch"] = _Driver("auto")
    scratch.net.incremental_realloc = False

    for step, op in enumerate(ops):
        for driver in drivers.values():
            _apply(driver, op)
        for name, driver in drivers.items():
            assert_equals_unpruned(driver.net, f"step {step} {op} {name}")
            assert driver.byte_counters() == scratch.byte_counters(), (
                f"step {step} {op} {name}")
    if scratch.net.recomputations:
        assert (scratch.net.realloc.full_recomputes
                == scratch.net.recomputations)
    assert drivers["auto"].net.realloc.full_recomputes <= 1 + sum(
        op[0] == "forget" for op in ops)


# ---------------------------------------------------------------------------
# (iii) Boundaries
# ---------------------------------------------------------------------------


class _Star:
    """Four hosts on one router, 1 Gb/s each: a flow crosses its
    source's uplink and its destination's downlink."""

    def __init__(self, kernel):
        self.sim = Simulation(SimulationConfig())
        self.net = Network(f"star-{kernel}")
        self.sim.attach_network(self.net)
        self.net.realloc.kernel = kernel
        router = self.net.add_router("r")
        self.hosts, self.links = [], []
        for i in range(4):
            host = self.net.add_host(f"h{i}", f"10.0.0.{i + 1}",
                                     gateway="10.0.0.254")
            self.hosts.append(host)
            self.links.append(self.net.add_link(host, router,
                                                capacity_bps=GBPS))
            router.fib.install(f"10.0.0.{i + 1}/32", [(i + 1, None)])
        self.t = 0.0

    def start(self, src, dst, demand):
        flow = FluidFlow(self.hosts[src], self.hosts[dst], demand_bps=demand,
                         src_port=43000 + len(self.net.flows),
                         start_time=self.net.now)
        self.net.flows.append(flow)
        self.net.start_flow(flow)
        return flow

    def settle(self):
        self.t += 1e-3
        self.sim.run(until=self.t)
        assert_equals_unpruned(self.net)
        return self.net.realloc.stats

    def down(self, host):
        """The router -> host direction."""
        return self.links[host].reverse


@pytest.mark.parametrize("kernel", KERNELS)
class TestBoundaries:
    def test_offered_load_exactly_at_capacity_is_contended(self, kernel):
        star = _Star(kernel)
        flows = [star.start(0, 2, 5e8), star.start(1, 2, 5e8)]
        stats = star.settle()
        # 2 x 500 Mb/s on 1 Gb/s: not under the margin, so solved as
        # before — and the kernel hands both their demand.
        assert star.net.realloc._contended == {star.down(2)}
        assert (stats["flows_solved"], stats["components_solved"]) == (2, 1)
        assert stats["flows_unconstrained"] == 0
        assert [flow.rate_bps for flow in flows] == [5e8, 5e8]

    @pytest.mark.parametrize("short_by, contended", [
        (4e-6, False),      # offered = capacity · (1 − 2e-6): under
        (1e-6, True),       # offered = capacity · (1 − 5e-7): inside
    ])
    def test_a_hair_either_side_of_the_margin(self, kernel, short_by,
                                              contended):
        star = _Star(kernel)
        flows = [star.start(0, 2, 5e8), star.start(1, 2, 5e8 * (1 - short_by))]
        stats = star.settle()
        assert (star.down(2) in star.net.realloc._contended) is contended
        assert stats["flows_solved"] == (2 if contended else 0)
        assert stats["flows_unconstrained"] == (0 if contended else 2)
        # Either way each gets its demand: the flag is about who is
        # asked, never about the answer.
        assert [flow.rate_bps for flow in flows] == [
            flow.demand_bps for flow in flows]

    def test_demands_at_or_below_epsilon_get_zero(self, kernel):
        star = _Star(kernel)
        dust = star.start(0, 3, solver.EPSILON)       # alone, unconstrained
        stats = star.settle()
        assert dust.rate_bps == 0.0
        assert stats["flows_unconstrained"] == 1
        # ... and 0 again from the kernel, beside flows that contend.
        crowd = [star.start(1, 3, 8e8), star.start(2, 3, 8e8)]
        stats = star.settle()
        assert star.down(3) in star.net.realloc._contended
        assert stats["flows_solved"] == 3
        assert dust.rate_bps == 0.0
        assert [flow.rate_bps for flow in crowd] == [5e8, 5e8]

    def test_a_path_crossing_one_direction_twice(self, kernel):
        star = _Star(kernel)
        up0, down1, up1 = (star.links[0].forward, star.down(1),
                           star.links[1].forward)
        walk = star.net.compute_path

        def looped(flow):
            # No forwarding state bounces a flow off a host; the engine
            # only sees hops, so hand it the walk directly.
            if flow is bouncer:
                return PathResult(PathStatus.DELIVERED,
                                  hops=[up0, down1, up1, down1])
            return walk(flow)

        star.net.compute_path = looped
        bouncer = star.start(0, 1, 6e8)
        stats = star.settle()
        # Offered once (600 Mb/s fits), carried twice.
        assert star.net.realloc._contended == set()
        assert stats["flows_solved"] == 0
        assert bouncer.rate_bps == 6e8
        assert down1.current_load_bps == 12e8
        other = star.start(2, 1, 5e8)
        star.settle()
        # 600 + 500 Mb/s offered: contended, shared as one crossing each.
        assert down1 in star.net.realloc._contended
        assert (bouncer.rate_bps, other.rate_bps) == (5e8, 5e8)
        assert down1.current_load_bps == 15e8

    def test_a_seed_direction_no_flow_crosses(self, kernel):
        star = _Star(kernel)
        flow = star.start(0, 1, 4e8)
        before = dict(star.settle())
        idle = star.links[3]
        idle.set_capacity(GBPS / 1000)
        star.net.invalidate_routing()
        after = star.settle()
        assert idle.forward.current_load_bps == 0.0
        assert star.net.realloc._contended == set()
        for key in ("flows_solved", "flows_unconstrained", "rates_changed",
                    "flows_walked"):
            assert after[key] == before[key], key
        assert flow.rate_bps == 4e8

    def test_a_degrade_across_the_boundary_and_back(self, kernel):
        star = _Star(kernel)
        flows = [star.start(0, 2, 3e8), star.start(1, 2, 3e8),
                 star.start(3, 0, 1e8)]
        star.settle()
        assert star.net.realloc._contended == set()
        star.links[2].set_capacity(4e8)           # 600 Mb/s offered on 400
        star.net.invalidate_routing()
        stats = star.settle()
        assert star.net.realloc._contended == {star.down(2)}
        assert [flow.rate_bps for flow in flows] == [2e8, 2e8, 1e8]
        solved = stats["flows_solved"]
        assert solved == 2                        # the bystander is not asked
        star.links[2].set_capacity(GBPS)
        star.net.invalidate_routing()
        stats = star.settle()
        # Was contended, is not: its flows are handed their demand back
        # without a kernel call.
        assert star.net.realloc._contended == set()
        assert stats["flows_solved"] == solved
        assert [flow.rate_bps for flow in flows] == [3e8, 3e8, 1e8]


# ---------------------------------------------------------------------------
# (iv) The quotient hand-over
# ---------------------------------------------------------------------------


def _handover(symmetry, kernel):
    """k=4 fat-tree, static routes (everything through one core), two
    pod-shifted flows per host.  At nominal capacity nothing contends
    (4 hosts x 200 Mb/s per agg->core direction).  t=3: every core-agg
    link drops to a quarter — class-closed, so an active quotient
    solves it at class level and the engine classifies nothing — and
    now every one of those directions contends.  t=5: one pod0->pod1
    flow stops, which no quotient handles: the concrete path resumes
    with that flow's old hops as its only seeds, and the flows it
    re-solves also cross *unseeded* core directions whose flags date
    from before the degrade."""
    topo = FatTreeTopo(k=4, device="router")
    matrix = []
    for pod in range(4):
        for edge in range(2):
            for host in range(2):
                for shift, rate in ((1, 1.2e8), (2, 0.8e8)):
                    matrix.append([f"h{pod}_{edge}_{host}",
                                   f"h{(pod + shift) % 4}_{edge}_{host}",
                                   rate])
    spec = ScenarioSpec(
        name="handover", seed=7, duration=8.0,
        topology=TopologyRecipe("fattree", {"k": 4, "device": "router"}),
        protocol=ProtocolRecipe("static", {}),
        traffic=TrafficRecipe(pattern="matrix", flows=matrix,
                              start_time=1.0, duration=20.0),
        injections=[
            CapacityDegrade(at=3.0, node_a=link.node_a, node_b=link.node_b,
                            factor=0.25, until=7.0)
            for link in topo.link_specs
            if {link.node_a[0], link.node_b[0]} == {"c", "a"}],
        sim_params={"symmetry": True} if symmetry else {})
    exp, __ = ScenarioRunner().materialize(spec)
    net = exp.network
    net.realloc.kernel = kernel
    leaver = next(flow for flow in net.flows
                  if flow.src.name == "h0_0_0" and flow.dst.name == "h1_0_0")
    exp.sim.scheduler.at(5.0, lambda: net.stop_flow(leaver))
    return exp, net


def _state(net):
    return ([(flow.active, flow.rate_bps, flow.delivered_bytes)
             for flow in net.flows],
            [(host.rx_rate_bps, host.tx_rate_bps) for host in net.hosts()],
            [direction.current_load_bps
             for direction in all_directions(net)])


@pytest.mark.parametrize("kernel", KERNELS)
def test_flags_are_rederived_when_the_quotient_hands_back(kernel):
    exp, net = _handover(symmetry=True, kernel=kernel)
    twin_exp, twin = _handover(symmetry=False, kernel=kernel)
    engine = net.realloc

    exp.run(until=2.0)
    assert engine.quotient.active and engine._contended == set()
    exp.run(until=4.0)
    assert engine.quotient.fast_recomputes == 1       # the degrade
    exp.run(until=5.5)
    assert engine.quotient.materializations == 1      # the stop
    assert len(engine._contended) == 8        # c0_0's four links, both ways
    assert_equals_unpruned(net, "after the hand-over")

    # ... and the concrete twin, which classified at every step, agrees
    # on every flow, host and direction to the end of the run (the
    # restore at t=7 is class-level again, then the final materialize).
    twin_exp.run(until=5.5)
    assert_equals_unpruned(twin, "concrete twin")
    for side_exp, side in ((exp, net), (twin_exp, twin)):
        side_exp.run(until=8.0)
        side.finalize_accounting()
    assert _state(net) == _state(twin)
    assert engine.quotient.fast_recomputes == 2
