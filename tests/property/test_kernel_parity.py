"""Property tests: the two max-min kernels are interchangeable.

The contract is that which kernel runs is a pure speed matter — the
engine picks from whether numpy imports and how many flows the network
has registered (``arrays.ARRAYS_MIN_FLOWS``), nobody configures it.
This directory's ``conftest.py`` pins that threshold to zero, so
``"auto"`` means arrays on the small networks below; the kernel-rule
section sets it back.  Three layers of parity are pinned here:

* **Kernel level** — ``bottleneck_filling_arrays`` replays the heap
  kernel's float arithmetic in saturation-level batches, so on any
  interned (all-ones) instance the two must agree *bit for bit* (``==``
  per element, not approx).  Both are held to tolerance against the
  test-only oracle ``maxmin_progressive.max_min_allocation``, whose
  round-based progressive filling uses different arithmetic.
* **Engine level** — the arrays kernel runs off a struct-of-arrays
  mirror of fluid state that persists across recomputes.  Driving an
  arrays-kernel network and a heap-kernel network through the same
  random churn must yield bit-identical rates *and byte counters*
  (flow, direction, port, host) at every step — across every replay
  trigger of the sealed accrual timeline: stats samples, ``forget()``,
  packets competing for a port counter, a flow re-walked twice and a
  flow stopped and another started under sealed segments, more rate
  changes than the segment bound with no read in between — and a
  ``forget()`` (drop the persisted mirror, re-intern from scratch) must
  reproduce the persisted state's rates exactly.  Loads and host rates
  are one derivation for both kernels, so they are held ``==`` too, and
  a read between a rate change outside a recompute (``stop_flow``,
  ``forget()``) and that recompute returns the values from before it.
* **Scenario level** — full scenario fingerprints (delivered bytes,
  events, recomputations, injection outcomes) are equal across
  {numpy, no numpy} × {symmetry on, off}.

Plus the surface: ``SimulationConfig`` is keyword-only, ``kernel`` is
neither one of its fields nor a ``sim_params`` key, and the engine's
reference-path switch (``ReallocEngine.kernel``) takes exactly ``auto``
and ``heap``.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.errors import ConfigurationError
from repro.core.simulation import Simulation
from repro.dataplane import arrays as arrays_module, solver
from repro.dataplane.arrays import (
    ARRAYS_MIN_FLOWS,
    HAVE_NUMPY,
    SEGMENT_BOUND,
    ArraysState,
)
from repro.dataplane.flow import FluidFlow
from repro.dataplane.flowtable import FlowEntry
from repro.dataplane.fluid import validate_allocation
from repro.dataplane.network import Network
from repro.dataplane.stats import StatsCollector
from repro.openflow.actions import ActionOutput
from repro.openflow.match import Match
from repro.scenarios import (
    LinkFail,
    ProtocolRecipe,
    ScenarioRunner,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
    run_scenario,
)

import realloc_reference as reference
from maxmin_progressive import max_min_allocation

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="arrays kernel needs numpy")

GBPS = 1_000_000_000

# Tie-heavy values: uniform demands over power-of-two capacities make
# exactly-equal saturation levels the common case, which is where the
# heap's index-ordered tie-breaking (and the arrays kernel's
# disjoint-prefix replay of it) actually matters.
CLEAN_DEMANDS = (2.5e8, 5e8, 1e9)
CLEAN_CAPS = (1e9, 2e9, 4e9)


# ---------------------------------------------------------------------------
# Kernel-level parity on random interned instances
# ---------------------------------------------------------------------------


@st.composite
def dense_instances(draw, clean):
    """A random interned instance (demands, caps, link_members,
    flow_links) in the shape ``ReallocEngine`` hands to kernels.

    ``clean=True`` draws from small tie-heavy value sets; ``clean=False``
    draws messy floats (exercises the generic event ordering).
    """
    num_flows = draw(st.integers(min_value=1, max_value=24))
    num_links = draw(st.integers(min_value=1, max_value=12))
    if clean:
        demand = st.sampled_from(CLEAN_DEMANDS)
        capacity = st.sampled_from(CLEAN_CAPS)
    else:
        demand = st.floats(min_value=0.0, max_value=3e9)
        capacity = st.floats(min_value=1e8, max_value=5e9)
    demands = [draw(demand) for __ in range(num_flows)]
    capacities = [draw(capacity) for __ in range(num_links)]
    flow_links = []
    for __ in range(num_flows):
        length = draw(st.integers(0, min(6, num_links)))
        flow_links.append(list(draw(st.permutations(range(num_links)))
                               [:length]))
    # Convention from the engine: link_members only lists flows with
    # demand above EPSILON (zero-demand flows are born frozen).
    link_members = [[] for __ in range(num_links)]
    for fid, links in enumerate(flow_links):
        if demands[fid] > solver.EPSILON:
            for link in links:
                link_members[link].append(fid)
    return demands, capacities, link_members, flow_links


def all_ones(flow_links):
    """The scalar kernel's instances are multiplicity-weighted; a
    concrete instance crosses every link with multiplicity one."""
    return [[(link, 1) for link in links] for links in flow_links]


@needs_numpy
@pytest.mark.parametrize("clean", [False, True], ids=["messy", "ties"])
@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_arrays_bitwise_equals_heap(clean, data):
    """The vectorized kernel replays the heap kernel bit for bit."""
    from repro.dataplane.arrays import bottleneck_filling_arrays

    instance = data.draw(dense_instances(clean))
    demands, capacities, link_members, flow_links = instance
    heap = solver.bottleneck_filling(demands, capacities,
                                     link_members, all_ones(flow_links))
    arrays = bottleneck_filling_arrays(demands, capacities,
                                       link_members, flow_links)
    assert arrays == heap  # exact, element-wise — no tolerance


# Found by hypothesis at the PR-11 seed: five flows cross no link at
# all, and raising flow 7 by exactly its remaining demand rounds an ulp
# short of it.  Progressive filling then froze the round with nothing
# satisfied and left flows 3, 4 and 9 at flow 7's level instead of
# their own demand.
LINKLESS_FLOWS = (
    [0.0, 0.0, 230160292.0, 2605552903.348959, 2924497951.469996, 0.0, 0.0,
     900347903.1306604, 2466895393.6100974, 2506602466.9102626, 0.0,
     1865679742.2790186, 1979401659.4293],
    [2012300094.1420908, 115075026.0, 395240439.0, 100000000.0, 100000000.0,
     690480876.2490236, 100000000.0, 100000000.0],
    [[8, 11], [], [8, 11], [8], [], [8, 11, 12], [], []],
    [[], [], [], [], [], [], [], [], [0, 2, 3, 5], [], [], [0, 2, 5], [5]],
)


@pytest.mark.parametrize("clean", [False, True], ids=["messy", "ties"])
@given(messy=dense_instances(False), ties=dense_instances(True))
@example(messy=LINKLESS_FLOWS, ties=LINKLESS_FLOWS)
@settings(max_examples=120, deadline=None)
def test_all_kernels_reach_the_maxmin_allocation(clean, messy, ties):
    """Both kernels land on the (unique) max-min point the oracle
    computes, and every result is a valid allocation."""
    demands, capacities, link_members, flow_links = ties if clean else messy

    paths = {fid: list(links) for fid, links in enumerate(flow_links)}
    dense_demands = dict(enumerate(demands))
    caps = dict(enumerate(capacities))
    reference = max_min_allocation(paths, dense_demands, caps)

    results = {"heap": solver.bottleneck_filling(
        demands, capacities, link_members, all_ones(flow_links))}
    if HAVE_NUMPY:
        from repro.dataplane.arrays import bottleneck_filling_arrays

        results["arrays"] = bottleneck_filling_arrays(
            demands, capacities, link_members, flow_links)
    for name, rates in results.items():
        for fid in range(len(demands)):
            scale = max(1.0, demands[fid])
            assert abs(rates[fid] - reference[fid]) < 1e-6 * scale, (
                f"kernel {name} diverged on flow {fid}")
        problems = validate_allocation(
            paths, dense_demands, caps, dict(enumerate(rates)),
            tolerance=1e-5)
        assert problems == [], (name, problems)


# ---------------------------------------------------------------------------
# Engine-level parity: persisted struct-of-arrays state across churn
# ---------------------------------------------------------------------------


def build_leaf_spine(kernel):
    """2 spines, 3 edge routers, 2 hosts per edge, ECMP uplinks.

    The last host hangs off an OpenFlow switch with two static
    entries, so its flows carry flow-table entries: while one is live,
    accrual takes the scalar per-entry path, and the sealed timeline
    must be replayed ahead of it.
    """
    sim = Simulation(SimulationConfig())
    net = Network(f"parity-{kernel}")
    sim.attach_network(net)
    net.realloc.kernel = kernel
    spines = [net.add_router(f"s{i}") for i in range(2)]
    edges = [net.add_router(f"e{i}") for i in range(3)]
    hosts = []
    links = []
    for e_idx, edge in enumerate(edges):
        for h_idx in range(2):
            host = net.add_host(f"h{e_idx}_{h_idx}",
                                f"10.0.{e_idx}.{h_idx + 1}",
                                gateway=f"10.0.{e_idx}.254")
            hosts.append(host)
            if (e_idx, h_idx) == (2, 1):
                switch = net.add_switch("sw")
                net.add_link(host, switch, capacity_bps=GBPS)
                for in_port, out_port in ((1, 2), (2, 1)):
                    switch.table.add(FlowEntry(
                        match=Match(in_port=in_port),
                        actions=[ActionOutput(out_port)]))
                host = switch
            links.append(net.add_link(host, edge, capacity_bps=GBPS))
            edge.fib.install(f"10.0.{e_idx}.{h_idx + 1}/32",
                             [(h_idx + 1, None)])
    for edge in edges:
        for spine in spines:
            links.append(net.add_link(edge, spine,
                                      capacity_bps=GBPS // 2))
    for e_idx, edge in enumerate(edges):
        for other in range(3):
            if other != e_idx:
                edge.fib.install(f"10.0.{other}.0/24",
                                 [(3, None), (4, None)])
    for spine in spines:
        for e_idx in range(3):
            spine.fib.install(f"10.0.{e_idx}.0/24", [(e_idx + 1, None)])
    return sim, net, hosts, links, edges, switch


_rate_ops = st.one_of(
    st.tuples(st.just("start_flow"), st.integers(0, 5), st.integers(0, 5),
              st.sampled_from(CLEAN_DEMANDS + (1.7e8, 2e9))),
    st.tuples(st.just("stop_flow"), st.integers(0, 31)),
    st.tuples(st.just("fail_link"), st.integers(0, 11)),
    st.tuples(st.just("restore_link"), st.integers(0, 11)),
    st.tuples(st.just("degrade"), st.integers(0, 11),
              st.floats(0.1, 1.0)),
    # Re-point an edge router's route to another edge at one uplink or
    # both: flows change path (their mirror rows are re-interned) while
    # the live set stays what it was.
    st.tuples(st.just("reroute"), st.integers(0, 2), st.integers(0, 2),
              st.sampled_from(((3,), (4,), (3, 4)))),
    # A packet through Network.transmit: its bytes land on port
    # counters the accrual timeline also writes.
    st.tuples(st.just("packet"), st.integers(0, 31)),
)

_churn_ops = st.one_of(
    _rate_ops,
    st.tuples(st.just("advance"), st.floats(0.001, 0.05)),
    st.tuples(st.just("sample")),     # StatsCollector.sample_now()
    st.tuples(st.just("forget")),     # realloc.forget(), mid-run
    # Several rate changes inside one run window: nothing reads a
    # counter in between, so segments pile up sealed (past the bound
    # when the batch is long enough) and freed flow slots get reused
    # underneath them.
    st.tuples(st.just("batch"),
              st.lists(_rate_ops, min_size=2, max_size=SEGMENT_BOUND + 8)),
)

# Pinned histories for the replay triggers random draws rarely line up.
# Adding x to a counter B rounds x to B's ulp, so while a counter stays
# inside one binade its adds commute and a wrong order goes unseen:
# every history below starts its flows inside the batch, where the
# counters are a few addends old and cross a binade at almost each add.
# More rate changes than the segment bound between two reads.
_PAST_THE_BOUND = [
    ("batch", [("start_flow", 0, 2, 1.7e8), ("start_flow", 1, 4, 1e9),
               ("start_flow", 3, 5, 2.5e8)]
     + [("degrade", link % 12, 0.31 + 0.037 * link)
        for link in range(SEGMENT_BOUND + 6)]),
]
# Stop-then-start while the segment sealed at the stop is still
# pending; packets compete for port counters between the rate changes;
# a reroute re-interns a live flow's row.
_SLOT_REUSE = [
    ("batch", [("start_flow", 0, 2, 1.7e8), ("start_flow", 1, 3, 1e9),
               ("packet", 0), ("start_flow", 0, 3, 2e9), ("packet", 1),
               ("degrade", 0, 0.37), ("packet", 0),
               ("stop_flow", 0), ("packet", 1), ("degrade", 1, 0.73),
               ("packet", 2), ("start_flow", 4, 0, 2e9),
               ("reroute", 0, 1, (3,)), ("packet", 1),
               ("degrade", 6, 0.59), ("stop_flow", 1), ("packet", 2),
               ("start_flow", 2, 5, 1.7e8), ("reroute", 0, 1, (4,)),
               ("degrade", 4, 0.83), ("stop_flow", 4),
               ("degrade", 7, 0.47)]),
    ("sample",), ("forget",), ("advance", 0.0213), ("packet", 2),
    ("degrade", 0, 0.91),
]
# Flow 0's host link fails and comes back between two reads: the flow
# is re-walked twice and owns two rows in one replay, whose bytes must
# land on its one counter (keyed by row, one partial sum is lost).
_REWALKED_TWICE = [
    ("batch", [("start_flow", 0, 2, 1.7e8), ("start_flow", 1, 3, 1e9),
               ("degrade", 6, 0.59), ("fail_link", 0), ("degrade", 7, 0.47),
               ("restore_link", 0), ("degrade", 0, 0.91),
               ("degrade", 1, 0.67)]),
]
# A flow stops and another starts inside one batch: the stopped flow's
# row is retired, not reused, until its sealed segments are replayed.
_STOP_THEN_START = [
    ("batch", [("start_flow", 0, 2, 1.7e8), ("start_flow", 1, 3, 1e9),
               ("degrade", 6, 0.59), ("stop_flow", 0),
               ("start_flow", 4, 1, 2.5e8), ("degrade", 7, 0.47),
               ("degrade", 0, 0.91)]),
]
# A flow carrying flow-table entries (host 5 sits behind the switch)
# arrives while vectorized segments are sealed: the scalar per-entry
# pass that takes over must land after them, and hand back after it.
_ENTRIES_UNDER_SEALED = [
    ("batch", [("start_flow", 0, 2, 1.7e8), ("start_flow", 1, 3, 1e9),
               ("degrade", 0, 0.37), ("degrade", 1, 0.73),
               ("degrade", 6, 0.59), ("start_flow", 2, 5, 2e9),
               ("degrade", 7, 0.47), ("degrade", 0, 0.91),
               ("stop_flow", 2), ("degrade", 1, 0.67),
               ("degrade", 6, 0.29)]),
]


class _Driver:
    """Applies one op stream to one network (indices make the same
    sequence replay identically on differently-kernelled networks)."""

    STEP = 1.37e-4   # not round: no byte amount comes out exact

    def __init__(self, kernel):
        (self.sim, self.net, self.hosts, self.links,
         self.edges, self.switch) = build_leaf_spine(kernel)
        self.stats = StatsCollector(self.net)
        self.flows = []
        self.t = 0.0
        self.flow_seq = 0

    def mutate(self, op):
        """Perform one op at the current simulated instant."""
        kind = op[0]
        if kind == "start_flow":
            __, src, dst, demand = op
            if src != dst:
                flow = FluidFlow(self.hosts[src], self.hosts[dst],
                                 demand_bps=demand,
                                 src_port=41000 + self.flow_seq,
                                 start_time=self.net.now)
                self.flow_seq += 1
                self.net.flows.append(flow)
                self.flows.append(flow)
                self.net.start_flow(flow)
        elif kind == "stop_flow":
            if self.flows:
                self.net.stop_flow(self.flows[op[1] % len(self.flows)])
        elif kind == "fail_link":
            self.links[op[1]].set_up(False)
            self.net.invalidate_routing()
        elif kind == "restore_link":
            self.links[op[1]].set_up(True)
            self.net.invalidate_routing()
        elif kind == "degrade":
            link = self.links[op[1]]
            link.set_capacity(link.nominal_capacity_bps * op[2])
            self.net.invalidate_routing()
        elif kind == "reroute":
            __, edge, other, ports = op
            if edge != other:
                self.edges[edge].fib.install(
                    f"10.0.{other}.0/24", [(port, None) for port in ports])
                self.net.invalidate_routing()
        elif kind == "packet":
            if self.flows:
                flow = self.flows[op[1] % len(self.flows)]
                self.net.transmit(flow.src, [(1, flow.first_packet())])
        elif kind == "sample":
            self.stats.sample_now()
        elif kind == "forget":
            self.net.realloc.forget()

    def apply(self, op):
        kind = op[0]
        if kind == "batch":
            for nth, sub in enumerate(op[1]):
                # Unequal gaps: equal rates over equal intervals would
                # make neighbouring segments' addends commute exactly.
                self.t += self.STEP * (1 + nth % 3)
                self.sim.scheduler.at(self.t,
                                      lambda sub=sub: self.mutate(sub))
        elif kind == "advance":
            self.t += op[1]
        else:
            self.mutate(op)
        self.t += self.STEP
        self.sim.run(until=self.t)

    def byte_counters(self):
        """Every counter the accrual timeline writes, in a fixed order."""
        out = [flow.delivered_bytes for flow in self.flows]
        for link in self.links:
            for direction in (link.forward, link.reverse):
                out += [direction.bytes_carried, direction.src_port.tx_bytes,
                        direction.dst_port.rx_bytes]
        for host in self.hosts:
            out += [host.tx_bytes, host.rx_bytes]
        for entry in self.switch.table.entries():
            out += [entry.byte_count, entry.last_used_at]
        return out


@needs_numpy
@given(st.lists(_churn_ops, min_size=1, max_size=30))
@example(_PAST_THE_BOUND)
@example(_SLOT_REUSE)
@example(_ENTRIES_UNDER_SEALED)
@example(_REWALKED_TWICE)
@example(_STOP_THEN_START)
@settings(max_examples=40, deadline=None)
def test_arrays_engine_matches_heap_under_churn(ops):
    """Persisted-intern parity: the struct-of-arrays state the arrays
    kernel keeps across recomputes produces bit-identical rates and
    byte counters to the heap engine at every step of a random churn
    sequence — the heap engine accrues flow by flow at every rate
    change, the arrays engine seals and replays — and dropping it
    (``forget``) and re-interning from scratch reproduces the
    persisted rates exactly.  Loads and host rates come from the one
    delta path both kernels share, so they are held ``==`` too."""
    arr = _Driver("auto")
    heap = _Driver("heap")
    assert arr.net.realloc.effective_kernel() == "arrays"
    assert heap.net.realloc.effective_kernel() == "heap"

    for step, op in enumerate(ops):
        arr.apply(op)
        heap.apply(op)
        assert len(arr.flows) == len(heap.flows)
        for fa, fb in zip(arr.flows, heap.flows):
            where = f"step {step} op {op} flow {fa.name}"
            assert fa.active == fb.active, where
            assert fa.rate_bps == fb.rate_bps, where  # bit-for-bit
        assert arr.byte_counters() == heap.byte_counters(), (
            f"step {step} op {op}")
        for la, lb in zip(arr.links, heap.links):
            for da, db in ((la.forward, lb.forward),
                           (la.reverse, lb.reverse)):
                assert da.current_load_bps == db.current_load_bps, step
        for ha, hb in zip(arr.hosts, heap.hosts):
            assert (ha.rx_rate_bps, ha.tx_rate_bps) == (
                hb.rx_rate_bps, hb.tx_rate_bps), f"step {step} {ha.name}"

    # forget() drops the persisted mirror; a from-scratch recompute
    # (fresh interning, fresh component BFS) must land on the exact
    # same rates the incrementally-maintained state produced.
    persisted = [(flow, flow.rate_bps) for flow in arr.flows]
    arr.net.realloc.forget()
    arr.net.invalidate_routing()
    arr.t += 1e-4
    arr.sim.run(until=arr.t)
    for flow, rate in persisted:
        assert flow.rate_bps == rate, f"forget() shifted {flow.name}"


def _reads(driver):
    """Every load and host rate, read through the public names."""
    return ([direction.current_load_bps for link in driver.links
             for direction in (link.forward, link.reverse)],
            [(host.rx_rate_bps, host.tx_rate_bps) for host in driver.hosts])


def _rebuilt(driver):
    """The same values from the full rebuilds, reading no attribute."""
    loads = reference.loads(driver.net)
    rates = reference.host_rates(driver.net)
    return ([loads[direction] for link in driver.links
             for direction in (link.forward, link.reverse)],
            [rates[host] for host in driver.hosts])


_SNAPSHOT_FLOWS = [("start_flow", 0, 2, 1.7e8), ("start_flow", 1, 2, 1e9),
                   ("start_flow", 3, 2, 2.5e8), ("start_flow", 4, 5, 6e8)]


@pytest.mark.parametrize("kernel", ["heap", pytest.param(
    "auto", marks=needs_numpy)])
def test_a_read_before_the_stops_recompute_sees_the_old_rates(kernel):
    driver = _Driver(kernel)
    for op in _SNAPSHOT_FLOWS:
        driver.apply(op)
    net = driver.net
    before = _rebuilt(driver)
    # Nothing was read yet, so nothing is derived but what the stop
    # settles; the recompute it asks for waits out the interval.
    net.recompute_min_interval = 0.5
    recomputes = net.recomputations
    net.stop_flow(driver.flows[1])
    assert driver.flows[1].rate_bps == 0.0
    assert _reads(driver) == before
    driver.t += 0.25
    driver.sim.run(until=driver.t)
    assert net.recomputations == recomputes
    assert _reads(driver) == before
    driver.t += 0.5
    driver.sim.run(until=driver.t)
    assert net.recomputations == recomputes + 1
    after = _reads(driver)
    assert after == _rebuilt(driver) and after != before


@pytest.mark.parametrize("kernel", ["heap", pytest.param(
    "auto", marks=needs_numpy)])
def test_a_read_between_forget_and_the_recompute_sees_the_old_rates(kernel):
    driver = _Driver(kernel)
    for op in _SNAPSHOT_FLOWS:
        driver.apply(op)
    net = driver.net
    before = _rebuilt(driver)
    full = net.realloc.full_recomputes
    net.realloc.forget()
    assert _reads(driver) == before
    # forget() only makes the next recompute full: a stop before it
    # settles its flow's walk like any other.
    net.stop_flow(driver.flows[0])
    assert _reads(driver) == before
    driver.t += driver.STEP
    driver.sim.run(until=driver.t)
    assert net.realloc.full_recomputes == full + 1
    after = _reads(driver)
    assert after == _rebuilt(driver) and after != before


# ---------------------------------------------------------------------------
# Scenario-level parity: fingerprints across kernels and symmetry
# ---------------------------------------------------------------------------


def _scenario_base(injections=()):
    return dict(
        name="kernel-parity", seed=7, duration=10.0,
        topology=TopologyRecipe("fattree", {"k": 4, "device": "router"}),
        protocol=ProtocolRecipe("static", {}),
        traffic=TrafficRecipe(pattern="stride", stride=4,
                              rate_bps=400_000_000.0,
                              start_time=1.0, duration=15.0),
        injections=list(injections),
    )


@pytest.mark.parametrize("injections", [
    pytest.param((), id="steady"),
    pytest.param((LinkFail(at=3.0, node_a="c0_0", node_b="a0_0"),),
                 id="linkfail"),
])
def test_scenario_fingerprint_equal_across_kernels(injections, monkeypatch):
    """One spec, {numpy, no numpy} × {symmetry on, off}: identical
    results on a symmetry-preserving and a symmetry-breaking injection
    set.  The scalar path is reached the way a numpy-less install
    reaches it — the one rule the engine has."""
    base = _scenario_base(injections)
    prints = {}
    for have_numpy in dict.fromkeys((HAVE_NUMPY, False)):
        monkeypatch.setattr(arrays_module, "HAVE_NUMPY", have_numpy)
        for symmetry in (False, True):
            result = run_scenario(ScenarioSpec(
                **base, sim_params={"symmetry": symmetry}))
            assert result.delivered_bytes > 0
            prints[have_numpy, symmetry] = result.fingerprint()
            assert result.diagnostics["realloc"]["kernel"] == (
                "arrays" if have_numpy else "heap")
            if symmetry:
                # A quotient does not pick the kernel: the concrete
                # recomputes between its class-level stretches (at
                # least the one the end-of-run materialize follows)
                # ran on whatever the one rule picks.
                assert result.diagnostics["symmetry"]["materializations"]
    assert len(set(prints.values())) == 1, prints


# ---------------------------------------------------------------------------
# The kernel rule reads the instance size
# ---------------------------------------------------------------------------

#: The value the program ships (the conftest fixture has not run yet).
SHIPPED_MIN_FLOWS = ARRAYS_MIN_FLOWS


@needs_numpy
def test_the_fixture_reaches_small_engines():
    """Guard: under this directory's autouse fixture a ten-flow
    ``"auto"`` engine runs on the mirror, so the suites that compare
    ``"auto"`` with ``"heap"`` on small networks compare two kernels.
    Without it the same engine keeps the scalar path and no mirror."""
    assert arrays_module.ARRAYS_MIN_FLOWS == 0 < SHIPPED_MIN_FLOWS
    starts = [("start_flow", n % 6, (n + 1 + n // 6) % 6, 2.5e8)
              for n in range(10)]
    arr = _Driver("auto")
    for op in starts:
        arr.apply(op)
    assert len(arr.net.flows) == 10
    assert isinstance(arr.net.realloc._arrays, ArraysState)
    assert arr.net.realloc.stats["kernel"] == "arrays"


@needs_numpy
def test_a_handful_of_flows_never_builds_the_mirror(monkeypatch):
    monkeypatch.setattr(arrays_module, "ARRAYS_MIN_FLOWS", SHIPPED_MIN_FLOWS)
    small = _Driver("auto")
    for n in range(10):
        small.apply(("start_flow", n % 6, (n + 1 + n // 6) % 6, 2.5e8))
    small.apply(("sample",))
    assert small.net.realloc._arrays is None
    assert small.net.realloc.stats["kernel"] == "heap"
    assert small.net.realloc.accrual_segments == 0


@needs_numpy
@given(st.lists(_churn_ops, min_size=1, max_size=30),
       st.integers(min_value=1, max_value=6))
@example(_PAST_THE_BOUND + _SLOT_REUSE, 3)
@example(_SLOT_REUSE + _ENTRIES_UNDER_SEALED, 5)
@settings(max_examples=40, deadline=None)
def test_flows_registered_mid_run_cross_the_rule_once(ops, threshold):
    """Flows registered while the run goes on take the network over the
    threshold: the engine switches heap → arrays once, bulk-interning
    the walks it holds, never back, and rates, loads and byte counters
    equal a forced-heap engine's after every step."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrays_module, "ARRAYS_MIN_FLOWS", threshold)
        auto = _Driver("auto")
        heap = _Driver("heap")
        ran = []
        for step, op in enumerate(ops):
            auto.apply(op)
            heap.apply(op)
            engine = auto.net.realloc
            ran.append(engine.effective_kernel())
            assert ran[-1] == ("arrays" if len(auto.net.flows) >= threshold
                               else "heap")
            if ran[-1] == "heap":
                assert engine._arrays is None
            where = f"step {step} op {op}"
            assert ([f.rate_bps for f in auto.flows]
                    == [f.rate_bps for f in heap.flows]), where
            assert auto.byte_counters() == heap.byte_counters(), where
            assert ([(link.forward.current_load_bps,
                      link.reverse.current_load_bps) for link in auto.links]
                    == [(link.forward.current_load_bps,
                         link.reverse.current_load_bps)
                        for link in heap.links]), where
        assert ran == sorted(ran, reverse=True)  # "heap"… then "arrays"…
        assert heap.net.realloc._arrays is None


def _sized_scenario(flows):
    """Stride traffic below the shipped threshold, or a random matrix
    above it, on a routed k=4 fat-tree with one fabric link cut."""
    base = _scenario_base((LinkFail(at=3.0, node_a="c0_0", node_b="a0_0"),))
    if flows is not None:
        rng = random.Random(flows)
        hosts = base["topology"].build().hosts()
        base["traffic"] = TrafficRecipe(
            pattern="matrix",
            flows=[[*rng.sample(hosts, 2), rng.choice((4e7, 2.5e8, 6e8))]
                   for __ in range(flows)],
            start_time=1.0, duration=6.0, stagger=2.0)
    return ScenarioSpec(**base)


def _scenario_counters(spec):
    """Fingerprint, what ran, and every byte counter of one run."""
    runner = ScenarioRunner()
    result = runner.run(spec)
    exp, __ = runner.materialize(spec)
    exp.run(until=spec.duration)
    net = exp.network
    net.finalize_accounting()
    counters = [flow.delivered_bytes for flow in net.flows]
    for link in net.links:
        for direction in (link.forward, link.reverse):
            counters += [direction.bytes_carried, direction.src_port.tx_bytes,
                         direction.dst_port.rx_bytes]
    for host in net.hosts():
        counters += [host.tx_bytes, host.rx_bytes]
    assert sum(counters) > 0
    return (result.fingerprint(), counters, len(net.flows),
            result.diagnostics["realloc"]["kernel"])


@needs_numpy
@pytest.mark.parametrize("flows", [
    pytest.param(None, id="below"),
    pytest.param(SHIPPED_MIN_FLOWS + 22, id="above"),
])
def test_scenarios_equal_at_every_threshold(flows, monkeypatch):
    """The threshold at 0, as shipped and at 10⁹: one fingerprint, one
    set of byte counters, and ``diagnostics.realloc.kernel`` says which
    kernel ran."""
    spec = _sized_scenario(flows)
    runs = {}
    for threshold in (0, SHIPPED_MIN_FLOWS, 10**9):
        monkeypatch.setattr(arrays_module, "ARRAYS_MIN_FLOWS", threshold)
        fingerprint, counters, registered, kernel = _scenario_counters(spec)
        assert kernel == ("arrays" if registered >= threshold else "heap")
        runs[threshold] = (fingerprint, counters)
    assert registered == (16 if flows is None else flows)
    assert runs[0] == runs[SHIPPED_MIN_FLOWS] == runs[10**9]


# ---------------------------------------------------------------------------
# Config / spec surface
# ---------------------------------------------------------------------------


class TestKernelConfigSurface:
    def test_simulation_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            SimulationConfig(0.001)

    def test_kernel_is_not_a_config_or_spec_key(self):
        """The engine selects from what it can observe (numpy or not);
        a spec that still carries the old knob is told what is
        accepted, like any unknown key."""
        with pytest.raises(TypeError):
            SimulationConfig(kernel="heap")
        spec = ScenarioSpec(**_scenario_base(),
                            sim_params={"kernel": "heap"})
        with pytest.raises(ConfigurationError,
                           match="unknown sim_params parameter 'kernel'; "
                                 "accepted: .*symmetry"):
            spec.validate()

    def test_old_kernel_spellings_rejected(self):
        """The reference-path switch names its valid set."""
        engine = Network("setter").realloc
        for bad in ("simd", "arrays", "reference", "legacy", "bottleneck"):
            with pytest.raises(ConfigurationError,
                               match="valid kernels: auto, heap$"):
                engine.kernel = bad
        assert engine.kernel == "auto"

    def test_auto_ignores_the_quotient(self, monkeypatch):
        # One rule, no fork on the quotient: arrays when numpy imports
        # and the network is big enough (here: any size, the conftest
        # fixture), heap otherwise or when forced.
        net = Network("rule")
        engine = net.realloc
        expected = "arrays" if HAVE_NUMPY else "heap"
        assert engine.effective_kernel() == expected
        engine.enable_quotient()
        assert engine.effective_kernel() == expected
        monkeypatch.setattr(arrays_module, "ARRAYS_MIN_FLOWS", 1)
        assert engine.effective_kernel() == "heap"  # no flow registered
        monkeypatch.setattr(arrays_module, "ARRAYS_MIN_FLOWS", 0)
        engine.kernel = "heap"
        assert engine.effective_kernel() == "heap"
