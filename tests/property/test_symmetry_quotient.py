"""Property: quotient simulation is bit-for-bit the concrete one.

Every scenario here runs twice — ``symmetry`` off, then on — and the
two result fingerprints (which cover delivered/demanded bytes, event
and recomputation counts, convergence, injection outcomes and SLO
verdicts) must be EQUAL.  Symmetry compression is a pure speed knob:
any observable divergence, however small, is a bug, so these tests
span symmetric fabrics, asymmetric graphs that must degenerate to the
identity partition, symmetry-preserving SRLG churn, and deliberately
symmetry-breaking injections that force copy-on-write refinement or
full fallback to the concrete path.
"""

import os

import pytest

from realloc_reference import all_directions
from repro.dataplane.stats import StatsCollector
from repro.scenarios import (
    CapacityDegrade,
    LinkFail,
    ProtocolRecipe,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
    run_scenario,
)
from repro.scenarios.injections import injection_from_dict
from repro.scenarios.runner import ScenarioRunner
from repro.topology.fattree import FatTreeTopo

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def _graphml(name):
    return os.path.abspath(os.path.join(DATA_DIR, name))


def core_agg_links(k=4):
    """Every core<->agg link of a k-pod fat-tree, as (a, b) names."""
    topo = FatTreeTopo(k=k, device="router")
    return [(link.node_a, link.node_b) for link in topo.link_specs
            if {link.node_a[0], link.node_b[0]} == {"c", "a"}]


def run_pair(topology, injections=(), protocol=("static", {}),
             traffic=None, duration=10.0, seed=7, name="sym"):
    """Run a spec concrete and quotient; pin fingerprint equality.

    Returns (concrete result, quotient result) so callers can make
    extra assertions about the quotient diagnostics.
    """
    if traffic is None:
        traffic = TrafficRecipe(pattern="stride", stride=4,
                                rate_bps=400_000_000.0,
                                start_time=1.0, duration=duration + 5.0)
    base = dict(
        name=name, seed=seed, duration=duration,
        topology=TopologyRecipe(*topology),
        protocol=ProtocolRecipe(*protocol),
        traffic=traffic,
        injections=[injection_from_dict(d) if isinstance(d, dict) else d
                    for d in injections],
    )
    concrete = run_scenario(ScenarioSpec(**base))
    quotient = run_scenario(ScenarioSpec(
        **base, sim_params={"symmetry": True}))
    assert concrete.fingerprint() == quotient.fingerprint(), (
        f"quotient diverged from concrete for {name}: "
        f"{concrete.to_dict()} != {quotient.to_dict()}")
    return concrete, quotient


def symmetry_diag(result):
    return result.diagnostics.get("symmetry", {})


FATTREE4 = ("fattree", {"k": 4, "device": "router"})


class TestSymmetricFabrics:
    def test_fattree_static_stride_compresses(self):
        concrete, quotient = run_pair(FATTREE4)
        assert concrete.delivered_bytes > 0
        diag = symmetry_diag(quotient)
        # 36 nodes collapse to 4 roles; 16 stride flows to one class.
        assert diag["node_compression"] > 1.0
        assert diag["flow_classes"] < diag["flows"]

    def test_fattree_ecmp_static(self):
        run_pair(FATTREE4, protocol=("static", {"ecmp": True}),
                 name="sym-ecmp")

    def test_leafspine_static(self):
        run_pair(("leafspine", {"num_spines": 3, "num_leaves": 4,
                                "hosts_per_leaf": 2, "device": "router"}),
                 name="sym-leafspine")

    def test_no_traffic_no_flows(self):
        # An empty quotient (zero flows) must still track injections.
        run_pair(FATTREE4,
                 injections=[LinkFail(at=3.0, node_a="c0_0",
                                      node_b="a0_0")],
                 traffic=TrafficRecipe(pattern="none"),
                 name="sym-noflows")

    def test_graphml_ring_falls_back(self):
        # A ring's flows can cross one direction class twice; the
        # quotient layer must detect that and run concrete — with
        # identical results.
        run_pair(("graphml", {"path": _graphml("ring4.graphml"),
                              "hosts_per_node": 1}),
                 traffic=TrafficRecipe(pattern="stride", stride=1,
                                       rate_bps=2e9, start_time=1.0,
                                       duration=15.0),
                 name="sym-ring")

    def test_graphml_star(self):
        run_pair(("graphml", {"path": _graphml("star3.graphml"),
                              "hosts_per_node": 2}),
                 traffic=TrafficRecipe(pattern="stride", stride=2,
                                       rate_bps=3e8, start_time=1.0,
                                       duration=15.0),
                 name="sym-star")


class TestAsymmetricDegeneratesToIdentity:
    def test_graphml_mesh_identity(self):
        concrete, quotient = run_pair(
            ("graphml", {"path": _graphml("mesh5.graphml")}),
            traffic=TrafficRecipe(pattern="stride", stride=1,
                                  rate_bps=2e8, start_time=1.0,
                                  duration=15.0),
            name="sym-mesh")
        diag = symmetry_diag(quotient)
        assert diag.get("node_compression") == 1.0

    def test_wan_identity(self):
        concrete, quotient = run_pair(
            ("wan", {}),
            traffic=TrafficRecipe(pattern="pairs",
                                  pairs=[["h_seattle", "h_newyork"],
                                         ["h_denver", "h_atlanta"]],
                                  rate_bps=5e8, start_time=1.0,
                                  duration=15.0),
            duration=12.0, name="sym-wan")
        diag = symmetry_diag(quotient)
        assert diag.get("node_compression") == 1.0


class TestSymmetryPreservingChurn:
    def test_srlg_degrade_takes_fast_path(self):
        # Degrade EVERY core-agg link together, twice: a class-closed
        # event the quotient handles without materializing.
        srlg = []
        for at in (3.0, 6.0):
            for a, b in core_agg_links():
                srlg.append(CapacityDegrade(at=at, node_a=a, node_b=b,
                                            factor=0.5, until=at + 1.5))
        concrete, quotient = run_pair(FATTREE4, injections=srlg,
                                      name="sym-srlg")
        diag = symmetry_diag(quotient)
        assert diag["fast_recomputes"] > 0

    def test_whole_tier_fail_and_heal(self):
        agg_edge = []
        topo = FatTreeTopo(k=4, device="router")
        pairs = [(l.node_a, l.node_b) for l in topo.link_specs
                 if {l.node_a[0], l.node_b[0]} == {"a", "e"}]
        for a, b in pairs:
            agg_edge.append(CapacityDegrade(at=4.0, node_a=a, node_b=b,
                                            factor=0.25, until=7.0))
        run_pair(FATTREE4, injections=agg_edge, name="sym-tier")


class TestSymmetryBreakingInjections:
    def test_lone_degrade(self):
        a, b = core_agg_links()[0]
        run_pair(FATTREE4,
                 injections=[CapacityDegrade(at=3.0, node_a=a, node_b=b,
                                             factor=0.25, until=6.0)],
                 name="sym-lone-degrade")

    def test_lone_link_fail(self):
        a, b = core_agg_links()[0]
        concrete, quotient = run_pair(
            FATTREE4, injections=[LinkFail(at=3.0, node_a=a, node_b=b)],
            name="sym-lone-fail")
        # A lone topology cut cannot ride the capacity fast path; the
        # layer must have fallen back through materialize+rebuild.
        assert symmetry_diag(quotient)["rebuilds"] > 0

    def test_link_flap(self):
        a, b = core_agg_links()[0]
        run_pair(FATTREE4,
                 injections=[{"kind": "link-flap", "node_a": a,
                              "node_b": b, "at": 2.0, "cycles": 3,
                              "period": 1.0, "duty": 0.5}],
                 name="sym-flap")


class TestTimeStructure:
    def test_staggered_starts(self):
        # Stagger breaks the "every class member has equal delivered
        # bytes" invariant at rebuild time; classes must split.
        run_pair(FATTREE4,
                 traffic=TrafficRecipe(pattern="stride", stride=4,
                                       rate_bps=4e8, start_time=1.0,
                                       duration=20.0, stagger=0.37),
                 name="sym-stagger")

    def test_traffic_ends_before_horizon(self):
        run_pair(FATTREE4,
                 traffic=TrafficRecipe(pattern="stride", stride=4,
                                       rate_bps=4e8, start_time=1.0,
                                       duration=4.0),
                 duration=12.0, name="sym-shortflows")

    def test_seed_variation(self):
        for seed in (1, 2, 3):
            run_pair(FATTREE4,
                     traffic=TrafficRecipe(pattern="random",
                                           rate_bps=3e8, start_time=1.0,
                                           duration=15.0),
                     seed=seed, name=f"sym-random-{seed}")


def stopped_spec(symmetry):
    """Pod-shifted flows leaving in staggered waves: every stop lands
    while the quotient holds the rates."""
    return ScenarioSpec(
        name="sym-stopped", seed=7, duration=10.0,
        topology=TopologyRecipe(*FATTREE4),
        protocol=ProtocolRecipe("static", {}),
        traffic=TrafficRecipe(pattern="stride", stride=4,
                              rate_bps=600_000_000.0, start_time=1.0,
                              duration=4.0, stagger=2.0),
        sim_params={"symmetry": symmetry})


def degrade_spec(symmetry):
    """A class-closed degrade that rides the class-level fast path;
    the quotient still holds when the run ends."""
    return ScenarioSpec(
        name="sym-reads", seed=7, duration=8.0,
        topology=TopologyRecipe(*FATTREE4),
        protocol=ProtocolRecipe("static", {}),
        traffic=TrafficRecipe(pattern="stride", stride=4,
                              rate_bps=900_000_000.0, start_time=1.0,
                              duration=10.0),
        injections=[CapacityDegrade(at=3.0, node_a=a, node_b=b,
                                    factor=0.25)
                    for a, b in core_agg_links()],
        sim_params={"symmetry": symmetry})


def held_stop_spec(symmetry):
    """Flows leaving at t = 4 while the quotient holds a class-closed
    degrade from 3.9; run with ``recompute_min_interval = 0.5``, the
    recompute that evicts them is held back to 4.4."""
    return ScenarioSpec(
        name="sym-held-stop", seed=7, duration=8.0,
        topology=TopologyRecipe(*FATTREE4),
        protocol=ProtocolRecipe("static", {}),
        traffic=TrafficRecipe(pattern="stride", stride=4,
                              rate_bps=900_000_000.0, start_time=1.0,
                              duration=3.0),
        injections=[CapacityDegrade(at=3.9, node_a=a, node_b=b,
                                    factor=0.25)
                    for a, b in core_agg_links()],
        sim_params={"symmetry": symmetry})


class TestConcreteStateAfterMaterialize:
    """The fingerprint covers bytes and counts; this pins the concrete
    *objects* a materialize leaves behind."""

    @staticmethod
    def _final_state(symmetry):
        spec = stopped_spec(symmetry)
        exp, __ = ScenarioRunner().materialize(spec)
        exp.run(until=spec.duration)
        net = exp.network
        net.finalize_accounting()
        return (
            [(flow.active, flow.rate_bps, flow.delivered_bytes)
             for flow in net.flows],
            [(host.rx_rate_bps, host.tx_rate_bps) for host in net.hosts()],
            [direction.current_load_bps
             for direction in all_directions(net)],
            net.realloc.quotient,
        )

    def test_stopped_flows_keep_their_zero_rate(self):
        # materialize() used to write the class rate back onto member
        # flows stop_flow() had just zeroed; they were then evicted
        # from the cache holding 250-600 Mb/s while inactive.
        flows, hosts, loads, __ = self._final_state(symmetry=False)
        q_flows, q_hosts, q_loads, quotient = self._final_state(symmetry=True)
        assert quotient.materializations > 0
        assert len(flows) == 16
        assert all(state[:2] == (False, 0.0) for state in flows)
        assert q_flows == flows      # exact, per flow
        assert q_hosts == hosts
        assert q_loads == loads

    @staticmethod
    def _byte_counters(spec, min_interval):
        exp, __ = ScenarioRunner().materialize(spec)
        exp.network.recompute_min_interval = min_interval
        exp.run(until=spec.duration)
        net = exp.network
        net.finalize_accounting()
        counters = [value for host in net.hosts()
                    for value in (host.rx_bytes, host.tx_bytes)]
        for direction in all_directions(net):
            counters += [direction.bytes_carried,
                         direction.src_port.tx_bytes,
                         direction.dst_port.rx_bytes]
        delivered = [flow.delivered_bytes for flow in net.flows]
        return delivered, counters, net.realloc.quotient

    @pytest.mark.parametrize("make_spec,min_interval", [
        pytest.param(stopped_spec, 0.0, id="stopped_spec"),
        pytest.param(degrade_spec, 0.0, id="degrade_spec"),
        pytest.param(held_stop_spec, 0.5, id="held_stop_spec")])
    def test_byte_counters_equal_the_concrete_run(self, make_spec,
                                                  min_interval):
        # Bytes accrued while the quotient held used to reach only the
        # flows' delivered_bytes: host, port and direction counters
        # read 0.0 after a run that ended under the quotient.  And a
        # flow stopped before a held-back recompute kept earning its
        # class's bytes until that recompute materialized the quotient.
        delivered, counters, __ = self._byte_counters(make_spec(False),
                                                      min_interval)
        q_delivered, q_counters, quotient = self._byte_counters(
            make_spec(True), min_interval)
        assert quotient.materializations > 0
        assert sum(counters) > 0
        assert q_delivered == delivered
        # One credit per flow at materialize instead of one add per
        # accrual segment: equal up to float reassociation.
        assert q_counters == pytest.approx(counters, rel=1e-12)


class LoadSampler(StatsCollector):
    """The periodic stats sampler, also reading every direction's load
    at each sample."""

    def __init__(self, network, interval):
        super().__init__(network, interval)
        self.loads = []

    def sample_now(self):
        sample = super().sample_now()
        self.loads.append([direction.current_load_bps
                           for direction in all_directions(self.network)])
        return sample


class TestRatesReadWhileTheQuotientHolds:
    """Loads and host rates read mid-run must be the concrete run's:
    they derive from the class rates while the quotient holds, not
    from the rates of the last concrete recompute."""

    @staticmethod
    def _observed(symmetry):
        spec = degrade_spec(symmetry)
        exp, __ = ScenarioRunner().materialize(spec)
        stats = exp.stats = LoadSampler(exp.network,
                                        exp.sim.config.stats_interval)
        stats.attach(exp.sim)
        result = exp.run(until=spec.duration)
        samples = [(s.time, s.aggregate_rx_bps, s.host_rx_bps, loads)
                   for s, loads in zip(stats.samples, stats.loads)]
        return samples, result.aggregate_rx_bps, exp.network.realloc.quotient

    def test_samples_and_result_equal_the_concrete_run(self):
        samples, aggregate, __ = self._observed(symmetry=False)
        q_samples, q_aggregate, quotient = self._observed(symmetry=True)
        assert quotient.fast_recomputes > 0 and quotient.active
        assert any(time >= 3.0 for time, *__ in samples)
        assert q_samples == samples
        assert q_aggregate == aggregate


class TestProtocolGating:
    def test_ospf_runs_concrete_with_note(self):
        spec = dict(
            name="sym-ospf", seed=3, duration=14.0,
            topology=TopologyRecipe("wan", {}),
            protocol=ProtocolRecipe("ospf", {"hello_interval": 1.0,
                                             "dead_interval": 4.0}),
            traffic=TrafficRecipe(pattern="pairs",
                                  pairs=[["h_seattle", "h_newyork"]],
                                  rate_bps=5e8, start_time=2.0,
                                  duration=10.0),
            injections=[],
        )
        concrete = run_scenario(ScenarioSpec(**spec))
        gated = run_scenario(ScenarioSpec(
            **spec, sim_params={"symmetry": True}))
        assert concrete.fingerprint() == gated.fingerprint()
        diag = symmetry_diag(gated)
        assert diag.get("active") is False
        assert "not quotientable" in diag.get("reason", "")
