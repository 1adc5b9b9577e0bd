"""Unit tests: topology descriptions, fat-tree structure, traffic."""

import random

import pytest

from repro.api import Experiment
from repro.core.errors import TopologyError
from repro.dataplane.network import Network
from repro.topology import (
    FatTreeTopo,
    Topo,
    leaf_spine_topo,
    linear_topo,
    star_topo,
    tree_topo,
    wan_topo,
)
from repro.traffic import (
    TrafficSpec,
    all_to_one_pairs,
    cbr_udp_flows,
    demo_workload,
    one_to_all_pairs,
    permutation_pairs,
    random_pairs,
    stride_pairs,
)


class TestTopo:
    def test_duplicate_names_rejected(self):
        topo = Topo()
        topo.add_host("n", "10.0.0.1")
        with pytest.raises(TopologyError):
            topo.add_switch("n")

    def test_link_requires_known_nodes(self):
        topo = Topo()
        topo.add_switch("s1")
        with pytest.raises(TopologyError):
            topo.add_link("s1", "ghost")

    def test_bad_ip_rejected_early(self):
        topo = Topo()
        with pytest.raises(Exception):
            topo.add_host("h", "999.0.0.1")

    def test_realize(self):
        topo = Topo()
        topo.add_host("h1", "10.0.0.1")
        topo.add_switch("s1")
        topo.add_router("r1", router_id="1.1.1.1")
        topo.add_link("h1", "s1")
        topo.add_link("s1", "r1")
        net = Network()
        topo.realize(net)
        assert len(net.nodes) == 3
        assert len(net.links) == 2
        assert net.get_node("r1").router_id == "1.1.1.1"

    def test_counts(self):
        topo = linear_topo(3, hosts_per_switch=2)
        assert topo.node_count() == 9
        assert len(topo.link_specs) == 8


class TestFatTree:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_structural_counts(self, k):
        ft = FatTreeTopo(k=k)
        assert len(ft.hosts()) == k ** 3 // 4 == ft.num_hosts
        assert len(ft.switches()) == 5 * k ** 2 // 4 == ft.num_switches
        assert len(ft.core_switches) == (k // 2) ** 2
        assert len(ft.agg_switches) == k * k // 2
        assert len(ft.edge_switches) == k * k // 2
        # links: hosts + edge-agg mesh + agg-core
        expected_links = ft.num_hosts + k * (k // 2) ** 2 * 2
        assert len(ft.link_specs) == expected_links

    def test_odd_k_rejected(self):
        with pytest.raises(TopologyError):
            FatTreeTopo(k=3)
        with pytest.raises(TopologyError):
            FatTreeTopo(k=0)

    def test_addressing_scheme(self):
        ft = FatTreeTopo(k=4)
        assert ft.host_specs["h0_0_0"].ip == "10.0.0.2"
        assert ("h0_0_0", "e0_0") in {
            (spec.node_a, spec.node_b) for spec in ft.link_specs}
        assert ft.host_subnet["e0_0"] == "10.0.0.0/24"

    def test_unique_ips(self):
        ft = FatTreeTopo(k=6)
        ips = [h.ip for h in ft.host_specs.values()]
        assert len(set(ips)) == len(ips)

    def test_router_variant_asns(self):
        ft = FatTreeTopo(k=4, device="router")
        assert len(ft.routers()) == ft.num_switches
        assert ft.switches() == []
        core_asns = {ft.asn[c] for c in ft.core_switches}
        assert core_asns == {FatTreeTopo.CORE_ASN}
        pod_asns = [ft.asn[s] for s in ft.agg_switches + ft.edge_switches]
        assert len(set(pod_asns)) == len(pod_asns)  # all distinct

    def test_layer_of(self):
        ft = FatTreeTopo(k=4)
        assert ft.layer_of("c0_0") == "core"
        assert ft.layer_of("a1_0") == "agg"
        assert ft.layer_of("e2_1") == "edge"
        assert ft.layer_of("h0_0_0") == "host"

    def test_realized_degree_invariants(self):
        exp = Experiment("deg")
        ft = FatTreeTopo(k=4)
        exp.load_topo(ft)
        net = exp.network
        for name in ft.edge_switches + ft.agg_switches:
            assert len(net.get_node(name).neighbors()) == 4  # k
        for name in ft.core_switches:
            assert len(net.get_node(name).neighbors()) == 4  # k pods

    def test_hosts_in_pod(self):
        """Each pod's k/2 edge switches carry k/2 hosts each, all of that
        pod's hosts."""
        ft = FatTreeTopo(k=4)
        pod0 = {spec.node_a for spec in ft.link_specs
                if spec.node_a in ft.host_specs
                and spec.node_b.startswith("e0_")}
        assert pod0 == {"h0_0_0", "h0_0_1", "h0_1_0", "h0_1_1"}

    def test_bisection(self):
        """Full bisection: every host link runs at line rate."""
        ft = FatTreeTopo(k=4)
        assert sum(spec.capacity_bps for spec in ft.link_specs
                   if spec.node_a in ft.host_specs) == 16e9


class TestBuilders:
    def test_linear(self):
        topo = linear_topo(4, hosts_per_switch=2)
        assert len(topo.hosts()) == 8
        assert len(topo.switches()) == 4

    def test_star(self):
        topo = star_topo(5)
        assert len(topo.hosts()) == 5
        assert len(topo.switches()) == 1
        assert len(topo.link_specs) == 5

    def test_tree(self):
        topo = tree_topo(depth=2, fanout=2)
        assert len(topo.hosts()) == 4
        assert len(topo.switches()) == 3

    def test_leaf_spine(self):
        topo = leaf_spine_topo(num_spines=2, num_leaves=3, hosts_per_leaf=2)
        assert len(topo.switches()) == 5
        assert len(topo.hosts()) == 6
        assert len(topo.link_specs) == 2 * 3 + 6

    def test_wan(self):
        topo = wan_topo()
        assert len(topo.routers()) == 11
        assert len(topo.hosts()) == 11
        # every inter-city link has a realistic delay
        delays = [l.delay for l in topo.link_specs
                  if not (l.node_a.startswith("h_") or l.node_b.startswith("h_"))]
        assert all(d >= 0.003 for d in delays)

    def test_invalid_parameters(self):
        with pytest.raises(TopologyError):
            linear_topo(0)
        with pytest.raises(TopologyError):
            star_topo(0)
        with pytest.raises(TopologyError):
            tree_topo(depth=0)
        with pytest.raises(TopologyError):
            leaf_spine_topo(num_spines=0)


HOSTS = [f"h{i}" for i in range(10)]


class TestPatterns:
    def test_permutation_is_derangement(self):
        pairs = permutation_pairs(HOSTS, seed=1)
        assert len(pairs) == len(HOSTS)
        assert all(src != dst for src, dst in pairs)
        sources = [s for s, __ in pairs]
        targets = [t for __, t in pairs]
        assert sorted(sources) == sorted(HOSTS)
        assert sorted(targets) == sorted(HOSTS)

    def test_permutation_deterministic(self):
        assert permutation_pairs(HOSTS, seed=7) == permutation_pairs(HOSTS, seed=7)

    def test_permutation_seed_sensitivity(self):
        assert permutation_pairs(HOSTS, seed=1) != permutation_pairs(HOSTS, seed=2)

    def test_permutation_tiny(self):
        assert permutation_pairs(["a"]) == []
        assert permutation_pairs([]) == []
        assert permutation_pairs(["a", "b"]) == [("a", "b"), ("b", "a")]

    def test_stride(self):
        pairs = stride_pairs(["a", "b", "c", "d"], stride=2)
        assert pairs == [("a", "c"), ("b", "d"), ("c", "a"), ("d", "b")]

    def test_stride_zero_rejected(self):
        with pytest.raises(ValueError):
            stride_pairs(HOSTS, stride=0)
        with pytest.raises(ValueError):
            stride_pairs(HOSTS, stride=len(HOSTS))

    def test_random_no_self(self):
        pairs = random_pairs(HOSTS, seed=3)
        assert all(src != dst for src, dst in pairs)

    def test_all_to_one(self):
        pairs = all_to_one_pairs(HOSTS)
        assert len(pairs) == len(HOSTS) - 1
        assert all(dst == HOSTS[0] for __, dst in pairs)

    def test_one_to_all(self):
        pairs = one_to_all_pairs(HOSTS, source_index=2)
        assert len(pairs) == len(HOSTS) - 1
        assert all(src == HOSTS[2] for src, __ in pairs)


class TestGenerators:
    def make_net(self):
        from repro.core.simulation import Simulation
        sim = Simulation()
        net = Network()
        sim.attach_network(net)
        hosts = [net.add_host(f"h{i}", f"10.0.0.{i + 1}") for i in range(4)]
        switch = net.add_switch("s1")
        for host in hosts:
            net.add_link(host, switch)
        return sim, net

    def test_cbr_flows_created(self):
        sim, net = self.make_net()
        spec = TrafficSpec(rate_bps=5e8, start_time=1.0, duration=2.0)
        flows = cbr_udp_flows(net, [("h0", "h1"), ("h2", "h3")], spec=spec)
        assert len(flows) == 2
        assert flows[0].demand_bps == 5e8
        assert flows[0].start_time == 1.0
        assert flows[0].end_time == 3.0
        assert len(net.flows) == 2

    def test_unique_source_ports(self):
        sim, net = self.make_net()
        flows = cbr_udp_flows(net, [("h0", "h1"), ("h0", "h2")], register=False)
        assert flows[0].key.src_port != flows[1].key.src_port

    def test_stagger_spreads_starts(self):
        sim, net = self.make_net()
        spec = TrafficSpec(rate_bps=1e6, start_time=0.0, duration=1.0,
                           stagger=5.0)
        flows = cbr_udp_flows(net, [("h0", "h1"), ("h1", "h2"), ("h2", "h3")],
                              spec=spec, rng=random.Random(1))
        starts = {f.start_time for f in flows}
        assert len(starts) == 3

    def test_demo_workload_covers_all_hosts(self):
        sim, net = self.make_net()
        flows = demo_workload(net, [h.name for h in net.hosts()],
                              rate_bps=1e9, duration=5.0)
        assert len(flows) == 4
        assert all(f.demand_bps == 1e9 for f in flows)
        assert all(f.src is not f.dst for f in flows)
