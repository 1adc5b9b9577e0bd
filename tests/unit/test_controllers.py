"""Unit tests: controller apps — topology view, learning switch,
shortest path, ECMP, Hedera demand estimation and Global First Fit."""

import pytest

from repro.api import Experiment
from repro.controllers import (
    FiveTupleEcmpApp,
    GlobalFirstFit,
    HederaApp,
    LearningSwitchApp,
    ProactiveShortestPathApp,
    TopologyView,
    estimate_demands,
)
from repro.netproto.addr import IPv4Address
from repro.netproto.packet import FiveTuple, IPPROTO_UDP
from repro.topology import FatTreeTopo, leaf_spine_topo


@pytest.fixture
def fat_tree_exp():
    exp = Experiment("view-test")
    exp.load_topo(FatTreeTopo(k=4))
    return exp


class TestTopologyView:
    def test_host_location(self, fat_tree_exp):
        view = fat_tree_exp.topology_view()
        loc = view.locate_ip("10.0.0.2")
        assert loc is not None
        assert loc.host_name == "h0_0_0"
        assert loc.switch_name == "e0_0"

    def test_locate_unknown(self, fat_tree_exp):
        view = fat_tree_exp.topology_view()
        assert view.locate_ip("99.9.9.9") is None

    def test_locate_by_mac(self, fat_tree_exp):
        """A host's location names the host that carries its MAC."""
        view = fat_tree_exp.topology_view()
        network = fat_tree_exp.network
        host = network.get_node("h0_0_0")
        located = network.get_node(view.locate_ip(host.ip).host_name)
        assert located.mac == host.mac

    def test_switch_count(self, fat_tree_exp):
        view = fat_tree_exp.topology_view()
        assert len(view.switches()) == 20  # 5k^2/4 with k=4

    def test_equal_cost_paths_intra_pod(self, fat_tree_exp):
        view = fat_tree_exp.topology_view()
        paths = view.equal_cost_paths("e0_0", "e0_1")
        assert len(paths) == 2  # via each agg in the pod
        for path in paths:
            assert len(path) == 3

    def test_equal_cost_paths_inter_pod(self, fat_tree_exp):
        view = fat_tree_exp.topology_view()
        paths = view.equal_cost_paths("e0_0", "e1_0")
        assert len(paths) == 4  # k^2/4 core choices
        for path in paths:
            assert len(path) == 5

    def test_same_switch_trivial_path(self, fat_tree_exp):
        view = fat_tree_exp.topology_view()
        assert view.equal_cost_paths("e0_0", "e0_0") == [["e0_0"]]

    def test_port_toward(self, fat_tree_exp):
        view = fat_tree_exp.topology_view()
        port = view.port_toward("e0_0", "a0_0")
        assert port is not None
        assert view.port_toward("e0_0", "c0_0") is None  # not adjacent

    def test_paths_deterministic(self, fat_tree_exp):
        view = fat_tree_exp.topology_view()
        assert (view.equal_cost_paths("e0_0", "e3_1")
                == view.equal_cost_paths("e0_0", "e3_1"))


class TestLearningSwitch:
    def test_bidirectional_conversation(self):
        exp = Experiment("learn")
        h1 = exp.add_host("h1", "10.0.0.1")
        h2 = exp.add_host("h2", "10.0.0.2")
        s1 = exp.add_switch("s1")
        exp.add_link(h1, s1)
        exp.add_link(h2, s1)
        app = LearningSwitchApp()
        exp.use_controller(apps=[app])
        f_rev = exp.add_flow("h2", "h1", rate_bps=1e6, start_time=0.1,
                             duration=3.0)
        f_fwd = exp.add_flow("h1", "h2", rate_bps=1e6, start_time=0.5,
                             duration=3.0)
        exp.run(until=4.0)
        assert f_fwd.delivered_bytes > 0
        assert f_rev.delivered_bytes > 0
        assert app.mac_tables[("s1", int(h1.mac))] == 1
        assert app.mac_tables[("s1", int(h2.mac))] == 2
        assert app.floods >= 1
        assert app.installs >= 2

    def test_multi_switch_chain(self):
        from repro.topology import linear_topo
        exp = Experiment("learn-chain")
        exp.load_topo(linear_topo(3, hosts_per_switch=1))
        app = LearningSwitchApp()
        exp.use_controller(apps=[app])
        exp.add_flow("h2_0", "h0_0", rate_bps=1e6, start_time=0.1, duration=4.0)
        exp.add_flow("h0_0", "h2_0", rate_bps=1e6, start_time=0.5, duration=4.0)
        result = exp.run(until=5.0)
        assert result.flows_delivered == 2


class TestProactiveShortestPath:
    def test_programs_when_all_join(self):
        exp = Experiment("spf-app")
        exp.load_topo(leaf_spine_topo(num_spines=2, num_leaves=2,
                                      hosts_per_leaf=2))
        app = ProactiveShortestPathApp(exp.topology_view())
        exp.use_controller(apps=[app])
        exp.add_flow("h0_0", "h1_1", rate_bps=1e6, start_time=0.5, duration=2.0)
        result = exp.run(until=3.0)
        assert app.programmed
        assert result.flows_delivered == 1
        assert exp.controller.packet_ins == 0  # fully proactive

    def test_entry_count(self):
        exp = Experiment("spf-count")
        exp.load_topo(leaf_spine_topo(num_spines=2, num_leaves=2,
                                      hosts_per_leaf=1))
        app = ProactiveShortestPathApp(exp.topology_view())
        exp.use_controller(apps=[app])
        exp.run(until=0.5)
        # 2 hosts x 4 switches = 8 host routes
        assert app.entries_installed == 8


class TestEcmpApp:
    def test_all_flows_placed_and_delivered(self):
        exp = Experiment("ecmp")
        exp.load_topo(FatTreeTopo(k=4))
        app = FiveTupleEcmpApp(exp.topology_view())
        exp.use_controller(apps=[app])
        exp.add_demo_traffic(rate_bps=1e9, duration=3.0)
        result = exp.run(until=4.0)
        assert app.flows_placed == 16
        assert result.flows_delivered == 16

    def test_path_endpoints_correct(self):
        exp = Experiment("ecmp-paths")
        exp.load_topo(FatTreeTopo(k=4))
        view = exp.topology_view()
        app = FiveTupleEcmpApp(view)
        exp.use_controller(apps=[app])
        exp.add_flow("h0_0_0", "h3_1_1", rate_bps=1e9, start_time=0.0,
                     duration=2.0)
        exp.run(until=3.0)
        (flow_key, path), = app.placements.items()
        assert path[0] == "e0_0"
        assert path[-1] == "e3_1"

    def test_hash_seed_changes_placement_somewhere(self):
        flows = [FiveTuple(IPv4Address(f"10.0.0.{i}"), IPv4Address("10.1.0.1"),
                           IPPROTO_UDP, 40000 + i, 9000) for i in range(32)]
        exp = Experiment("seed")
        exp.load_topo(FatTreeTopo(k=4))
        view = exp.topology_view()
        a = FiveTupleEcmpApp(view, hash_seed=1)
        b = FiveTupleEcmpApp(view, hash_seed=2)
        paths_a = [a.select_path(f, "e0_0", "e2_0") for f in flows]
        paths_b = [b.select_path(f, "e0_0", "e2_0") for f in flows]
        assert paths_a != paths_b


class TestDemandEstimator:
    def test_single_flow_full_rate(self):
        demands = estimate_demands([("a", "b")])
        assert demands[("a", "b", 0)] == pytest.approx(1.0)

    def test_sender_shares(self):
        demands = estimate_demands([("a", "b"), ("a", "c")])
        assert demands[("a", "b", 0)] == pytest.approx(0.5)
        assert demands[("a", "c", 0)] == pytest.approx(0.5)

    def test_receiver_limits(self):
        demands = estimate_demands([("a", "x"), ("b", "x"), ("c", "x")])
        for src in "abc":
            assert demands[(src, "x", 0)] == pytest.approx(1.0 / 3.0)

    def test_hedera_paper_example_shape(self):
        # Mixed senders/receivers: demands are max-min fair at hosts.
        flows = [("a", "b"), ("a", "c"), ("d", "c")]
        demands = estimate_demands(flows)
        assert demands[("a", "b", 0)] == pytest.approx(0.5)
        assert demands[("a", "c", 0)] == pytest.approx(0.5)
        assert demands[("d", "c", 0)] == pytest.approx(0.5)

    def test_duplicate_pairs_distinct(self):
        demands = estimate_demands([("a", "b"), ("a", "b")])
        assert demands[("a", "b", 0)] == pytest.approx(0.5)
        assert demands[("a", "b", 1)] == pytest.approx(0.5)

    def test_bounds(self):
        flows = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]
        demands = estimate_demands(flows)
        for value in demands.values():
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_permutation_gets_full_rate(self):
        flows = [("a", "b"), ("b", "c"), ("c", "a")]
        demands = estimate_demands(flows)
        for value in demands.values():
            assert value == pytest.approx(1.0)


class TestGlobalFirstFit:
    def test_first_fit_avoids_full_path(self, fat_tree_exp):
        view = fat_tree_exp.topology_view()
        gff = GlobalFirstFit(view)
        paths = view.equal_cost_paths("e0_0", "e1_0")
        first = gff.place("e0_0", "e1_0", demand=1.0)
        assert first == paths[0]
        second = gff.place("e0_0", "e1_0", demand=1.0)
        assert second is not None
        # The second full-rate flow cannot share any link with the first.
        first_links = set(zip(first, first[1:]))
        second_links = set(zip(second, second[1:]))
        assert first_links.isdisjoint(second_links)

    def test_none_when_saturated(self, fat_tree_exp):
        view = fat_tree_exp.topology_view()
        gff = GlobalFirstFit(view)
        paths = view.equal_cost_paths("e0_0", "e0_1")
        for __ in paths:
            assert gff.place("e0_0", "e0_1", demand=1.0) is not None
        assert gff.place("e0_0", "e0_1", demand=0.5) is None

    def test_reset_frees_reservations(self, fat_tree_exp):
        view = fat_tree_exp.topology_view()
        gff = GlobalFirstFit(view)
        first = gff.place("e0_0", "e1_0", demand=1.0)
        assert gff.place("e0_0", "e1_0", demand=1.0) != first
        gff.reset()
        assert gff.place("e0_0", "e1_0", demand=1.0) == first

    def test_small_flows_pack(self, fat_tree_exp):
        view = fat_tree_exp.topology_view()
        gff = GlobalFirstFit(view)
        first = gff.place("e0_0", "e1_0", demand=0.4)
        second = gff.place("e0_0", "e1_0", demand=0.4)
        assert first == second  # both fit on the first path


class TestHederaApp:
    def test_improves_over_plain_ecmp(self):
        settings = dict(rate_bps=1e9, duration=20.0)
        ecmp_exp = Experiment("plain")
        ecmp_exp.load_topo(FatTreeTopo(k=4))
        ecmp_app = FiveTupleEcmpApp(ecmp_exp.topology_view())
        ecmp_exp.use_controller(apps=[ecmp_app])
        ecmp_exp.add_demo_traffic(**settings)
        ecmp_exp.add_stats(interval=0.5)
        ecmp_result = ecmp_exp.run(until=22.0, settle=10.0)

        hedera_exp = Experiment("hedera")
        hedera_exp.load_topo(FatTreeTopo(k=4))
        hedera_app = HederaApp(hedera_exp.topology_view(), poll_interval=5.0)
        hedera_exp.use_controller(apps=[hedera_app])
        hedera_exp.add_demo_traffic(**settings)
        hedera_exp.add_stats(interval=0.5)
        hedera_result = hedera_exp.run(until=22.0, settle=10.0)

        assert hedera_app.scheduling_rounds >= 2
        assert hedera_app.large_flow_moves > 0
        assert (hedera_result.mean_aggregate_rx_bps
                > ecmp_result.mean_aggregate_rx_bps)

    def test_polling_cadence(self):
        exp = Experiment("poll")
        exp.load_topo(FatTreeTopo(k=4))
        app = HederaApp(exp.topology_view(), poll_interval=5.0)
        exp.use_controller(apps=[app])
        exp.add_demo_traffic(rate_bps=1e9, duration=18.0)
        exp.run(until=19.0)
        assert app.polls == 3  # t = 5, 10, 15


class TestIdleTimeouts:
    """Entries with an idle timeout under reactive ECMP."""

    @staticmethod
    def _exp(idle_timeout):
        exp = Experiment("idle")
        exp.load_topo(FatTreeTopo(k=4))
        app = FiveTupleEcmpApp(exp.topology_view(), idle_timeout=idle_timeout)
        exp.use_controller(apps=[app])
        hosts = [host.name for host in exp.network.hosts()]
        removed = []
        exp.sim.cm.add_observer(
            lambda channel, receiver, data:
            removed.append(channel.label) if data[1] == 11 else None)
        return exp, app, hosts, removed

    def test_an_active_flow_never_idles_out(self):
        """Nothing reads a counter here (no stats sampler), so the only
        thing keeping ``last_used_at`` fresh is the expiry check itself
        bringing accrual current before it judges idleness.  At the
        parent the entries expired at t=6 and the flow delivered
        74 995 000 bytes."""
        exp, app, hosts, removed = self._exp(idle_timeout=5)
        flow = exp.add_flow(hosts[0], hosts[-1], 100e6, duration=30.0)
        exp.run(until=30.0)
        exp.network.finalize_accounting()
        assert removed == []
        # 30 s at 100 Mb/s, less the 0.4 ms before the path was installed.
        assert flow.delivered_bytes == 374_995_000.0
        agents = [agent.stats() for agent in exp.agents]
        # Tables on the path swept once per timeout, not once per tick;
        # the others never.
        assert sum(a["expiry_checks"] for a in agents) == 20 * 30
        assert 0 < sum(a["expiry_sweeps"] for a in agents) <= 5 * 6

    def test_a_flow_whose_entries_timed_out_is_placed_again(self):
        """The same five-tuple comes back after its entries idled out:
        the FLOW_REMOVED made the app forget the placement, so the new
        miss is answered.  At the parent it was taken for a miss racing
        the first install and ignored — the flow was black-holed."""
        from repro.dataplane.flow import FluidFlow
        exp, app, hosts, removed = self._exp(idle_timeout=2)
        src, dst = (exp.network.get_node(hosts[0]),
                    exp.network.get_node(hosts[-1]))
        flows = [FluidFlow(src, dst, 100e6, src_port=5000,
                           start_time=start, end_time=start + 5.0)
                 for start in (0.0, 20.0)]
        for flow in flows:
            exp.network.add_flow(flow)
        assert flows[0].key == flows[1].key
        exp.run(until=19.0)
        assert len(removed) == 5 and app.placements == {}
        exp.run(until=26.0)
        exp.network.finalize_accounting()
        assert app.flows_placed == 2 and flows[1].key in app.placements
        assert [flow.delivered_bytes for flow in flows] == pytest.approx(
            [62_495_000.0] * 2)

    def test_hedera_forgets_a_removed_flows_pin_and_byte_total(self):
        from repro.openflow.match import Match
        from repro.openflow.messages import FlowRemoved
        exp = Experiment("forget")
        exp.load_topo(FatTreeTopo(k=4))
        app = HederaApp(exp.topology_view(), poll_interval=5.0)
        exp.use_controller(apps=[app])
        exp.add_demo_traffic(rate_bps=1e9, duration=12.0)
        exp.run(until=11.0)
        flow = next(iter(app.large_placements))
        assert flow in app.placements and flow in app._last_bytes
        app.on_flow_removed(None, FlowRemoved(
            match=Match.exact_five_tuple(flow)))
        assert flow not in app.placements
        assert flow not in app.large_placements
        assert flow not in app._last_bytes
