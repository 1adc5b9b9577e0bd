"""Unit tests: the Network container — walks, rates, accrual, packets."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.errors import ConfigurationError, DataPlaneError, TopologyError
from repro.core.simulation import Simulation
from repro.dataplane.flow import FluidFlow, PathStatus
from repro.dataplane.flowtable import FlowEntry
from repro.dataplane.network import Network
from repro.netproto.addr import IPv4Prefix
from repro.netproto.packet import make_udp_packet
from repro.openflow.actions import ActionOutput
from repro.openflow.match import Match


def entry_to(prefix, port):
    return FlowEntry(match=Match(nw_dst=IPv4Prefix(prefix)),
                     actions=[ActionOutput(port)])


@pytest.fixture
def simple_net():
    """h1 - s1 - h2 with static entries both ways."""
    sim = Simulation(SimulationConfig())
    net = Network()
    sim.attach_network(net)
    h1 = net.add_host("h1", "10.0.0.1")
    h2 = net.add_host("h2", "10.0.0.2")
    s1 = net.add_switch("s1")
    net.add_link(h1, s1)
    net.add_link(h2, s1)
    s1.table.add(entry_to("10.0.0.2/32", 2))
    s1.table.add(entry_to("10.0.0.1/32", 1))
    return sim, net, h1, h2, s1


class TestTopologyConstruction:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_host("h1", "10.0.0.1")
        with pytest.raises(TopologyError):
            net.add_switch("h1")

    def test_unknown_node_rejected(self):
        with pytest.raises(TopologyError):
            Network().get_node("ghost")

    def test_link_auto_ports(self, simple_net):
        __, net, h1, __, s1 = simple_net
        assert h1.uplink_port.peer().node is s1

    def test_requested_port_already_wired(self, simple_net):
        __, net, h1, __, s1 = simple_net
        h3 = net.add_host("h3", "10.0.0.3")
        with pytest.raises(TopologyError):
            net.add_link(h3, s1, port_b=1)  # s1 port 1 is taken

    def test_node_listings_sorted(self, simple_net):
        __, net, *_ = simple_net
        assert [h.name for h in net.hosts()] == ["h1", "h2"]
        assert [s.name for s in net.switches()] == ["s1"]
        assert net.routers() == []

    def test_host_by_ip(self, simple_net):
        __, net, h1, *_ = simple_net
        assert net.host_by_ip("10.0.0.1") is h1
        assert net.host_by_ip("9.9.9.9") is None

    def test_graph_export(self, simple_net):
        __, net, *_ = simple_net
        graph = net.graph()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 2
        assert graph.nodes["s1"]["kind"] == "switch"

    def test_requires_sim_binding(self):
        net = Network()
        with pytest.raises(DataPlaneError):
            net.invalidate_routing()


class TestPathWalk:
    def test_delivered(self, simple_net):
        sim, net, h1, h2, __ = simple_net
        flow = FluidFlow(h1, h2, demand_bps=1e6)
        result = net.compute_path(flow)
        assert result.status is PathStatus.DELIVERED
        assert result.node_names() == ["h1", "s1", "h2"]

    def test_miss_when_agent_attached(self, simple_net):
        sim, net, h1, h2, s1 = simple_net
        s1.table.clear()
        s1.agent = object()
        result = net.compute_path(FluidFlow(h1, h2, demand_bps=1e6))
        assert result.status is PathStatus.MISS
        assert result.miss_node == "s1"

    def test_drop_without_agent(self, simple_net):
        sim, net, h1, h2, s1 = simple_net
        s1.table.clear()
        result = net.compute_path(FluidFlow(h1, h2, demand_bps=1e6))
        assert result.status is PathStatus.DROPPED

    def test_link_down_drops(self, simple_net):
        sim, net, h1, h2, s1 = simple_net
        h2.uplink_port.link.set_up(False)
        result = net.compute_path(FluidFlow(h1, h2, demand_bps=1e6))
        assert result.status is PathStatus.DROPPED
        assert "link down" in result.detail

    def test_loop_detected(self):
        sim = Simulation()
        net = Network()
        sim.attach_network(net)
        h1 = net.add_host("h1", "10.0.0.1")
        h2 = net.add_host("h2", "10.0.0.2")
        s1 = net.add_switch("s1")
        s2 = net.add_switch("s2")
        net.add_link(h1, s1)       # s1 port 1
        net.add_link(s1, s2)       # s1 port 2, s2 port 1
        net.add_link(s2, h2)       # s2 port 2
        # s1 and s2 bounce everything at each other.
        s1.table.add(FlowEntry(match=Match(), actions=[ActionOutput(2)]))
        s2.table.add(FlowEntry(match=Match(), actions=[ActionOutput(1)]))
        result = net.compute_path(FluidFlow(h1, h2, demand_bps=1e6))
        assert result.status is PathStatus.LOOP


class TestRatesAndAccrual:
    def test_duplicate_flow_id_rejected(self, simple_net):
        # Flow ids key the realloc engine's caches; two flows under one
        # id would alias there.
        sim, net, h1, h2, __ = simple_net
        FluidFlow.reset_ids()
        flow = FluidFlow(h1, h2, demand_bps=1e9)
        net.add_flow(flow)
        FluidFlow.reset_ids()
        twin = FluidFlow(h2, h1, demand_bps=1e9)
        assert twin.id == flow.id
        with pytest.raises(ConfigurationError, match="already registered"):
            net.add_flow(twin)
        assert net.flows == [flow]

    def test_rate_follows_bottleneck(self, simple_net):
        sim, net, h1, h2, __ = simple_net
        flow = FluidFlow(h1, h2, demand_bps=5e9, start_time=0.0, end_time=1.0)
        net.add_flow(flow)
        sim.run(until=2.0)
        # 1 Gbps bottleneck for 1 s = 125 MB
        assert flow.delivered_bytes == pytest.approx(1e9 / 8, rel=1e-6)

    def test_two_flows_share_host_link(self, simple_net):
        sim, net, h1, h2, __ = simple_net
        f1 = FluidFlow(h1, h2, demand_bps=1e9, start_time=0.0, end_time=1.0)
        f2 = FluidFlow(h1, h2, demand_bps=1e9, start_time=0.0, end_time=1.0)
        net.add_flow(f1)
        net.add_flow(f2)
        sim.run(until=0.5)
        assert f1.rate_bps == pytest.approx(0.5e9)
        assert f2.rate_bps == pytest.approx(0.5e9)

    def test_rate_rises_when_competitor_leaves(self, simple_net):
        sim, net, h1, h2, __ = simple_net
        f1 = FluidFlow(h1, h2, demand_bps=1e9, start_time=0.0, end_time=2.0)
        f2 = FluidFlow(h1, h2, demand_bps=1e9, start_time=0.0, end_time=1.0)
        net.add_flow(f1)
        net.add_flow(f2)
        sim.run(until=1.5)
        assert f1.rate_bps == pytest.approx(1e9)
        # f1: 0.5 Gbps for 1 s + 1 Gbps for 0.5 s
        expected = (0.5e9 * 1.0 + 1e9 * 0.5) / 8
        assert f1.delivered_bytes == pytest.approx(expected, rel=1e-6)

    def test_host_and_port_counters(self, simple_net):
        sim, net, h1, h2, s1 = simple_net
        flow = FluidFlow(h1, h2, demand_bps=8e6, start_time=0.0, end_time=1.0)
        net.add_flow(flow)
        sim.run(until=1.0)
        assert h2.rx_bytes == pytest.approx(1e6)
        assert h1.tx_bytes == pytest.approx(1e6)
        assert s1.port(1).rx_bytes == pytest.approx(1e6)
        assert s1.port(2).tx_bytes == pytest.approx(1e6)

    def test_entry_counters_accrue(self, simple_net):
        sim, net, h1, h2, s1 = simple_net
        flow = FluidFlow(h1, h2, demand_bps=8e6, start_time=0.0, end_time=1.0)
        net.add_flow(flow)
        sim.run(until=1.0)
        entry = s1.table.match_five_tuple(flow.key)
        assert entry.byte_count == pytest.approx(1e6)

    def test_aggregate_rx_rate(self, simple_net):
        sim, net, h1, h2, __ = simple_net
        net.add_flow(FluidFlow(h1, h2, demand_bps=4e8, start_time=0.0))
        sim.run(until=0.1)
        assert net.aggregate_rx_rate() == pytest.approx(4e8)

    def test_recompute_coalescing(self, simple_net):
        sim, net, h1, h2, __ = simple_net
        before = net.recomputations
        # Ten invalidations at the same instant must coalesce into one.
        def burst():
            for __ in range(10):
                net.invalidate_routing()
        sim.scheduler.at(1.0, burst)
        sim.run(until=1.1)
        assert net.recomputations == before + 1

    def test_flow_stop_is_idempotent(self, simple_net):
        sim, net, h1, h2, __ = simple_net
        flow = FluidFlow(h1, h2, demand_bps=1e6, start_time=0.0, end_time=1.0)
        net.add_flow(flow)
        sim.run(until=2.0)
        net.stop_flow(flow)  # second stop: no effect, no error
        assert not flow.active


class TestPacketEvents:
    def test_packet_delivery_across_switch(self, simple_net):
        sim, net, h1, h2, s1 = simple_net
        packet = make_udp_packet(h1.mac, h2.mac, h1.ip, h2.ip, 1, 2,
                                 payload=b"ping")
        net.inject_packet(h1, None, packet)
        sim.run(until=0.01)
        assert len(h2.received_packets) == 1
        assert h2.received_packets[0].payload == b"ping"

    def test_packet_counters(self, simple_net):
        sim, net, h1, h2, s1 = simple_net
        packet = make_udp_packet(h1.mac, h2.mac, h1.ip, h2.ip, 1, 2)
        net.inject_packet(h1, None, packet)
        sim.run(until=0.01)
        assert net.packets_forwarded == 2  # h1->s1, s1->h2
        assert s1.port(1).rx_packets == 1
        assert s1.port(2).tx_packets == 1

    def test_packet_dropped_on_dead_link(self, simple_net):
        sim, net, h1, h2, s1 = simple_net
        h2.uplink_port.link.set_up(False)
        packet = make_udp_packet(h1.mac, h2.mac, h1.ip, h2.ip, 1, 2)
        net.inject_packet(h1, None, packet)
        sim.run(until=0.01)
        assert h2.received_packets == []

    def test_foreign_unicast_ignored_by_host(self, simple_net):
        sim, net, h1, h2, s1 = simple_net
        other_mac = h1.mac  # wrong destination MAC for h2
        packet = make_udp_packet(h2.mac, other_mac, h2.ip, h1.ip, 1, 2)
        # Deliver directly into h2: addressed to h1, h2 must ignore it.
        h2.handle_packet(1, packet, 0.0)
        assert h2.received_packets == []
