"""Unit tests: links, ports, nodes, hosts, FIB."""

import pytest

from repro.api import Experiment
from repro.core.config import SimulationConfig
from repro.core.errors import DataPlaneError, TopologyError
from repro.core.simulation import Simulation
from repro.dataplane.fib import FIB, NextHop
from repro.dataplane.flow import FluidFlow
from repro.dataplane.host import Host
from repro.dataplane.link import GBPS, Link
from repro.dataplane.network import Network
from repro.dataplane.node import ForwardingDecision, Node
from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.netproto.packet import FiveTuple, IPPROTO_UDP


def make_link(capacity=GBPS, delay=0.001):
    a, b = Node("a"), Node("b")
    return Link(a.add_port(1), b.add_port(1), capacity_bps=capacity, delay=delay)


class TestLink:
    def test_directions(self):
        link = make_link()
        assert link.forward.src_port is link.port_a
        assert link.reverse.src_port is link.port_b
        assert link.forward.capacity_bps == GBPS
        assert link.forward.delay == 0.001

    def test_direction_from(self):
        link = make_link()
        assert link.direction_from(link.port_a) is link.forward
        assert link.direction_from(link.port_b) is link.reverse

    def test_direction_from_foreign_port_rejected(self):
        link = make_link()
        foreign = Node("c").add_port(1)
        with pytest.raises(TopologyError):
            link.direction_from(foreign)

    def test_other_port(self):
        link = make_link()
        assert link.other_port(link.port_a) is link.port_b

    def test_peer_via_port(self):
        link = make_link()
        assert link.port_a.peer() is link.port_b

    def test_up_down(self):
        link = make_link()
        assert link.up
        link.set_up(False)
        assert not link.forward.up

    def test_utilization(self):
        sim = Simulation(SimulationConfig())
        net = Network()
        sim.attach_network(net)
        h1 = net.add_host("h1", "10.0.0.1")
        h2 = net.add_host("h2", "10.0.0.2")
        link = net.add_link(h1, h2, capacity_bps=1000.0)
        net.add_flow(FluidFlow(h1, h2, demand_bps=250.0, start_time=0.0))
        sim.run(until=0.1)
        forward, reverse = link.forward, link.reverse
        assert (forward.current_load_bps / forward.capacity_bps
                == pytest.approx(0.25))
        assert reverse.current_load_bps / reverse.capacity_bps == 0.0

    def test_utilization_off_a_network(self):
        link = make_link(capacity=1000.0)
        assert link.forward.current_load_bps == 0.0

    def test_rejects_bad_parameters(self):
        a, b = Node("a"), Node("b")
        with pytest.raises(TopologyError):
            Link(a.add_port(1), b.add_port(1), capacity_bps=0)
        with pytest.raises(TopologyError):
            Link(a.add_port(2), b.add_port(2), delay=-1)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -1.0])
    def test_capacity_must_be_finite_and_positive(self, capacity):
        # NaN used to pass the old ``<= 0`` check and leave the link
        # silently never contended.
        a, b = Node("a"), Node("b")
        with pytest.raises(TopologyError):
            Link(a.add_port(1), b.add_port(1), capacity_bps=capacity)
        link = make_link()
        with pytest.raises(TopologyError):
            link.set_capacity(capacity)
        with pytest.raises(TopologyError):
            link.capacity_bps = capacity
        assert link.capacity_bps == GBPS and link.cap_epoch == 0
        exp = Experiment("nan-link")
        exp.add_host("h1", "10.0.0.1")
        exp.add_host("h2", "10.0.0.2")
        with pytest.raises(TopologyError):
            exp.add_link("h1", "h2", capacity_bps=capacity)

    def test_distinct_direction_keys(self):
        link = make_link()
        assert link.forward.key() != link.reverse.key()


class TestNodePorts:
    def test_auto_numbering(self):
        node = Node("n")
        assert node.add_port().number == 1
        assert node.add_port().number == 2

    def test_explicit_numbering(self):
        node = Node("n")
        node.add_port(5)
        assert node.port(5).number == 5

    def test_duplicate_rejected(self):
        node = Node("n")
        node.add_port(1)
        with pytest.raises(TopologyError):
            node.add_port(1)

    def test_unknown_port_rejected(self):
        with pytest.raises(TopologyError):
            Node("n").port(9)

    def test_auto_skips_explicit(self):
        node = Node("n")
        node.add_port(1)
        node.add_port(2)
        assert node.add_port().number == 3

    def test_unique_macs(self):
        node = Node("n")
        macs = {node.add_port().mac for __ in range(10)}
        assert len(macs) == 10

    def test_neighbors(self):
        a, b = Node("a"), Node("b")
        Link(a.add_port(1), b.add_port(1))
        assert a.neighbors() == [(a.port(1), b)]

    def test_empty_name_rejected(self):
        with pytest.raises(TopologyError):
            Node("")


class TestHost:
    def test_single_port_and_mac(self):
        host = Host("h1", "10.0.0.1")
        assert list(host.ports) == [1]
        assert host.mac == host.ports[1].mac

    def test_originates_out_port_one(self):
        host = Host("h1", "10.0.0.1")
        key = FiveTuple(host.ip, IPv4Address("10.0.0.2"), IPPROTO_UDP, 1, 2)
        decision = host.forward_flow(key, in_port=None)
        assert decision.action == ForwardingDecision.FORWARD
        assert decision.out_port == 1

    def test_delivers_own_traffic(self):
        host = Host("h1", "10.0.0.1")
        key = FiveTuple(IPv4Address("10.0.0.2"), host.ip, IPPROTO_UDP, 1, 2)
        assert host.forward_flow(key, in_port=1).action == ForwardingDecision.DELIVER

    def test_drops_foreign_traffic(self):
        host = Host("h1", "10.0.0.1")
        key = FiveTuple(IPv4Address("10.0.0.2"), IPv4Address("10.0.0.3"),
                        IPPROTO_UDP, 1, 2)
        assert host.forward_flow(key, in_port=1).action == ForwardingDecision.DROP

    def test_gateway_stored(self):
        host = Host("h1", "10.0.0.1", gateway="10.0.0.254")
        assert host.gateway == IPv4Address("10.0.0.254")


class TestFIB:
    def test_install_and_lookup(self):
        fib = FIB()
        fib.install("10.0.0.0/24", [(1, "192.168.0.1")])
        entry = fib.lookup("10.0.0.5")
        assert entry is not None
        assert entry.next_hops[0].port == 1
        assert entry.next_hops[0].gateway == IPv4Address("192.168.0.1")

    def test_longest_prefix_wins(self):
        fib = FIB()
        fib.install("10.0.0.0/8", [(1, None)])
        fib.install("10.1.0.0/16", [(2, None)])
        assert fib.lookup("10.1.2.3").next_hops[0].port == 2
        assert fib.lookup("10.2.0.1").next_hops[0].port == 1

    def test_ecmp_next_hops_sorted(self):
        fib = FIB()
        entry = fib.install("10.0.0.0/24", [(3, "192.168.0.3"), (1, "192.168.0.1")])
        assert [hop.port for hop in entry.next_hops] == [1, 3]

    def test_install_replaces(self):
        fib = FIB()
        fib.install("10.0.0.0/24", [(1, None)])
        fib.install("10.0.0.0/24", [(2, None)])
        assert fib.lookup("10.0.0.1").next_hops[0].port == 2
        assert len(fib) == 1

    def test_withdraw(self):
        fib = FIB()
        fib.install("10.0.0.0/24", [(1, None)])
        assert fib.withdraw("10.0.0.0/24")
        assert fib.lookup("10.0.0.1") is None
        assert not fib.withdraw("10.0.0.0/24")

    def test_empty_next_hops_rejected(self):
        fib = FIB()
        with pytest.raises(DataPlaneError):
            fib.install("10.0.0.0/24", [])

    def test_next_hop_objects_accepted(self):
        fib = FIB()
        fib.install("10.0.0.0/24", [NextHop(port=4)])
        assert fib.lookup("10.0.0.1").next_hops[0].port == 4

    def test_entries_sorted(self):
        fib = FIB()
        fib.install("10.1.0.0/16", [(1, None)])
        fib.install("10.0.0.0/8", [(1, None)])
        networks = [str(e.prefix) for e in fib.entries()]
        assert networks == ["10.0.0.0/8", "10.1.0.0/16"]

    def test_counters(self):
        fib = FIB()
        fib.install("10.0.0.0/24", [(1, None)])
        fib.withdraw("10.0.0.0/24")
        assert fib.installs == 1
        assert fib.withdrawals == 1

    def test_clear(self):
        fib = FIB()
        fib.install("10.0.0.0/24", [(1, None)])
        fib.clear()
        assert len(fib) == 0
