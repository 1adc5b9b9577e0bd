"""Unit tests: the BGP daemon over real channels."""

import sys
from pathlib import Path

import pytest

from repro.bgp.daemon import BGPConfig, BGPDaemon, BGPPeerConfig
from repro.bgp.fsm import BGPState
from repro.core.config import SimulationConfig
from repro.core.errors import ControlPlaneError
from repro.core.simulation import Simulation
from repro.dataplane.network import Network
from repro.netproto.addr import IPv4Address, IPv4Prefix

# The transition log is test-only code beside the property suites.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "property"))
from bgp_reference import record_transitions  # noqa: E402


@pytest.fixture
def history(monkeypatch):
    """Each session FSM's transitions during the test."""
    return record_transitions(monkeypatch)


def build_pair(hold=90.0, keepalive=30.0, net1=("10.1.0.0/24",),
               net2=("10.2.0.0/24",), max_paths=1):
    """Two routers, two daemons, one session; returns (sim, net, d1, d2)."""
    sim = Simulation(SimulationConfig())
    net = Network()
    sim.attach_network(net)
    r1 = net.add_router("r1", router_id="1.1.1.1")
    r2 = net.add_router("r2", router_id="2.2.2.2")
    net.add_link(r1, r2)  # port 1 on both

    d1 = BGPDaemon("r1", BGPConfig(
        asn=65001, router_id=IPv4Address("1.1.1.1"),
        networks=[IPv4Prefix(p) for p in net1], max_paths=max_paths))
    d2 = BGPDaemon("r2", BGPConfig(
        asn=65002, router_id=IPv4Address("2.2.2.2"),
        networks=[IPv4Prefix(p) for p in net2], max_paths=max_paths))
    channel = sim.cm.open_channel(d1, d2, latency=0.001)
    d1.add_peer(BGPPeerConfig(
        peer_name="r2", remote_asn=65002, local_port=1,
        peer_address=IPv4Address("172.16.0.2"),
        local_address=IPv4Address("172.16.0.1"),
        hold_time=hold, keepalive_interval=keepalive), channel)
    d2.add_peer(BGPPeerConfig(
        peer_name="r1", remote_asn=65001, local_port=1,
        peer_address=IPv4Address("172.16.0.1"),
        local_address=IPv4Address("172.16.0.2"),
        hold_time=hold, keepalive_interval=keepalive), channel)
    sim.add_process(d1)
    sim.add_process(d2)
    return sim, net, d1, d2, channel


class TestSessionEstablishment:
    def test_both_sides_establish(self):
        sim, net, d1, d2, __ = build_pair()
        sim.run(until=1.0)
        assert d1.session_state("r2") is BGPState.ESTABLISHED
        assert d2.session_state("r1") is BGPState.ESTABLISHED

    def test_routes_exchanged(self):
        sim, net, d1, d2, __ = build_pair()
        sim.run(until=1.0)
        assert d1.route_count() == 2  # own + learned
        assert d2.route_count() == 2
        learned = d1.loc_rib.best(IPv4Prefix("10.2.0.0/24"))
        assert learned.attributes.as_path == (65002,)

    def test_fib_installed_with_gateway(self):
        sim, net, d1, d2, __ = build_pair()
        sim.run(until=1.0)
        entry = net.get_node("r1").fib.lookup("10.2.0.5")
        assert entry is not None
        assert entry.next_hops[0].port == 1
        assert entry.next_hops[0].gateway == IPv4Address("172.16.0.2")

    def test_local_route_not_installed(self):
        sim, net, d1, d2, __ = build_pair()
        sim.run(until=1.0)
        # own /24 stays out of the FIB (it is a connected route)
        assert net.get_node("r1").fib.lookup("10.1.0.5") is None

    def test_wrong_asn_rejected(self):
        sim = Simulation(SimulationConfig())
        net = Network()
        sim.attach_network(net)
        net.add_router("r1")
        net.add_router("r2")
        d1 = BGPDaemon("r1", BGPConfig(asn=65001, router_id=IPv4Address("1.1.1.1")))
        d2 = BGPDaemon("r2", BGPConfig(asn=65002, router_id=IPv4Address("2.2.2.2")))
        channel = sim.cm.open_channel(d1, d2, latency=0.001)
        d1.add_peer(BGPPeerConfig(
            peer_name="r2", remote_asn=64999,  # wrong!
            local_port=1, peer_address=IPv4Address("172.16.0.2"),
            local_address=IPv4Address("172.16.0.1"),
            connect_retry=0.0), channel)
        d2.add_peer(BGPPeerConfig(
            peer_name="r1", remote_asn=65001, local_port=1,
            peer_address=IPv4Address("172.16.0.1"),
            local_address=IPv4Address("172.16.0.2"),
            connect_retry=0.0), channel)
        sim.add_process(d1)
        sim.add_process(d2)
        sim.run(until=2.0)
        assert d1.session_state("r2") is not BGPState.ESTABLISHED

    def test_duplicate_peer_rejected(self):
        sim, net, d1, d2, channel = build_pair()
        with pytest.raises(ControlPlaneError):
            d1.add_peer(BGPPeerConfig(
                peer_name="r2", remote_asn=65002, local_port=1,
                peer_address=IPv4Address("172.16.0.2"),
                local_address=IPv4Address("172.16.0.1")), channel)


class TestKeepaliveAndHold:
    def test_keepalives_flow(self):
        sim, net, d1, d2, channel = build_pair(hold=9.0, keepalive=3.0)
        sim.run(until=1.0)
        msgs_after_converge = channel.total_messages
        sim.run(until=10.0)
        assert channel.total_messages > msgs_after_converge

    def test_session_survives_with_keepalives(self):
        sim, net, d1, d2, __ = build_pair(hold=3.0, keepalive=1.0)
        sim.run(until=20.0)
        assert d1.session_state("r2") is BGPState.ESTABLISHED

    def test_hold_timer_tears_down_on_silence(self):
        sim, net, d1, d2, channel = build_pair(hold=3.0, keepalive=1.0)
        sim.run(until=1.0)
        assert d1.session_state("r2") is BGPState.ESTABLISHED
        channel.close()  # silence both directions
        sim.run(until=10.0)
        assert d1.session_state("r2") is not BGPState.ESTABLISHED
        # Learned route must be gone from the Loc-RIB and FIB.
        assert d1.loc_rib.best(IPv4Prefix("10.2.0.0/24")) is None
        assert net.get_node("r1").fib.lookup("10.2.0.5") is None


class TestHoldTimeNegotiation:
    """RFC 4271 4.2, 4.4 and 6.2: the lower offer wins, zero means no
    timers, and one or two seconds is refused."""

    def test_zero_hold_time_sends_no_keepalives(self):
        sim, net, d1, d2, channel = build_pair(hold=0.0, keepalive=30.0)
        sim.run(until=1.0)
        assert d1.session_state("r2") is BGPState.ESTABLISHED
        assert d1.peers["r2"].keepalive_timer is None
        converged = channel.total_messages
        sim.run(until=5.0)
        assert channel.total_messages == converged
        assert d1.session_state("r2") is BGPState.ESTABLISHED

    @pytest.mark.parametrize("offer", [1, 2])
    def test_an_open_offering_one_or_two_seconds_is_refused(self, history,
                                                            offer):
        sim, net, d1, d2, __ = build_pair()
        # Past BGPPeerConfig's own check, as a foreign speaker would be.
        d2.peers["r1"].config.hold_time = float(offer)
        sim.run(until=1.0)
        events = [change.event for change in history[d1.peers["r2"].fsm]]
        assert "unacceptable hold time" in events
        # The NOTIFICATION is Unacceptable Hold Time (2/6).
        peer_events = [change.event for change in history[d2.peers["r1"].fsm]]
        assert "notification 2/6" in peer_events
        for daemon, peer in ((d1, "r2"), (d2, "r1")):
            assert BGPState.ESTABLISHED not in [
                change.to_state for change in history[daemon.peers[peer].fsm]]

    def test_a_low_offer_lowers_one_session_not_the_configuration(self):
        sim, net, d1, d2, __ = build_pair(hold=90.0, keepalive=30.0)
        d2.peers["r1"].config.hold_time = 3.0
        sim.run(until=1.0)
        state = d1.peers["r2"]
        assert state.config.hold_time == 90.0
        assert state.hold_time == 3.0
        assert state.keepalive_timer.interval == 1.0
        # The peer offers 90 s again: the next session runs with 90 s.
        d2.peers["r1"].config.hold_time = 90.0
        d1.peer_down("r2")
        d2.peer_down("r1")
        sim.run(until=8.0)
        assert d1.session_state("r2") is BGPState.ESTABLISHED
        assert state.hold_time == 90.0
        assert state.keepalive_timer.interval == 30.0


    def test_a_longer_hold_is_not_cut_short_by_the_last_session(
            self, history):
        sim, net, d1, d2, __ = build_pair(hold=90.0, keepalive=30.0)
        for daemon, peer in ((d1, "r2"), (d2, "r1")):
            daemon.peers[peer].config.connect_retry = 1.0
        d2.peers["r1"].config.hold_time = 3.0
        sim.run(until=1.0)
        d2.peers["r1"].config.hold_time = 90.0
        d1.peer_down("r2")
        d2.peer_down("r1")
        # Reconnected at 2 s with 90 s; the 3 s session's hold check is
        # still pending and fires while the peer is quiet.
        sim.run(until=20.0)
        assert d1.peers["r2"].hold_time == 90.0
        events = [change.event for change in history[d1.peers["r2"].fsm]]
        assert "hold timer expired" not in events
        assert d1.session_state("r2") is BGPState.ESTABLISHED

class TestWithdrawals:
    def test_peer_down_withdraws_routes(self):
        sim, net, d1, d2, __ = build_pair()
        sim.run(until=1.0)
        d1.peer_down("r2")
        sim.run(until=2.0)
        assert d1.loc_rib.best(IPv4Prefix("10.2.0.0/24")) is None

    def test_as_loop_rejected(self):
        # d1 announces a path already containing d2's AS: d2 must drop it.
        sim, net, d1, d2, __ = build_pair()
        sim.run(until=1.0)
        from repro.bgp.messages import BGPUpdate, PathAttributes
        from repro.bgp.rib import RIBRoute
        looped = BGPUpdate(
            attributes=PathAttributes(as_path=(65001, 65002),
                                      next_hop=IPv4Address("172.16.0.1")),
            nlri=[IPv4Prefix("10.9.0.0/24")],
        )
        state = d1.peers["r2"]
        state.channel.send(d1, looped.encode())
        sim.run(until=2.0)
        assert d2.loc_rib.best(IPv4Prefix("10.9.0.0/24")) is None


class TestMalformedInput:
    """Hostile bytes end the session with a NOTIFICATION; they never
    unwind the event loop."""

    @staticmethod
    def _notifications(sim):
        from repro.bgp.messages import (BGPDecodeError, BGPNotification,
                                        decode_bgp_stream)
        seen = []

        def observe(chan, receiver, data):
            while data:
                try:
                    message, data = decode_bgp_stream(data)
                except BGPDecodeError:
                    return  # the hostile bytes this test injects
                if isinstance(message, BGPNotification):
                    seen.append((receiver.name, message.code))

        sim.cm.add_observer(observe)
        return seen

    @pytest.mark.parametrize("wire,code", [
        (b"\x00" * 19, 1),                                    # bad marker
        (b"\xff" * 16 + b"\x00\x17\x02" + b"\x00\x09\x00\x00", 3),  # lengths overrun
        (b"\xff" * 16 + b"\x00\x1e\x02\x00\x00\x00\x03"
         b"\x40\x01\x00" + b"\x18\x0a\x09\x00", 3),              # empty ORIGIN
    ])
    def test_notification_and_teardown(self, history, wire, code):
        sim, net, d1, d2, channel = build_pair()
        sim.run(until=1.0)
        seen = self._notifications(sim)
        learned = IPv4Prefix("10.1.0.0/24")
        assert d2.loc_rib.best(learned) is not None
        channel.send(d1, wire)
        sim.run(until=1.5)  # must not raise
        assert ("bgpd-r1", code) in seen
        # d2 dropped the session and everything learned over it ...
        assert history[d2.peers["r1"].fsm][-1].event.startswith("malformed")
        assert d2.loc_rib.best(learned) is None
        assert net.get_node("r2").fib.lookup("10.1.0.5") is None
        # ... and the ordinary retry timer brings it back.
        sim.run(until=12.0)
        assert d2.session_state("r1") is BGPState.ESTABLISHED
        assert d2.loc_rib.best(learned) is not None

    def test_good_messages_before_the_bad_one_still_count(self):
        from repro.bgp.messages import BGPUpdate, PathAttributes
        sim, net, d1, d2, channel = build_pair()
        sim.run(until=1.0)
        good = BGPUpdate(
            attributes=PathAttributes(as_path=(65001,),
                                      next_hop=IPv4Address("172.16.0.1")),
            nlri=[IPv4Prefix("10.7.0.0/24")]).encode()
        before = d2.stats()["updates_received"]
        channel.send(d1, good + b"garbage")
        sim.run(until=1.5)
        assert d2.stats()["updates_received"] == before + 1
        assert d2.session_state("r1") is not BGPState.ESTABLISHED

    def test_an_open_on_an_established_session_resets_it(self, history):
        """RFC 4271 6.6, RFC 6608: NOTIFICATION 5/3 and a teardown on
        both sides, the peer's identifier left as it was, and the
        connect-retry timer brings the session back."""
        from repro.bgp.messages import BGPOpen
        sim, net, d1, d2, channel = build_pair()
        sim.run(until=1.0)
        learned = IPv4Prefix("10.2.0.0/24")
        assert d1.loc_rib.best(learned) is not None
        channel.send(d2, BGPOpen(asn=65002).encode())  # lands at r1
        sim.run(until=1.5)  # must not raise
        assert history[d1.peers["r2"].fsm][-1].event == "OPEN in established"
        assert history[d2.peers["r1"].fsm][-1].event == "notification 5/3"
        assert d1.session_state("r2") is BGPState.IDLE
        assert d2.session_state("r1") is BGPState.IDLE
        assert d1.peers["r2"].remote_router_id == IPv4Address("2.2.2.2")
        assert d1.loc_rib.best(learned) is None
        sim.run(until=1.0 + 5.0 + 1.0)  # past connect_retry (5 s)
        assert d1.session_state("r2") is BGPState.ESTABLISHED
        assert d2.session_state("r1") is BGPState.ESTABLISHED
        assert d1.loc_rib.best(learned) is not None


class TestStats:
    def test_counters_follow_the_pipeline(self):
        sim, net, d1, d2, __ = build_pair()
        sim.run(until=1.0)
        stats = d1.stats()
        # One learned prefix: decided once, selected, installed, and
        # d1's own prefix exported once to its only peer.
        assert stats["decisions"] == 1
        assert stats["selection_changes"] == 1
        assert stats["fib_installs"] == sim.cm.stats()["route_installs"] // 2 == 1
        assert stats["fib_withdrawals"] == 0
        assert stats["exports"] == 1
        d1.peer_down("r2")
        assert d1.stats()["fib_withdrawals"] == 1
        assert d1.stats()["decisions"] == 2

    def test_stats_shape(self):
        sim, net, d1, d2, __ = build_pair()
        sim.run(until=1.0)
        stats = d1.stats()
        assert stats["peers"] == 1
        assert stats["established"] == 1
        assert stats["loc_rib"] == 2
        assert stats["updates_sent"] >= 1
        assert d1.all_established()
