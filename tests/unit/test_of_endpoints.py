"""Unit tests: switch agent + controller over a real channel."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.dataplane.network import Network
from repro.netproto.addr import IPv4Prefix
from repro.openflow.actions import ActionOutput
from repro.openflow.constants import FlowModCommand, PortNo, StatsType
from repro.openflow.controller import Controller, ControllerApp
from repro.openflow.match import Match
from repro.openflow.messages import EchoRequest, FlowMod, StatsRequest
from repro.openflow.switch_agent import SwitchAgent


class RecordingApp(ControllerApp):
    """Collects every event for assertions."""

    name = "recorder"

    def __init__(self):
        super().__init__()
        self.joins = []
        self.packet_ins = []
        self.stats = []
        self.removed = []

    def on_switch_join(self, dp):
        self.joins.append(dp.name)

    def on_packet_in(self, dp, message):
        self.packet_ins.append((dp.name, message))

    def on_stats_reply(self, dp, message):
        self.stats.append((dp.name, message))

    def on_flow_removed(self, dp, message):
        self.removed.append((dp.name, message))


@pytest.fixture
def rig():
    """One switch, one controller, handshake completed."""
    sim = Simulation(SimulationConfig())
    net = Network()
    sim.attach_network(net)
    h1 = net.add_host("h1", "10.0.0.1")
    h2 = net.add_host("h2", "10.0.0.2")
    s1 = net.add_switch("s1")
    net.add_link(h1, s1)
    net.add_link(h2, s1)

    controller = Controller("ctl")
    app = RecordingApp()
    controller.add_app(app)
    agent = SwitchAgent(s1)
    channel = sim.cm.open_channel(controller, agent, latency=0.0001)
    agent.bind_channel(channel)
    controller.bind_channel(channel, "s1")
    sim.add_process(agent)
    sim.add_process(controller)
    sim.run(until=0.01)  # completes the handshake
    return sim, net, s1, controller, agent, app, h1, h2


class TestHandshake:
    def test_switch_joins(self, rig):
        sim, net, s1, controller, agent, app, *_ = rig
        assert app.joins == ["s1"]
        assert agent.connected

    def test_datapath_metadata(self, rig):
        sim, net, s1, controller, *_ = rig
        dp = controller.datapath_by_name("s1")
        assert dp.ready
        assert dp.dpid == s1.dpid
        assert dp.ports == sorted(s1.ports)

    def test_ready_datapaths(self, rig):
        __, __, __, controller, *_ = rig
        ready = [dp.name for dp in controller.datapaths.values() if dp.ready]
        assert ready == ["s1"]


class TestFlowModPath:
    def test_add_installs_entry(self, rig):
        sim, net, s1, controller, *_ = rig
        dp = controller.datapath_by_name("s1")
        dp.flow_mod(Match(nw_dst=IPv4Prefix("10.0.0.2/32")), [ActionOutput(2)])
        sim.run(until=sim.now + 0.01)
        assert len(s1.table) == 1
        assert sim.cm.flow_mods == 1

    def test_delete_removes_entry(self, rig):
        sim, net, s1, controller, *_ = rig
        dp = controller.datapath_by_name("s1")
        dp.flow_mod(Match(nw_dst=IPv4Prefix("10.0.0.2/32")), [ActionOutput(2)])
        sim.run(until=sim.now + 0.01)
        dp.flow_mod(Match(), [], command=FlowModCommand.DELETE)
        sim.run(until=sim.now + 0.01)
        assert len(s1.table) == 0

    def test_modify_rewrites_actions(self, rig):
        sim, net, s1, controller, *_ = rig
        dp = controller.datapath_by_name("s1")
        match = Match(nw_dst=IPv4Prefix("10.0.0.2/32"))
        dp.flow_mod(match, [ActionOutput(1)])
        sim.run(until=sim.now + 0.01)
        dp.flow_mod(match, [ActionOutput(2)], command=FlowModCommand.MODIFY)
        sim.run(until=sim.now + 0.01)
        assert s1.table.entries()[0].output_ports() == [2]

    def test_modify_missing_behaves_like_add(self, rig):
        sim, net, s1, controller, *_ = rig
        dp = controller.datapath_by_name("s1")
        dp.flow_mod(Match(), [ActionOutput(1)], command=FlowModCommand.MODIFY)
        sim.run(until=sim.now + 0.01)
        assert len(s1.table) == 1


class TestPacketInOut:
    def test_miss_raises_packet_in_with_frame(self, rig):
        sim, net, s1, controller, agent, app, h1, h2 = rig
        from repro.dataplane.flow import FluidFlow
        flow = FluidFlow(h1, h2, demand_bps=1e6, start_time=sim.now)
        net.add_flow(flow)
        sim.run(until=sim.now + 0.01)
        assert len(app.packet_ins) == 1
        name, message = app.packet_ins[0]
        from repro.netproto.packet import Packet
        packet = Packet.decode(message.data)
        assert packet.ip.dst == h2.ip
        assert message.in_port == 1

    def test_packet_out_transmits(self, rig):
        sim, net, s1, controller, agent, app, h1, h2 = rig
        from repro.netproto.packet import make_udp_packet
        frame = make_udp_packet(h1.mac, h2.mac, h1.ip, h2.ip, 5, 6,
                                payload=b"po").encode()
        dp = controller.datapath_by_name("s1")
        dp.packet_out(frame, [ActionOutput(2)])
        sim.run(until=sim.now + 0.01)
        assert len(h2.received_packets) == 1

    def test_packet_out_flood_spares_in_port(self, rig):
        sim, net, s1, controller, agent, app, h1, h2 = rig
        from repro.netproto.packet import make_udp_packet
        frame = make_udp_packet(h1.mac, h2.mac, h1.ip, h2.ip, 5, 6).encode()
        dp = controller.datapath_by_name("s1")
        dp.packet_out(frame, [ActionOutput(PortNo.FLOOD)], in_port=1)
        sim.run(until=sim.now + 0.01)
        assert len(h2.received_packets) == 1
        assert len(h1.received_packets) == 0


class TestStats:
    def test_flow_stats_reflect_counters(self, rig):
        sim, net, s1, controller, agent, app, h1, h2 = rig
        dp = controller.datapath_by_name("s1")
        dp.flow_mod(Match(nw_dst=IPv4Prefix("10.0.0.2/32")), [ActionOutput(2)])
        dp.flow_mod(Match(nw_dst=IPv4Prefix("10.0.0.1/32")), [ActionOutput(1)])
        sim.run(until=sim.now + 0.01)
        from repro.dataplane.flow import FluidFlow
        flow = FluidFlow(h1, h2, demand_bps=8e6, start_time=sim.now,
                         end_time=sim.now + 1.0)
        net.add_flow(flow)
        sim.run(until=sim.now + 1.0)
        dp.request_flow_stats()
        sim.run(until=sim.now + 0.01)
        assert len(app.stats) == 1
        __, reply = app.stats[0]
        assert reply.stats_type is StatsType.FLOW
        by_bytes = sorted(e.byte_count for e in reply.flow_stats)
        assert by_bytes[-1] == pytest.approx(1e6, rel=0.01)

    def test_port_stats(self, rig):
        sim, net, s1, controller, agent, app, *_ = rig
        dp = controller.datapath_by_name("s1")
        dp.send(StatsRequest(xid=controller.next_xid(),
                             stats_type=StatsType.PORT, port_no=0xFFFFFFFF))
        sim.run(until=sim.now + 0.01)
        __, reply = app.stats[-1]
        assert reply.stats_type is StatsType.PORT
        assert {p.port_no for p in reply.port_stats} == {1, 2}

    def test_echo_answered(self, rig):
        sim, net, s1, controller, agent, *_ = rig
        dp = controller.datapath_by_name("s1")
        dp.send(EchoRequest(xid=99, data=b"hb"))
        count_before = dp.channel.messages_ba
        sim.run(until=sim.now + 0.01)
        assert dp.channel.messages_ba > count_before  # reply flowed back


class TestExpiry:
    def test_idle_timeout_generates_flow_removed(self, rig):
        sim, net, s1, controller, agent, app, *_ = rig
        dp = controller.datapath_by_name("s1")
        dp.flow_mod(Match(), [ActionOutput(1)], idle_timeout=1)
        sim.run(until=sim.now + 0.01)
        assert len(s1.table) == 1
        # Manually tick the agent well past the timeout.
        sim.scheduler.at(sim.now + 2.0, lambda: agent.tick(sim.now))
        sim.run(until=sim.now + 2.5)
        assert len(s1.table) == 0
        assert len(app.removed) == 1


def _poison(wire: bytes) -> bytes:
    """A delivery whose last message lies about its action TLV length."""
    bad = bytearray(FlowMod(xid=77, match=Match(in_port=9),
                            actions=[ActionOutput(1)]).encode())
    bad[-10] = 0xFF  # the OUTPUT action's length field: 12 -> 0xFF0C
    return wire + bytes(bad)


class TestFailClosed:
    """A malformed delivery is dropped whole: counted, answered with an
    error by the switch, and never applied in part."""

    def test_agent_applies_nothing_from_a_poisoned_delivery(self, rig):
        sim, net, s1, controller, agent, app, *_ = rig
        dp = controller.datapath_by_name("s1")
        good = FlowMod(xid=5, match=Match(nw_dst=IPv4Prefix("10.0.0.2/32")),
                       actions=[ActionOutput(2)]).encode()
        version, flow_mods = s1.table.version, sim.cm.flow_mods
        before = agent.stats()
        dp.channel.send(controller, _poison(good + good))
        sim.run(until=sim.now + 0.01)
        # Not even the well-formed flow-mods ahead of the bad one.
        assert len(s1.table) == 0 and s1.table.version == version
        assert sim.cm.flow_mods == flow_mods
        after = agent.stats()
        assert after["decode_errors"] == before["decode_errors"] + 1
        assert after["flow_mods_applied"] == before["flow_mods_applied"]
        assert after.get("rx_flow_mod", 0) == before.get("rx_flow_mod", 0)
        # The controller hears a bad-request error and carries on.
        assert after["tx_error"] == before.get("tx_error", 0) + 1
        assert controller.stats()["rx_error"] == 1
        dp.channel.send(controller, good)
        sim.run(until=sim.now + 0.01)
        assert len(s1.table) == 1

    @pytest.mark.parametrize("garbage", [
        b"", b"\x01", b"\x09\x00\x00\x08\x00\x00\x00\x01",
        b"\x01\x63\x00\x08\x00\x00\x00\x01",            # unknown type
        b"\x01\x0e\x00\x08\x00\x00\x00\x01",            # FLOW_MOD, no body
        b"\x01\x12\x00\x09\x00\x00\x00\x01\x00",        # BARRIER with a body
    ], ids=["empty", "one-byte", "version", "type", "truncated", "trailing"])
    def test_agent_survives_garbage(self, rig, garbage):
        sim, net, s1, controller, agent, *_ = rig
        agent.receive(controller.datapath_by_name("s1").channel, garbage,
                      None)
        assert agent.decode_errors == (1 if garbage else 0)
        assert len(s1.table) == 0

    def test_controller_drops_a_poisoned_delivery_before_any_app(self, rig):
        from repro.openflow.messages import PacketIn, StatsReply
        sim, net, s1, controller, agent, app, *_ = rig
        dp = controller.datapath_by_name("s1")
        good = (PacketIn(xid=1, in_port=1, data=b"x" * 20).encode()
                + StatsReply(xid=2).encode())
        truncated_reply = StatsReply(xid=3).encode()[:-1]
        before = controller.stats()
        dp.channel.send(agent, good + truncated_reply)
        sim.run(until=sim.now + 0.01)
        assert app.packet_ins == [] and app.stats == []
        after = controller.stats()
        assert after["decode_errors"] == before["decode_errors"] + 1
        assert after["packet_ins"] == before["packet_ins"]
        assert after["stats_replies"] == before["stats_replies"]
        dp.channel.send(agent, good)
        sim.run(until=sim.now + 0.01)
        assert len(app.packet_ins) == 1 and len(app.stats) == 1

    def test_undecodable_frames_in_packet_messages_are_refused(self, rig):
        from repro.controllers import FiveTupleEcmpApp, LearningSwitchApp
        from repro.openflow.messages import PacketIn
        sim, net, s1, controller, agent, app, *_ = rig
        dp = controller.datapath_by_name("s1")
        dp.packet_out(b"\x00" * 7, [ActionOutput(2)])   # not a frame
        sim.run(until=sim.now + 0.01)
        assert agent.stats()["tx_error"] == 1
        for reactive in (FiveTupleEcmpApp(None), LearningSwitchApp()):
            controller.add_app(reactive)
        dp.channel.send(agent, PacketIn(xid=4, in_port=1,
                                        data=b"\x00" * 7).encode())
        sim.run(until=sim.now + 0.01)                   # nothing raises
        assert controller.stats()["rx_packet_in"] == 1

    def test_a_poisoned_stats_reply_leaves_the_hedera_round_alone(self):
        """The fuzz at the endpoint: mutated replies to a live poll never
        touch ``HederaApp._round`` unless they decode, and the round
        still completes on the genuine replies."""
        import random
        from repro.api import Experiment
        from repro.controllers import HederaApp
        from repro.openflow.constants import OFDecodeError
        from repro.openflow.messages import decode_messages
        from repro.topology import FatTreeTopo

        exp = Experiment("poison")
        exp.load_topo(FatTreeTopo(k=4))
        app = HederaApp(exp.topology_view(), poll_interval=5.0)
        controller = exp.use_controller(apps=[app])
        exp.add_demo_traffic(rate_bps=1e9, duration=12.0)
        rng = random.Random(5)
        injected = []

        def corrupt(channel, receiver, data):
            # Echo a damaged copy of every genuine stats reply.
            if (receiver is controller and data[1] == 17
                    and data not in injected):
                bad = bytearray(data)
                if rng.random() < 0.5:
                    del bad[rng.randrange(8, len(bad)):]
                else:
                    bad[rng.randrange(8, len(bad))] ^= 0xFF
                bad = bytes(bad)
                try:
                    decode_messages(bad)
                except OFDecodeError:
                    injected.append(bad)
                    channel.send(channel.peer_of(receiver), bad)

        exp.sim.cm.add_observer(corrupt)
        rounds = []
        original = app._schedule_round
        app._schedule_round = lambda poll: (rounds.append(dict(poll.flow_bytes)),
                                            original(poll))
        exp.run(until=13.0)
        assert len(injected) >= 8
        assert controller.stats()["decode_errors"] == len(injected)
        # Both polls completed, on exactly the flows the switches hold.
        assert app.polls == 2 and len(rounds) == 2
        assert all(len(flow_bytes) == 16 for flow_bytes in rounds)
        assert app._round is None
