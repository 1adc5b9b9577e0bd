"""Unit tests: OpenFlow match, actions and message codecs."""

import pytest

from repro.netproto.addr import IPv4Address, IPv4Prefix, MACAddress
from repro.netproto.packet import FiveTuple, IPPROTO_TCP, IPPROTO_UDP, make_udp_packet
from repro.openflow.actions import (
    ActionDrop,
    ActionOutput,
    ActionSetField,
    decode_actions,
    encode_actions,
    output_ports,
)
from repro.openflow.constants import FlowModCommand, MsgType, PortNo, StatsType
from repro.openflow.match import Match
from repro.openflow.messages import (
    AggregateStats,
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    FlowStatsEntry,
    Hello,
    OFDecodeError,
    PacketIn,
    PacketOut,
    PortDesc,
    PortStatsEntry,
    StatsReply,
    StatsRequest,
    decode_message,
    decode_message_stream,
)


def flow(sport=1000, dport=2000):
    return FiveTuple(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                     IPPROTO_UDP, sport, dport)


class TestMatchSemantics:
    def test_wildcard_matches_everything(self):
        assert Match().matches_five_tuple(flow())

    def test_exact_five_tuple(self):
        match = Match.exact_five_tuple(flow())
        assert match.matches_five_tuple(flow())
        assert not match.matches_five_tuple(flow(sport=1001))

    def test_prefix_nw_dst(self):
        match = Match(nw_dst=IPv4Prefix("10.0.0.0/24"))
        assert match.matches_five_tuple(flow())
        other = FiveTuple(IPv4Address("10.0.0.1"), IPv4Address("10.9.0.2"),
                          IPPROTO_UDP, 1, 2)
        assert not match.matches_five_tuple(other)

    def test_in_port_constraint(self):
        match = Match(in_port=3)
        assert match.matches_five_tuple(flow(), in_port=3)
        assert not match.matches_five_tuple(flow(), in_port=4)

    def test_protocol_constraint(self):
        match = Match(nw_proto=IPPROTO_TCP)
        assert not match.matches_five_tuple(flow())

    def test_packet_matching(self):
        mac_a, mac_b = MACAddress(1), MACAddress(2)
        packet = make_udp_packet(mac_a, mac_b, IPv4Address("10.0.0.1"),
                                 IPv4Address("10.0.0.2"), 1000, 2000)
        assert Match(dl_dst=mac_b).matches_packet(packet)
        assert not Match(dl_dst=mac_a).matches_packet(packet)
        assert Match(tp_dst=2000).matches_packet(packet)
        assert not Match(tp_dst=2001).matches_packet(packet)

    def test_subsumption(self):
        wide = Match(nw_dst=IPv4Prefix("10.0.0.0/8"))
        narrow = Match(nw_dst=IPv4Prefix("10.1.0.0/16"), nw_proto=IPPROTO_UDP)
        assert wide.subsumes(narrow)
        assert not narrow.subsumes(wide)
        assert Match().subsumes(wide)

    def test_subsumes_self(self):
        match = Match.exact_five_tuple(flow())
        assert match.subsumes(match)


class TestMatchCodec:
    CASES = [
        Match(),
        Match(in_port=7),
        Match(dl_src=MACAddress(0xAABBCCDDEEFF)),
        Match(dl_dst=MACAddress(1), dl_type=0x0800),
        Match(nw_src=IPv4Prefix("10.0.0.0/8")),
        Match(nw_dst=IPv4Prefix("10.1.2.3/32")),
        Match(nw_proto=6, tp_src=179, tp_dst=4000),
        Match.exact_five_tuple(FiveTuple(IPv4Address("1.2.3.4"),
                                         IPv4Address("5.6.7.8"),
                                         IPPROTO_TCP, 1, 65535)),
    ]

    @pytest.mark.parametrize("match", CASES, ids=range(len(CASES)))
    def test_roundtrip(self, match):
        decoded, rest = Match.decode(match.encode())
        assert decoded == match
        assert rest == b""

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            Match.decode(b"\x00" * 5)


class TestActionCodec:
    def test_output_roundtrip(self):
        actions = [ActionOutput(3), ActionOutput(PortNo.CONTROLLER)]
        assert decode_actions(encode_actions(actions)) == actions

    def test_set_field_roundtrip(self):
        actions = [
            ActionSetField("dl_dst", MACAddress(42)),
            ActionSetField("nw_src", IPv4Address("10.0.0.9")),
        ]
        assert decode_actions(encode_actions(actions)) == actions

    def test_drop_encodes_empty(self):
        assert encode_actions([ActionDrop()]) == b""

    def test_output_ports_helper(self):
        actions = [ActionOutput(1), ActionSetField("dl_dst", MACAddress(1)),
                   ActionOutput(2)]
        assert output_ports(actions) == [1, 2]

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            decode_actions(b"\xff\xff\x00\x04")
        with pytest.raises(ValueError):
            decode_actions(b"\x00\x00\x00")  # truncated TLV


class TestMessageCodecs:
    def test_every_type_roundtrips_with_correct_wire_type(self):
        mac_match = Match(dl_dst=MACAddress(5))
        samples = [
            Hello(xid=1),
            EchoRequest(xid=2, data=b"ping"),
            EchoReply(xid=3, data=b"pong"),
            ErrorMsg(xid=4, err_type=1, err_code=2, data=b"bad"),
            FeaturesRequest(xid=5),
            FeaturesReply(xid=6, datapath_id=0xAB, n_tables=2,
                          ports=[PortDesc(1, "eth1"), PortDesc(2, "eth2")]),
            PacketIn(xid=7, in_port=3, reason=0, data=b"frame"),
            PacketOut(xid=8, in_port=1, actions=[ActionOutput(2)], data=b"frame"),
            FlowMod(xid=9, match=mac_match, command=FlowModCommand.ADD,
                    priority=77, idle_timeout=10, hard_timeout=20, cookie=123,
                    actions=[ActionOutput(4)]),
            FlowRemoved(xid=10, match=mac_match, priority=77, reason=1,
                        duration_sec=5.0, packet_count=9, byte_count=900),
            StatsRequest(xid=11, stats_type=StatsType.FLOW, match=Match()),
            StatsRequest(xid=12, stats_type=StatsType.PORT, port_no=3),
            StatsReply(xid=13, stats_type=StatsType.FLOW, flow_stats=[
                FlowStatsEntry(match=mac_match, priority=1, duration_sec=2.0,
                               packet_count=3, byte_count=4, cookie=5)]),
            StatsReply(xid=14, stats_type=StatsType.PORT, port_stats=[
                PortStatsEntry(port_no=1, rx_packets=2, tx_packets=3,
                               rx_bytes=4, tx_bytes=5)]),
            StatsReply(xid=15, stats_type=StatsType.AGGREGATE,
                       aggregate=AggregateStats(1, 2, 3)),
            BarrierRequest(xid=16),
            BarrierReply(xid=17),
        ]
        for message in samples:
            wire = message.encode()
            assert wire[1] == int(type(message).msg_type)
            decoded = decode_message(wire)
            assert type(decoded) is type(message)
            assert decoded.xid == message.xid

    def test_flow_mod_fields_roundtrip(self):
        message = FlowMod(
            xid=42, match=Match.exact_five_tuple(flow()),
            command=FlowModCommand.DELETE, priority=999,
            idle_timeout=30, hard_timeout=60, cookie=0xDEADBEEF,
            out_port=7, actions=[ActionOutput(1), ActionOutput(2)],
        )
        decoded = decode_message(message.encode())
        assert decoded.match == message.match
        assert decoded.command is FlowModCommand.DELETE
        assert decoded.priority == 999
        assert decoded.cookie == 0xDEADBEEF
        assert decoded.out_port == 7
        assert decoded.actions == message.actions

    def test_stream_decoding_multiple_messages(self):
        wire = Hello(xid=1).encode() + EchoRequest(xid=2, data=b"x").encode()
        first, rest = decode_message_stream(wire)
        assert isinstance(first, Hello)
        second, rest = decode_message_stream(rest)
        assert isinstance(second, EchoRequest)
        assert rest == b""

    def test_trailing_bytes_rejected_by_decode_message(self):
        wire = Hello().encode() + b"extra"
        with pytest.raises(OFDecodeError):
            decode_message(wire)

    def test_bad_version_rejected(self):
        wire = bytearray(Hello().encode())
        wire[0] = 9
        with pytest.raises(OFDecodeError):
            decode_message(bytes(wire))

    def test_truncated_rejected(self):
        with pytest.raises(OFDecodeError):
            decode_message(b"\x01\x00")

    def test_packet_in_carries_frame(self):
        frame = make_udp_packet(MACAddress(1), MACAddress(2),
                                IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                                7, 8, payload=b"hello").encode()
        decoded = decode_message(PacketIn(total_len=len(frame), in_port=2,
                                          data=frame).encode())
        assert decoded.data == frame
        assert decoded.total_len == len(frame)
