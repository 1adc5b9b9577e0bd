"""Unit tests: packet header codecs and checksum."""

import pytest

from repro.netproto.addr import IPv4Address, MACAddress
from repro.netproto.checksum import internet_checksum
from repro.netproto.packet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    EthernetHeader,
    FiveTuple,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4Header,
    Packet,
    PacketDecodeError,
    TCP_SYN,
    TCPHeader,
    UDPHeader,
    make_udp_packet,
)

MAC_A = MACAddress("02:00:00:00:00:01")
MAC_B = MACAddress("02:00:00:00:00:02")
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")


class TestChecksum:
    def test_rfc_example_header(self):
        header = bytes.fromhex("45000073000040004011" "0000" "c0a80001c0a800c7")
        assert internet_checksum(header) == 0xB861

    def test_verify_with_checksum_in_place(self):
        header = bytes.fromhex("45000073000040004011" "b861" "c0a80001c0a800c7")
        assert internet_checksum(header) == 0

    def test_odd_length_padding(self):
        # Should not raise, and padding with zero changes nothing.
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF


class TestEthernet:
    def test_roundtrip(self):
        header = EthernetHeader(dst=MAC_B, src=MAC_A, ethertype=ETHERTYPE_IPV4)
        decoded, payload = EthernetHeader.decode(header.encode() + b"rest")
        assert decoded == header
        assert payload == b"rest"

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            EthernetHeader.decode(b"\x00" * 13)


class TestIPv4:
    def test_roundtrip(self):
        header = IPv4Header(src=IP_A, dst=IP_B, protocol=IPPROTO_UDP, ttl=17)
        wire = header.encode(payload_length=8)
        decoded, payload = IPv4Header.decode(wire + b"\x00" * 8)
        assert decoded.src == IP_A
        assert decoded.dst == IP_B
        assert decoded.ttl == 17
        assert decoded.total_length == 28
        assert len(payload) == 8

    def test_checksum_is_valid(self):
        wire = IPv4Header(src=IP_A, dst=IP_B).encode(payload_length=0)
        assert internet_checksum(wire) == 0

    def test_payload_truncated_to_total_length(self):
        wire = IPv4Header(src=IP_A, dst=IP_B).encode(payload_length=4)
        # Simulate Ethernet padding after the 4 payload bytes.
        __, payload = IPv4Header.decode(wire + b"abcd" + b"\x00" * 10)
        assert payload == b"abcd"

    def test_rejects_non_ipv4(self):
        wire = bytearray(IPv4Header(src=IP_A, dst=IP_B).encode(payload_length=0))
        wire[0] = (6 << 4) | 5  # version 6
        with pytest.raises(PacketDecodeError):
            IPv4Header.decode(bytes(wire))

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            IPv4Header.decode(b"\x45\x00")


class TestUDP:
    def test_roundtrip(self):
        wire = UDPHeader(src_port=1234, dst_port=9000).encode(payload_length=5)
        decoded, payload = UDPHeader.decode(wire + b"hello")
        assert decoded.src_port == 1234
        assert decoded.dst_port == 9000
        assert decoded.length == 13
        assert payload == b"hello"

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            UDPHeader.decode(b"\x00" * 7)


class TestTCP:
    def test_roundtrip(self):
        header = TCPHeader(src_port=179, dst_port=4000, seq=7, ack=9,
                           flags=TCP_SYN, window=1024)
        decoded, payload = TCPHeader.decode(header.encode() + b"xyz")
        assert decoded.src_port == 179
        assert decoded.seq == 7
        assert decoded.flags & TCP_SYN
        assert payload == b"xyz"

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            TCPHeader.decode(b"\x00" * 10)


class TestPacket:
    def test_udp_full_roundtrip(self):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 4000, 9000,
                                 payload=b"data")
        decoded = Packet.decode(packet.encode())
        assert decoded.eth.src == MAC_A
        assert decoded.ip.dst == IP_B
        assert isinstance(decoded.l4, UDPHeader)
        assert decoded.payload == b"data"

    def test_tcp_full_roundtrip(self):
        packet = Packet(
            eth=EthernetHeader(dst=MAC_B, src=MAC_A, ethertype=ETHERTYPE_IPV4),
            ip=IPv4Header(src=IP_A, dst=IP_B, protocol=IPPROTO_TCP),
            l4=TCPHeader(src_port=179, dst_port=5000, flags=TCP_SYN),
            payload=b"bgp",
        )
        decoded = Packet.decode(packet.encode())
        assert isinstance(decoded.l4, TCPHeader)
        assert decoded.l4.flags & TCP_SYN
        assert decoded.payload == b"bgp"

    def test_non_ip_kept_opaque(self):
        packet = Packet(
            eth=EthernetHeader(dst=MAC_B, src=MAC_A, ethertype=ETHERTYPE_ARP),
            payload=b"arpdata",
        )
        decoded = Packet.decode(packet.encode())
        assert decoded.ip is None
        assert decoded.payload == b"arpdata"

    def test_five_tuple(self):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 4000, 9000)
        flow = packet.five_tuple()
        assert flow == FiveTuple(IP_A, IP_B, IPPROTO_UDP, 4000, 9000)

    def test_five_tuple_none_for_non_ip(self):
        packet = Packet(eth=EthernetHeader(dst=MAC_B, src=MAC_A,
                                           ethertype=ETHERTYPE_ARP))
        assert packet.five_tuple() is None

    def test_size_defaults_to_wire_length(self):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, payload=b"xx")
        assert packet.size == packet.wire_length() == 14 + 20 + 8 + 2

    def test_explicit_size_preserved(self):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, size=1500)
        assert packet.size == 1500


class TestFiveTuple:
    def test_as_tuple_stable(self):
        flow = FiveTuple(IP_A, IP_B, IPPROTO_UDP, 10, 20)
        assert flow.as_tuple() == (int(IP_A), int(IP_B), IPPROTO_UDP, 10, 20)

    def test_hashable(self):
        a = FiveTuple(IP_A, IP_B, IPPROTO_UDP, 10, 20)
        b = FiveTuple(IP_A, IP_B, IPPROTO_UDP, 10, 20)
        assert a == b
        assert len({a, b}) == 1
