"""Packet header codecs: Ethernet, IPv4, UDP and TCP.

Two consumers need real packets:

* the emulated control plane — BGP messages ride inside TCP/IPv4/Ethernet
  frames so the Connection Manager observes genuine byte streams, and
  OpenFlow PACKET_IN/PACKET_OUT carry real frames;
* the packet-level baseline emulator (`repro.baseline`), which forwards
  every packet individually the way Mininet's data plane would.

Headers are plain dataclasses with ``encode``/``decode`` round-tripping
through the standard wire format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.netproto.addr import IPv4Address, MACAddress
from repro.netproto.checksum import internet_checksum

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17

ETHERNET_HEADER_LEN = 14
IPV4_MIN_HEADER_LEN = 20
UDP_HEADER_LEN = 8
TCP_MIN_HEADER_LEN = 20


class PacketDecodeError(ValueError):
    """Raised when bytes cannot be parsed as the expected header."""


@dataclass(frozen=True)
class FiveTuple:
    """The classic flow identifier used for ECMP hashing and flow tables."""

    src_ip: IPv4Address
    dst_ip: IPv4Address
    protocol: int
    src_port: int
    dst_port: int

    def as_tuple(self) -> Tuple[int, int, int, int, int]:
        """Plain-int view, stable across processes (unlike ``hash``)."""
        return (
            int(self.src_ip),
            int(self.dst_ip),
            self.protocol,
            self.src_port,
            self.dst_port,
        )

    def __str__(self) -> str:
        return (
            f"{self.src_ip}:{self.src_port} -> "
            f"{self.dst_ip}:{self.dst_port} proto={self.protocol}"
        )


@dataclass
class EthernetHeader:
    """An Ethernet II frame header."""

    dst: MACAddress
    src: MACAddress
    ethertype: int = ETHERTYPE_IPV4

    def encode(self) -> bytes:
        """Serialise to the 14-byte wire format."""
        return self.dst.packed() + self.src.packed() + struct.pack("!H", self.ethertype)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["EthernetHeader", bytes]:
        """Parse a frame header; returns (header, payload)."""
        if len(data) < ETHERNET_HEADER_LEN:
            raise PacketDecodeError("truncated Ethernet header")
        dst = MACAddress.from_bytes(data[0:6])
        src = MACAddress.from_bytes(data[6:12])
        (ethertype,) = struct.unpack("!H", data[12:14])
        return cls(dst=dst, src=src, ethertype=ethertype), data[14:]


@dataclass
class IPv4Header:
    """An IPv4 header (no options support — IHL is always 5)."""

    src: IPv4Address
    dst: IPv4Address
    protocol: int = IPPROTO_UDP
    ttl: int = 64
    identification: int = 0
    dscp: int = 0
    total_length: int = IPV4_MIN_HEADER_LEN
    flags: int = 0
    fragment_offset: int = 0

    def encode(self, payload_length: "int | None" = None) -> bytes:
        """Serialise to wire format with a correct header checksum.

        When ``payload_length`` is given, the total-length field is set
        to header length + payload length.
        """
        total = self.total_length
        if payload_length is not None:
            total = IPV4_MIN_HEADER_LEN + payload_length
        version_ihl = (4 << 4) | 5
        flags_frag = (self.flags << 13) | self.fragment_offset
        without_checksum = struct.pack(
            "!BBHHHBBH4s4s",
            version_ihl,
            self.dscp << 2,
            total,
            self.identification,
            flags_frag,
            self.ttl,
            self.protocol,
            0,
            self.src.packed(),
            self.dst.packed(),
        )
        checksum = internet_checksum(without_checksum)
        return without_checksum[:10] + struct.pack("!H", checksum) + without_checksum[12:]

    @classmethod
    def decode(cls, data: bytes) -> Tuple["IPv4Header", bytes]:
        """Parse an IPv4 header; returns (header, payload).

        The payload is truncated to the header's total-length field so
        Ethernet padding does not leak into upper layers.
        """
        if len(data) < IPV4_MIN_HEADER_LEN:
            raise PacketDecodeError("truncated IPv4 header")
        (
            version_ihl,
            tos,
            total,
            identification,
            flags_frag,
            ttl,
            protocol,
            __,
            src_raw,
            dst_raw,
        ) = struct.unpack("!BBHHHBBH4s4s", data[:IPV4_MIN_HEADER_LEN])
        version = version_ihl >> 4
        ihl = version_ihl & 0x0F
        if version != 4:
            raise PacketDecodeError(f"not IPv4 (version={version})")
        if ihl < 5:
            raise PacketDecodeError(f"bad IHL {ihl}")
        header_len = ihl * 4
        if len(data) < header_len:
            raise PacketDecodeError("truncated IPv4 options")
        header = cls(
            src=IPv4Address.from_bytes(src_raw),
            dst=IPv4Address.from_bytes(dst_raw),
            protocol=protocol,
            ttl=ttl,
            identification=identification,
            dscp=tos >> 2,
            total_length=total,
            flags=flags_frag >> 13,
            fragment_offset=flags_frag & 0x1FFF,
        )
        payload_len = max(0, total - header_len)
        return header, data[header_len : header_len + payload_len]


@dataclass
class UDPHeader:
    """A UDP header; length covers header + payload."""

    src_port: int
    dst_port: int
    length: int = UDP_HEADER_LEN

    def encode(self, payload_length: "int | None" = None) -> bytes:
        """Serialise to the 8-byte wire format (checksum 0 = disabled)."""
        length = self.length
        if payload_length is not None:
            length = UDP_HEADER_LEN + payload_length
        return struct.pack("!HHHH", self.src_port, self.dst_port, length, 0)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["UDPHeader", bytes]:
        """Parse a UDP header; returns (header, payload)."""
        if len(data) < UDP_HEADER_LEN:
            raise PacketDecodeError("truncated UDP header")
        src_port, dst_port, length, __ = struct.unpack("!HHHH", data[:UDP_HEADER_LEN])
        header = cls(src_port=src_port, dst_port=dst_port, length=length)
        payload_len = max(0, length - UDP_HEADER_LEN)
        return header, data[UDP_HEADER_LEN : UDP_HEADER_LEN + payload_len]


# TCP flag bits.
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


@dataclass
class TCPHeader:
    """A TCP header (no options — data offset is always 5).

    The emulated control plane uses this to frame BGP sessions; the
    simulator's reliable channel takes care of retransmission, so the
    sequence numbers here exist for wire realism and tracing.
    """

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = TCP_ACK
    window: int = 65535

    def encode(self) -> bytes:
        """Serialise to the 20-byte wire format (checksum 0)."""
        offset_flags = (5 << 12) | (self.flags & 0x3F)
        return struct.pack(
            "!HHIIHHHH",
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            offset_flags,
            self.window,
            0,
            0,
        )

    @classmethod
    def decode(cls, data: bytes) -> Tuple["TCPHeader", bytes]:
        """Parse a TCP header; returns (header, payload)."""
        if len(data) < TCP_MIN_HEADER_LEN:
            raise PacketDecodeError("truncated TCP header")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_flags,
            window,
            __,
            ___,
        ) = struct.unpack("!HHIIHHHH", data[:TCP_MIN_HEADER_LEN])
        offset = (offset_flags >> 12) * 4
        if offset < TCP_MIN_HEADER_LEN or len(data) < offset:
            raise PacketDecodeError("bad TCP data offset")
        header = cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=offset_flags & 0x3F,
            window=window,
        )
        return header, data[offset:]


@dataclass
class Packet:
    """A fully formed simulated packet.

    Keeps the decoded headers alongside an optional payload; ``encode``
    produces the full frame, and :meth:`decode` parses one back.  The
    ``size`` attribute is the nominal on-wire size in bytes used by the
    packet-level baseline (the payload itself may be elided to save
    memory for bulk data traffic).
    """

    eth: EthernetHeader
    ip: Optional[IPv4Header] = None
    l4: "UDPHeader | TCPHeader | None" = None
    payload: bytes = b""
    size: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            self.size = self.wire_length()

    def wire_length(self) -> int:
        """Length of the encoded frame in bytes."""
        length = ETHERNET_HEADER_LEN + len(self.payload)
        if self.ip is not None:
            length += IPV4_MIN_HEADER_LEN
        if isinstance(self.l4, UDPHeader):
            length += UDP_HEADER_LEN
        elif isinstance(self.l4, TCPHeader):
            length += TCP_MIN_HEADER_LEN
        return length

    def encode(self) -> bytes:
        """Serialise the full frame to bytes."""
        parts = [self.eth.encode()]
        l4_bytes = b""
        if isinstance(self.l4, UDPHeader):
            l4_bytes = self.l4.encode(payload_length=len(self.payload))
        elif isinstance(self.l4, TCPHeader):
            l4_bytes = self.l4.encode()
        if self.ip is not None:
            ip_payload_len = len(l4_bytes) + len(self.payload)
            parts.append(self.ip.encode(payload_length=ip_payload_len))
        parts.append(l4_bytes)
        parts.append(self.payload)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "Packet":
        """Parse a frame; unknown ethertypes keep the raw payload."""
        eth, rest = EthernetHeader.decode(data)
        packet = cls(eth=eth, payload=rest, size=len(data))
        if eth.ethertype != ETHERTYPE_IPV4:
            return packet
        ip, rest = IPv4Header.decode(rest)
        packet.ip = ip
        packet.payload = rest
        if ip.protocol == IPPROTO_UDP:
            udp, rest = UDPHeader.decode(rest)
            packet.l4 = udp
            packet.payload = rest
        elif ip.protocol == IPPROTO_TCP:
            tcp, rest = TCPHeader.decode(rest)
            packet.l4 = tcp
            packet.payload = rest
        return packet

    def five_tuple(self) -> Optional[FiveTuple]:
        """The packet's flow identifier, or None for non-IP frames."""
        if self.ip is None:
            return None
        src_port = dst_port = 0
        if self.l4 is not None:
            src_port = self.l4.src_port
            dst_port = self.l4.dst_port
        return FiveTuple(
            src_ip=self.ip.src,
            dst_ip=self.ip.dst,
            protocol=self.ip.protocol,
            src_port=src_port,
            dst_port=dst_port,
        )


def make_udp_packet(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
    size: int = 0,
) -> Packet:
    """Convenience constructor for a UDP datagram frame."""
    return Packet(
        eth=EthernetHeader(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4),
        ip=IPv4Header(src=src_ip, dst=dst_ip, protocol=IPPROTO_UDP),
        l4=UDPHeader(src_port=src_port, dst_port=dst_port),
        payload=payload,
        size=size,
    )
