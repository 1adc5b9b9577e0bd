"""The pre-PR-16 OpenFlow codec, verbatim: the reference the new one is
differentially tested against (the ``ospf_reference.py`` pattern).

Everything below is the parent commit's ``openflow/match.py``,
``actions.py``, the ``Bucket`` codec of ``groups.py`` and
``messages.py`` with only the imports merged — eager object-by-object
decode, ``data[n:]`` re-slicing, ``struct.error``/``ValueError``/
``AddressError`` escaping on malformed input.  It is an oracle, not a
second path: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple

from repro.netproto.addr import IPv4Address, IPv4Prefix, MACAddress
from repro.netproto.packet import FiveTuple
from repro.openflow.constants import (
    MsgType,
    OFP_HEADER_LEN,
    OFP_NO_BUFFER,
    OFP_VERSION,
    FlowModCommand,
    GroupModCommand,
    GroupType,
    PortNo,
    StatsType,
)

# --- match.py ---------------------------------------------------------------

# Wildcard bits (set bit = field is wildcarded), mirroring ofp_flow_wildcards.
WC_IN_PORT = 1 << 0
WC_DL_SRC = 1 << 2
WC_DL_DST = 1 << 3
WC_DL_TYPE = 1 << 4
WC_NW_PROTO = 1 << 5
WC_TP_SRC = 1 << 6
WC_TP_DST = 1 << 7
# nw_src/nw_dst wildcard bit-counts live in dedicated 6-bit fields.
WC_NW_SRC_SHIFT = 8
WC_NW_DST_SHIFT = 14
WC_ALL = (
    WC_IN_PORT
    | WC_DL_SRC
    | WC_DL_DST
    | WC_DL_TYPE
    | WC_NW_PROTO
    | WC_TP_SRC
    | WC_TP_DST
    | (32 << WC_NW_SRC_SHIFT)
    | (32 << WC_NW_DST_SHIFT)
)

_MATCH_STRUCT = struct.Struct("!II6s6sHBBHH4s4s")
MATCH_LEN = _MATCH_STRUCT.size


@dataclass(frozen=True)
class Match:
    """Field constraints; ``None`` wildcards a field.

    ``nw_src``/``nw_dst`` are prefixes, so ECMP apps can match subnets
    and exact /32 host addresses with the same type.
    """

    in_port: Optional[int] = None
    dl_src: Optional[MACAddress] = None
    dl_dst: Optional[MACAddress] = None
    dl_type: Optional[int] = None
    nw_src: Optional[IPv4Prefix] = None
    nw_dst: Optional[IPv4Prefix] = None
    nw_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None

    def __post_init__(self) -> None:
        # A /0 prefix matches everything — normalise it to the wildcard
        # so semantically identical matches compare (and encode) equal;
        # OF 1.0's wildcard bit-count cannot represent /0 distinctly.
        if self.nw_src is not None and self.nw_src.length == 0:
            object.__setattr__(self, "nw_src", None)
        if self.nw_dst is not None and self.nw_dst.length == 0:
            object.__setattr__(self, "nw_dst", None)

    @classmethod
    def exact_five_tuple(
        cls, flow: FiveTuple, in_port: "int | None" = None, dl_type: int = 0x0800
    ) -> "Match":
        """An exact match on a flow's five-tuple (the SDN ECMP app uses
        these for its per-flow entries)."""
        return cls(
            in_port=in_port,
            dl_type=dl_type,
            nw_src=IPv4Prefix.from_network(flow.src_ip, 32),
            nw_dst=IPv4Prefix.from_network(flow.dst_ip, 32),
            nw_proto=flow.protocol,
            tp_src=flow.src_port,
            tp_dst=flow.dst_port,
        )

    @classmethod
    def wildcard_all(cls) -> "Match":
        """The match-everything entry (table-miss)."""
        return cls()

    def matches_five_tuple(
        self,
        flow: FiveTuple,
        in_port: "int | None" = None,
        dl_src: "MACAddress | None" = None,
        dl_dst: "MACAddress | None" = None,
    ) -> bool:
        """Whether an IPv4 five-tuple (plus ingress port) satisfies this match.

        ``dl_src``/``dl_dst`` are the MACs the flow's frames carry
        (known to the fluid walk from the end hosts).  An entry
        constrained on a MAC does *not* match when the caller cannot
        supply one — L2 entries must never capture arbitrary L3 flows.
        """
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.dl_src is not None and (dl_src is None or dl_src != self.dl_src):
            return False
        if self.dl_dst is not None and (dl_dst is None or dl_dst != self.dl_dst):
            return False
        if self.dl_type is not None and self.dl_type != 0x0800:
            return False
        if self.nw_src is not None and not self.nw_src.contains(flow.src_ip):
            return False
        if self.nw_dst is not None and not self.nw_dst.contains(flow.dst_ip):
            return False
        if self.nw_proto is not None and self.nw_proto != flow.protocol:
            return False
        if self.tp_src is not None and self.tp_src != flow.src_port:
            return False
        if self.tp_dst is not None and self.tp_dst != flow.dst_port:
            return False
        return True

    def matches_packet(self, packet, in_port: "int | None" = None) -> bool:
        """Whether a decoded :class:`~repro.netproto.packet.Packet` matches."""
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.dl_src is not None and packet.eth.src != self.dl_src:
            return False
        if self.dl_dst is not None and packet.eth.dst != self.dl_dst:
            return False
        if self.dl_type is not None and packet.eth.ethertype != self.dl_type:
            return False
        ip = packet.ip
        needs_ip = any(
            f is not None
            for f in (self.nw_src, self.nw_dst, self.nw_proto, self.tp_src, self.tp_dst)
        )
        if needs_ip and ip is None:
            return False
        if self.nw_src is not None and not self.nw_src.contains(ip.src):
            return False
        if self.nw_dst is not None and not self.nw_dst.contains(ip.dst):
            return False
        if self.nw_proto is not None and ip.protocol != self.nw_proto:
            return False
        if self.tp_src is not None or self.tp_dst is not None:
            l4 = packet.l4
            if l4 is None:
                return False
            if self.tp_src is not None and l4.src_port != self.tp_src:
                return False
            if self.tp_dst is not None and l4.dst_port != self.tp_dst:
                return False
        return True

    def is_strict_equal(self, other: "Match") -> bool:
        """Field-for-field equality, as DELETE_STRICT requires."""
        return self == other

    def subsumes(self, other: "Match") -> bool:
        """True when every flow matching ``other`` also matches ``self``.

        Used for non-strict DELETE: an entry is removed when the
        delete's match subsumes the entry's match.
        """
        def wider(mine, theirs) -> bool:
            return mine is None or mine == theirs

        scalar_ok = all(
            wider(mine, theirs)
            for mine, theirs in (
                (self.in_port, other.in_port),
                (self.dl_src, other.dl_src),
                (self.dl_dst, other.dl_dst),
                (self.dl_type, other.dl_type),
                (self.nw_proto, other.nw_proto),
                (self.tp_src, other.tp_src),
                (self.tp_dst, other.tp_dst),
            )
        )
        if not scalar_ok:
            return False
        for mine, theirs in ((self.nw_src, other.nw_src), (self.nw_dst, other.nw_dst)):
            if mine is None:
                continue
            if theirs is None or theirs.length < mine.length:
                return False
            if not mine.overlaps(theirs):
                return False
        return True

    def specificity(self) -> int:
        """Count of constrained bits — a tie-break aid for diagnostics."""
        score = 0
        for value in (
            self.in_port, self.dl_src, self.dl_dst, self.dl_type,
            self.nw_proto, self.tp_src, self.tp_dst,
        ):
            if value is not None:
                score += 8
        for prefix in (self.nw_src, self.nw_dst):
            if prefix is not None:
                score += prefix.length
        return score

    # -- wire codec --------------------------------------------------------

    def encode(self) -> bytes:
        """Serialise to the fixed-size binary ofp_match layout."""
        wildcards = 0
        if self.in_port is None:
            wildcards |= WC_IN_PORT
        if self.dl_src is None:
            wildcards |= WC_DL_SRC
        if self.dl_dst is None:
            wildcards |= WC_DL_DST
        if self.dl_type is None:
            wildcards |= WC_DL_TYPE
        if self.nw_proto is None:
            wildcards |= WC_NW_PROTO
        if self.tp_src is None:
            wildcards |= WC_TP_SRC
        if self.tp_dst is None:
            wildcards |= WC_TP_DST
        src_wild = 32 if self.nw_src is None else 32 - self.nw_src.length
        dst_wild = 32 if self.nw_dst is None else 32 - self.nw_dst.length
        wildcards |= src_wild << WC_NW_SRC_SHIFT
        wildcards |= dst_wild << WC_NW_DST_SHIFT
        return _MATCH_STRUCT.pack(
            wildcards,
            self.in_port or 0,
            (self.dl_src or MACAddress(0)).packed(),
            (self.dl_dst or MACAddress(0)).packed(),
            self.dl_type or 0,
            self.nw_proto or 0,
            0,  # pad
            self.tp_src or 0,
            self.tp_dst or 0,
            (self.nw_src.network if self.nw_src else IPv4Address(0)).packed(),
            (self.nw_dst.network if self.nw_dst else IPv4Address(0)).packed(),
        )

    @classmethod
    def decode(cls, data: bytes) -> Tuple["Match", bytes]:
        """Parse a match; returns (match, remaining bytes)."""
        if len(data) < MATCH_LEN:
            raise ValueError("truncated ofp_match")
        (
            wildcards,
            in_port,
            dl_src_raw,
            dl_dst_raw,
            dl_type,
            nw_proto,
            __,
            tp_src,
            tp_dst,
            nw_src_raw,
            nw_dst_raw,
        ) = _MATCH_STRUCT.unpack(data[:MATCH_LEN])
        src_wild = (wildcards >> WC_NW_SRC_SHIFT) & 0x3F
        dst_wild = (wildcards >> WC_NW_DST_SHIFT) & 0x3F
        match = cls(
            in_port=None if wildcards & WC_IN_PORT else in_port,
            dl_src=None if wildcards & WC_DL_SRC else MACAddress.from_bytes(dl_src_raw),
            dl_dst=None if wildcards & WC_DL_DST else MACAddress.from_bytes(dl_dst_raw),
            dl_type=None if wildcards & WC_DL_TYPE else dl_type,
            nw_src=(
                None
                if src_wild >= 32
                else IPv4Prefix.from_network(
                    IPv4Address.from_bytes(nw_src_raw), 32 - src_wild
                )
            ),
            nw_dst=(
                None
                if dst_wild >= 32
                else IPv4Prefix.from_network(
                    IPv4Address.from_bytes(nw_dst_raw), 32 - dst_wild
                )
            ),
            nw_proto=None if wildcards & WC_NW_PROTO else nw_proto,
            tp_src=None if wildcards & WC_TP_SRC else tp_src,
            tp_dst=None if wildcards & WC_TP_DST else tp_dst,
        )
        return match, data[MATCH_LEN:]

    def __str__(self) -> str:
        parts = []
        for label, value in (
            ("in_port", self.in_port),
            ("dl_src", self.dl_src),
            ("dl_dst", self.dl_dst),
            ("dl_type", hex(self.dl_type) if self.dl_type is not None else None),
            ("nw_src", self.nw_src),
            ("nw_dst", self.nw_dst),
            ("nw_proto", self.nw_proto),
            ("tp_src", self.tp_src),
            ("tp_dst", self.tp_dst),
        ):
            if value is not None:
                parts.append(f"{label}={value}")
        return "Match(" + ", ".join(parts) + ")" if parts else "Match(*)"


# --- actions.py -------------------------------------------------------------

ACTION_OUTPUT = 0
ACTION_SET_DL_SRC = 4
ACTION_SET_DL_DST = 5
ACTION_SET_NW_SRC = 6
ACTION_SET_NW_DST = 7
ACTION_GROUP = 22  # OF 1.1+ OFPAT_GROUP
ACTION_DROP = 0xFFFF  # local marker, never a real wire code in OF 1.0


class Action:
    """Base class for flow actions."""

    type_code: int = -1

    def encode(self) -> bytes:
        """Serialise to (type, len, body...) TLV."""
        raise NotImplementedError


@dataclass(frozen=True)
class ActionOutput(Action):
    """Forward the packet/flow out of ``port``.

    ``port`` may be a physical port number or a reserved
    :class:`~repro.openflow.constants.PortNo` value (CONTROLLER, FLOOD).
    """

    port: int
    max_len: int = 0xFFFF

    type_code = ACTION_OUTPUT

    def encode(self) -> bytes:
        return struct.pack("!HHIH2x", ACTION_OUTPUT, 12, self.port, self.max_len)

    def __str__(self) -> str:
        try:
            name = PortNo(self.port).name
        except ValueError:
            name = str(self.port)
        return f"output:{name}"


@dataclass(frozen=True)
class ActionSetField(Action):
    """Rewrite one header field (dl_src/dl_dst/nw_src/nw_dst)."""

    field: str
    value: "MACAddress | IPv4Address"

    _FIELD_CODES = {
        "dl_src": ACTION_SET_DL_SRC,
        "dl_dst": ACTION_SET_DL_DST,
        "nw_src": ACTION_SET_NW_SRC,
        "nw_dst": ACTION_SET_NW_DST,
    }

    @property
    def type_code(self) -> int:  # type: ignore[override]
        return self._FIELD_CODES[self.field]

    def encode(self) -> bytes:
        code = self._FIELD_CODES[self.field]
        if self.field.startswith("dl_"):
            body = self.value.packed() + b"\x00" * 6  # pad to 8
            return struct.pack("!HH", code, 4 + len(body)) + body
        body = self.value.packed() + b"\x00" * 4
        return struct.pack("!HH", code, 4 + len(body)) + body

    def __str__(self) -> str:
        return f"set_{self.field}:{self.value}"


@dataclass(frozen=True)
class ActionGroup(Action):
    """Send the packet/flow through a group (SELECT groups = ECMP)."""

    group_id: int

    type_code = ACTION_GROUP

    def encode(self) -> bytes:
        return struct.pack("!HHI", ACTION_GROUP, 8, self.group_id)

    def __str__(self) -> str:
        return f"group:{self.group_id}"


@dataclass(frozen=True)
class ActionDrop(Action):
    """Explicit drop marker — encodes to nothing (empty action list)."""

    type_code = ACTION_DROP

    def encode(self) -> bytes:
        return b""

    def __str__(self) -> str:
        return "drop"


def encode_actions(actions: List[Action]) -> bytes:
    """Serialise an action list to its wire form."""
    return b"".join(action.encode() for action in actions)


def decode_actions(data: bytes) -> List[Action]:
    """Parse a wire-form action list."""
    actions: List[Action] = []
    offset = 0
    while offset + 4 <= len(data):
        code, length = struct.unpack_from("!HH", data, offset)
        if length < 4 or offset + length > len(data):
            raise ValueError(f"bad action TLV at offset {offset}")
        body = data[offset + 4 : offset + length]
        if code == ACTION_OUTPUT:
            port, max_len = struct.unpack("!IH2x", body)
            actions.append(ActionOutput(port=port, max_len=max_len))
        elif code == ACTION_SET_DL_SRC:
            actions.append(ActionSetField("dl_src", MACAddress.from_bytes(body[:6])))
        elif code == ACTION_SET_DL_DST:
            actions.append(ActionSetField("dl_dst", MACAddress.from_bytes(body[:6])))
        elif code == ACTION_SET_NW_SRC:
            actions.append(ActionSetField("nw_src", IPv4Address.from_bytes(body[:4])))
        elif code == ACTION_SET_NW_DST:
            actions.append(ActionSetField("nw_dst", IPv4Address.from_bytes(body[:4])))
        elif code == ACTION_GROUP:
            (group_id,) = struct.unpack("!I", body[:4])
            actions.append(ActionGroup(group_id=group_id))
        else:
            raise ValueError(f"unknown action type {code}")
        offset += length
    if offset != len(data):
        raise ValueError("trailing bytes after action list")
    return actions


def output_ports(actions: List[Action]) -> List[int]:
    """The ports an action list outputs to (empty = drop)."""
    return [a.port for a in actions if isinstance(a, ActionOutput)]


# --- groups.py (Bucket only) ------------------------------------------------

@dataclass(frozen=True)
class Bucket:
    """One action bucket of a group."""

    actions: Tuple[Action, ...]

    def encode(self) -> bytes:
        wire_actions = encode_actions(list(self.actions))
        return struct.pack("!H2x", 4 + len(wire_actions)) + wire_actions

    @classmethod
    def decode(cls, data: bytes) -> Tuple["Bucket", bytes]:
        if len(data) < 4:
            raise ValueError("truncated bucket")
        (length,) = struct.unpack_from("!H", data)
        if length < 4 or length > len(data):
            raise ValueError(f"bad bucket length {length}")
        actions = decode_actions(data[4:length])
        return cls(actions=tuple(actions)), data[length:]



# --- messages.py ------------------------------------------------------------

class OFDecodeError(ValueError):
    """Raised when bytes cannot be parsed as an OpenFlow message."""


@dataclass
class OFMessage:
    """Base class: every OpenFlow message has a type and an xid.

    ``msg_type`` is a ClassVar, not a field: each subclass pins its
    own wire type and instances never carry (or accept) it.
    """

    xid: int = 0

    msg_type: ClassVar[MsgType] = MsgType.HELLO

    def body(self) -> bytes:
        """Type-specific body bytes (empty by default)."""
        return b""

    def encode(self) -> bytes:
        """Serialise header + body."""
        payload = self.body()
        header = struct.pack(
            "!BBHI",
            OFP_VERSION,
            int(self.msg_type),
            OFP_HEADER_LEN + len(payload),
            self.xid & 0xFFFFFFFF,
        )
        return header + payload


@dataclass
class Hello(OFMessage):
    msg_type = MsgType.HELLO


@dataclass
class EchoRequest(OFMessage):
    msg_type = MsgType.ECHO_REQUEST
    data: bytes = b""

    def body(self) -> bytes:
        return self.data


@dataclass
class EchoReply(OFMessage):
    msg_type = MsgType.ECHO_REPLY
    data: bytes = b""

    def body(self) -> bytes:
        return self.data


@dataclass
class ErrorMsg(OFMessage):
    msg_type = MsgType.ERROR
    err_type: int = 0
    err_code: int = 0
    data: bytes = b""

    def body(self) -> bytes:
        return struct.pack("!HH", self.err_type, self.err_code) + self.data


@dataclass
class FeaturesRequest(OFMessage):
    msg_type = MsgType.FEATURES_REQUEST


@dataclass
class PortDesc:
    """One physical port in a FEATURES_REPLY."""

    port_no: int
    name: str = ""

    _STRUCT = struct.Struct("!I16s")

    def encode(self) -> bytes:
        return self._STRUCT.pack(self.port_no, self.name.encode()[:16])

    @classmethod
    def decode(cls, data: bytes) -> "PortDesc":
        port_no, raw_name = cls._STRUCT.unpack(data[: cls._STRUCT.size])
        return cls(port_no=port_no, name=raw_name.rstrip(b"\x00").decode())


@dataclass
class FeaturesReply(OFMessage):
    msg_type = MsgType.FEATURES_REPLY
    datapath_id: int = 0
    n_tables: int = 1
    capabilities: int = 0
    ports: List[PortDesc] = field(default_factory=list)

    def body(self) -> bytes:
        head = struct.pack(
            "!QIB3xI", self.datapath_id, 0, self.n_tables, self.capabilities
        )
        return head + b"".join(port.encode() for port in self.ports)

    @classmethod
    def decode_body(cls, xid: int, data: bytes) -> "FeaturesReply":
        datapath_id, __, n_tables, capabilities = struct.unpack_from("!QIB3xI", data)
        offset = struct.calcsize("!QIB3xI")
        ports = []
        step = PortDesc._STRUCT.size
        while offset + step <= len(data):
            ports.append(PortDesc.decode(data[offset : offset + step]))
            offset += step
        return cls(
            xid=xid,
            datapath_id=datapath_id,
            n_tables=n_tables,
            capabilities=capabilities,
            ports=ports,
        )


@dataclass
class PacketIn(OFMessage):
    msg_type = MsgType.PACKET_IN
    buffer_id: int = OFP_NO_BUFFER
    total_len: int = 0
    in_port: int = 0
    reason: int = 0
    data: bytes = b""

    def body(self) -> bytes:
        total = self.total_len or len(self.data)
        return (
            struct.pack("!IHIB1x", self.buffer_id, total, self.in_port, self.reason)
            + self.data
        )

    @classmethod
    def decode_body(cls, xid: int, data: bytes) -> "PacketIn":
        buffer_id, total_len, in_port, reason = struct.unpack_from("!IHIB1x", data)
        offset = struct.calcsize("!IHIB1x")
        return cls(
            xid=xid,
            buffer_id=buffer_id,
            total_len=total_len,
            in_port=in_port,
            reason=reason,
            data=data[offset:],
        )


@dataclass
class PacketOut(OFMessage):
    msg_type = MsgType.PACKET_OUT
    buffer_id: int = OFP_NO_BUFFER
    in_port: int = 0
    actions: List[Action] = field(default_factory=list)
    data: bytes = b""

    def body(self) -> bytes:
        wire_actions = encode_actions(self.actions)
        return (
            struct.pack("!IIH", self.buffer_id, self.in_port, len(wire_actions))
            + wire_actions
            + self.data
        )

    @classmethod
    def decode_body(cls, xid: int, data: bytes) -> "PacketOut":
        buffer_id, in_port, actions_len = struct.unpack_from("!IIH", data)
        offset = struct.calcsize("!IIH")
        actions = decode_actions(data[offset : offset + actions_len])
        return cls(
            xid=xid,
            buffer_id=buffer_id,
            in_port=in_port,
            actions=actions,
            data=data[offset + actions_len :],
        )


@dataclass
class FlowMod(OFMessage):
    msg_type = MsgType.FLOW_MOD
    match: Match = field(default_factory=Match)
    cookie: int = 0
    command: FlowModCommand = FlowModCommand.ADD
    idle_timeout: int = 0
    hard_timeout: int = 0
    priority: int = 0x8000
    buffer_id: int = OFP_NO_BUFFER
    out_port: int = 0xFFFFFFFF
    flags: int = 0
    actions: List[Action] = field(default_factory=list)

    def body(self) -> bytes:
        return (
            self.match.encode()
            + struct.pack(
                "!QHHHHIIH2x",
                self.cookie,
                int(self.command),
                self.idle_timeout,
                self.hard_timeout,
                self.priority,
                self.buffer_id,
                self.out_port,
                self.flags,
            )
            + encode_actions(self.actions)
        )

    @classmethod
    def decode_body(cls, xid: int, data: bytes) -> "FlowMod":
        match, rest = Match.decode(data)
        fixed = struct.Struct("!QHHHHIIH2x")
        (
            cookie,
            command,
            idle_timeout,
            hard_timeout,
            priority,
            buffer_id,
            out_port,
            flags,
        ) = fixed.unpack_from(rest)
        actions = decode_actions(rest[fixed.size :])
        return cls(
            xid=xid,
            match=match,
            cookie=cookie,
            command=FlowModCommand(command),
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            priority=priority,
            buffer_id=buffer_id,
            out_port=out_port,
            flags=flags,
            actions=actions,
        )


@dataclass
class GroupMod(OFMessage):
    """Create/modify/delete a group (the OF 1.1+ ECMP extension)."""

    msg_type = MsgType.GROUP_MOD
    command: GroupModCommand = GroupModCommand.ADD
    group_type: GroupType = GroupType.SELECT
    group_id: int = 0
    buckets: List[Bucket] = field(default_factory=list)

    def body(self) -> bytes:
        head = struct.pack(
            "!HB1xI", int(self.command), int(self.group_type), self.group_id
        )
        return head + b"".join(bucket.encode() for bucket in self.buckets)

    @classmethod
    def decode_body(cls, xid: int, data: bytes) -> "GroupMod":
        command, group_type, group_id = struct.unpack_from("!HB1xI", data)
        rest = data[8:]
        buckets = []
        while rest:
            bucket, rest = Bucket.decode(rest)
            buckets.append(bucket)
        return cls(
            xid=xid,
            command=GroupModCommand(command),
            group_type=GroupType(group_type),
            group_id=group_id,
            buckets=buckets,
        )


@dataclass
class FlowRemoved(OFMessage):
    msg_type = MsgType.FLOW_REMOVED
    match: Match = field(default_factory=Match)
    cookie: int = 0
    priority: int = 0x8000
    reason: int = 0
    duration_sec: float = 0.0
    packet_count: int = 0
    byte_count: int = 0

    def body(self) -> bytes:
        return self.match.encode() + struct.pack(
            "!QHB3xIQQ",
            self.cookie,
            self.priority,
            self.reason,
            int(self.duration_sec),
            self.packet_count,
            self.byte_count,
        )

    @classmethod
    def decode_body(cls, xid: int, data: bytes) -> "FlowRemoved":
        match, rest = Match.decode(data)
        cookie, priority, reason, duration, packets, bytes_ = struct.unpack_from(
            "!QHB3xIQQ", rest
        )
        return cls(
            xid=xid,
            match=match,
            cookie=cookie,
            priority=priority,
            reason=reason,
            duration_sec=float(duration),
            packet_count=packets,
            byte_count=bytes_,
        )


@dataclass
class FlowStatsEntry:
    """One flow entry in a FLOW stats reply."""

    match: Match
    priority: int = 0x8000
    duration_sec: float = 0.0
    packet_count: int = 0
    byte_count: int = 0
    cookie: int = 0

    _FIXED = struct.Struct("!HIQQQ")

    def encode(self) -> bytes:
        body = self.match.encode() + self._FIXED.pack(
            self.priority,
            int(self.duration_sec),
            self.cookie,
            self.packet_count,
            self.byte_count,
        )
        return struct.pack("!H", 2 + len(body)) + body

    @classmethod
    def decode(cls, data: bytes) -> Tuple["FlowStatsEntry", bytes]:
        (length,) = struct.unpack_from("!H", data)
        if length < 2 or length > len(data):
            raise OFDecodeError("bad flow stats entry length")
        body = data[2:length]
        match, rest = Match.decode(body)
        priority, duration, cookie, packets, bytes_ = cls._FIXED.unpack_from(rest)
        entry = cls(
            match=match,
            priority=priority,
            duration_sec=float(duration),
            cookie=cookie,
            packet_count=packets,
            byte_count=bytes_,
        )
        return entry, data[length:]


@dataclass
class PortStatsEntry:
    """One port in a PORT stats reply."""

    port_no: int
    rx_packets: int = 0
    tx_packets: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0

    _STRUCT = struct.Struct("!IQQQQ")

    def encode(self) -> bytes:
        return self._STRUCT.pack(
            self.port_no, self.rx_packets, self.tx_packets, self.rx_bytes, self.tx_bytes
        )

    @classmethod
    def decode(cls, data: bytes) -> Tuple["PortStatsEntry", bytes]:
        values = cls._STRUCT.unpack_from(data)
        return cls(*values), data[cls._STRUCT.size :]


@dataclass
class AggregateStats:
    """The single body of an AGGREGATE stats reply."""

    packet_count: int = 0
    byte_count: int = 0
    flow_count: int = 0

    _STRUCT = struct.Struct("!QQI4x")

    def encode(self) -> bytes:
        return self._STRUCT.pack(self.packet_count, self.byte_count, self.flow_count)

    @classmethod
    def decode(cls, data: bytes) -> "AggregateStats":
        packets, bytes_, flows = cls._STRUCT.unpack_from(data)
        return cls(packet_count=packets, byte_count=bytes_, flow_count=flows)


@dataclass
class StatsRequest(OFMessage):
    msg_type = MsgType.STATS_REQUEST
    stats_type: StatsType = StatsType.FLOW
    match: Match = field(default_factory=Match)
    port_no: int = 0xFFFFFFFF  # ANY, for PORT requests

    def body(self) -> bytes:
        head = struct.pack("!HH", int(self.stats_type), 0)
        if self.stats_type in (StatsType.FLOW, StatsType.AGGREGATE):
            return head + self.match.encode()
        return head + struct.pack("!I", self.port_no)

    @classmethod
    def decode_body(cls, xid: int, data: bytes) -> "StatsRequest":
        stats_type_raw, __ = struct.unpack_from("!HH", data)
        stats_type = StatsType(stats_type_raw)
        rest = data[4:]
        if stats_type in (StatsType.FLOW, StatsType.AGGREGATE):
            match, __ = Match.decode(rest)
            return cls(xid=xid, stats_type=stats_type, match=match)
        (port_no,) = struct.unpack_from("!I", rest)
        return cls(xid=xid, stats_type=stats_type, port_no=port_no)


@dataclass
class StatsReply(OFMessage):
    msg_type = MsgType.STATS_REPLY
    stats_type: StatsType = StatsType.FLOW
    flow_stats: List[FlowStatsEntry] = field(default_factory=list)
    port_stats: List[PortStatsEntry] = field(default_factory=list)
    aggregate: Optional[AggregateStats] = None

    def body(self) -> bytes:
        head = struct.pack("!HH", int(self.stats_type), 0)
        if self.stats_type is StatsType.FLOW:
            return head + b"".join(entry.encode() for entry in self.flow_stats)
        if self.stats_type is StatsType.PORT:
            return head + b"".join(entry.encode() for entry in self.port_stats)
        return head + (self.aggregate or AggregateStats()).encode()

    @classmethod
    def decode_body(cls, xid: int, data: bytes) -> "StatsReply":
        stats_type_raw, __ = struct.unpack_from("!HH", data)
        stats_type = StatsType(stats_type_raw)
        rest = data[4:]
        reply = cls(xid=xid, stats_type=stats_type)
        if stats_type is StatsType.FLOW:
            while rest:
                entry, rest = FlowStatsEntry.decode(rest)
                reply.flow_stats.append(entry)
        elif stats_type is StatsType.PORT:
            while rest:
                entry, rest = PortStatsEntry.decode(rest)
                reply.port_stats.append(entry)
        else:
            reply.aggregate = AggregateStats.decode(rest)
        return reply


@dataclass
class BarrierRequest(OFMessage):
    msg_type = MsgType.BARRIER_REQUEST


@dataclass
class BarrierReply(OFMessage):
    msg_type = MsgType.BARRIER_REPLY


_SIMPLE_DECODERS = {
    MsgType.HELLO: Hello,
    MsgType.FEATURES_REQUEST: FeaturesRequest,
    MsgType.BARRIER_REQUEST: BarrierRequest,
    MsgType.BARRIER_REPLY: BarrierReply,
}

_BODY_DECODERS = {
    MsgType.FEATURES_REPLY: FeaturesReply.decode_body,
    MsgType.PACKET_IN: PacketIn.decode_body,
    MsgType.PACKET_OUT: PacketOut.decode_body,
    MsgType.FLOW_MOD: FlowMod.decode_body,
    MsgType.GROUP_MOD: GroupMod.decode_body,
    MsgType.FLOW_REMOVED: FlowRemoved.decode_body,
    MsgType.STATS_REQUEST: StatsRequest.decode_body,
    MsgType.STATS_REPLY: StatsReply.decode_body,
}


def encode_message(message: OFMessage) -> bytes:
    """Serialise any OpenFlow message (alias for ``message.encode()``)."""
    return message.encode()


def decode_message(data: bytes) -> OFMessage:
    """Parse one OpenFlow message from ``data`` (must be exactly one)."""
    message, rest = decode_message_stream(data)
    if rest:
        raise OFDecodeError(f"{len(rest)} trailing bytes after message")
    return message


def decode_message_stream(data: bytes) -> Tuple[OFMessage, bytes]:
    """Parse the first message from a byte stream; returns (msg, rest).

    Control channels deliver whole sends, but a sender may batch
    multiple messages in one write — the switch agent and controller
    both loop over this.
    """
    if len(data) < OFP_HEADER_LEN:
        raise OFDecodeError("truncated OpenFlow header")
    version, type_raw, length, xid = struct.unpack_from("!BBHI", data)
    if version != OFP_VERSION:
        raise OFDecodeError(f"unsupported OpenFlow version {version}")
    if length < OFP_HEADER_LEN or length > len(data):
        raise OFDecodeError(f"bad OpenFlow length {length}")
    try:
        msg_type = MsgType(type_raw)
    except ValueError:
        raise OFDecodeError(f"unknown OpenFlow type {type_raw}") from None
    body = data[OFP_HEADER_LEN:length]
    rest = data[length:]

    if msg_type in _SIMPLE_DECODERS:
        return _SIMPLE_DECODERS[msg_type](xid=xid), rest
    if msg_type is MsgType.ECHO_REQUEST:
        return EchoRequest(xid=xid, data=body), rest
    if msg_type is MsgType.ECHO_REPLY:
        return EchoReply(xid=xid, data=body), rest
    if msg_type is MsgType.ERROR:
        err_type, err_code = struct.unpack_from("!HH", body)
        return ErrorMsg(xid=xid, err_type=err_type, err_code=err_code, data=body[4:]), rest
    decoder = _BODY_DECODERS.get(msg_type)
    if decoder is None:
        raise OFDecodeError(f"no decoder for {msg_type.name}")
    return decoder(xid, body), rest
