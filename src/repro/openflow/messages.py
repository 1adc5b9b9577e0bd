"""OpenFlow message codecs.

Every message carries the standard 8-byte header::

    version(1) | type(1) | length(2) | xid(4)

followed by a type-specific body.  The layouts follow OpenFlow 1.0
closely; deliberate deviations (all documented):

* port numbers are 32-bit everywhere (OF 1.3 style);
* no buffering — PACKET_IN always carries the full frame and
  ``buffer_id`` is always ``OFP_NO_BUFFER``;
* no queues, no vendor/experimenter messages.

Decoding works on ``(data, start, end)`` extents over precompiled
:class:`struct.Struct` layouts — nothing is re-sliced — and fails
closed: whatever is wrong with the bytes, the one exception that
leaves this module is :class:`OFDecodeError`.  A FLOW stats reply is
decoded *header-first*: its entries are checked to tile the body, and
the ``FlowStatsEntry`` objects are built only if somebody reads
``flow_stats`` (see :meth:`StatsReply.flow_bytes`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, List, Optional, Tuple

from repro.openflow.actions import Action, decode_actions, encode_actions
from repro.openflow.constants import (
    MsgType,
    OFDecodeError,
    OFP_HEADER_LEN,
    OFP_NO_BUFFER,
    OFP_VERSION,
    FlowModCommand,
    GroupModCommand,
    GroupType,
    StatsType,
)
from repro.openflow.groups import Bucket
from repro.openflow.match import MATCH_LEN, Match, MatchInterner

#: ``(data, offset) -> Match``: :meth:`Match.from_wire` or an interner's.
MatchDecoder = Callable[[bytes, int], Match]

_HEADER = struct.Struct("!BBHI")
_ERROR = struct.Struct("!HH")
_FEATURES = struct.Struct("!QIB3xI")
_PORT_DESC = struct.Struct("!I16s")
_PACKET_IN = struct.Struct("!IHIB1x")
_PACKET_OUT = struct.Struct("!IIH")
_FLOW_MOD = struct.Struct("!QHHHHIIH2x")
_GROUP_MOD = struct.Struct("!HB1xI")
_FLOW_REMOVED = struct.Struct("!QHB3xIQQ")
_STATS_HEAD = struct.Struct("!HH")
_U32 = struct.Struct("!I")
# One FLOW stats entry: length, match extent, priority, duration,
# cookie, packets, bytes.
_FLOW_ENTRY = struct.Struct(f"!H{MATCH_LEN}sHIQQQ")
_PORT_ENTRY = struct.Struct("!IQQQQ")
_AGGREGATE = struct.Struct("!QQI4x")

_FLOW_MOD_COMMANDS = {int(member): member for member in FlowModCommand}
_GROUP_MOD_COMMANDS = {int(member): member for member in GroupModCommand}
_GROUP_TYPES = {int(member): member for member in GroupType}
_STATS_TYPES = {int(member): member for member in StatsType}


def _member(table: dict, raw: int, what: str):
    try:
        return table[raw]
    except KeyError:
        raise OFDecodeError(f"unknown {what} {raw}") from None


def _need(start: int, end: int, size: int, what: str) -> None:
    if end - start < size:
        raise OFDecodeError(f"truncated {what}")


def _exactly(start: int, end: int, size: int, what: str) -> None:
    if end - start != size:
        raise OFDecodeError(
            f"{what} body is {end - start} bytes, expected {size}")


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
        return _HEADER.pack(
            OFP_VERSION,
            self.msg_type,
            OFP_HEADER_LEN + len(payload),
            self.xid & 0xFFFFFFFF,
        ) + payload

    @classmethod
    def from_wire(cls, xid: int, data: bytes, start: int, end: int,
                  match_at: MatchDecoder) -> "OFMessage":
        """Build the message whose body is ``data[start:end]``; the
        default is a message without one."""
        _exactly(start, end, 0, cls.msg_type.name)
        return cls(xid=xid)


@dataclass
class Hello(OFMessage):
    msg_type = MsgType.HELLO

    @classmethod
    def from_wire(cls, xid, data, start, end, match_at):
        # The spec has receivers ignore whatever a HELLO carries.
        return cls(xid=xid)


@dataclass
class EchoRequest(OFMessage):
    msg_type = MsgType.ECHO_REQUEST
    data: bytes = b""

    def body(self) -> bytes:
        return self.data

    @classmethod
    def from_wire(cls, xid, data, start, end, match_at):
        return cls(xid=xid, data=data[start:end])


@dataclass
class EchoReply(OFMessage):
    msg_type = MsgType.ECHO_REPLY
    data: bytes = b""

    def body(self) -> bytes:
        return self.data

    @classmethod
    def from_wire(cls, xid, data, start, end, match_at):
        return cls(xid=xid, data=data[start:end])


@dataclass
class ErrorMsg(OFMessage):
    msg_type = MsgType.ERROR
    err_type: int = 0
    err_code: int = 0
    data: bytes = b""

    def body(self) -> bytes:
        return _ERROR.pack(self.err_type, self.err_code) + self.data

    @classmethod
    def from_wire(cls, xid, data, start, end, match_at):
        _need(start, end, _ERROR.size, "ERROR")
        err_type, err_code = _ERROR.unpack_from(data, start)
        return cls(xid=xid, err_type=err_type, err_code=err_code,
                   data=data[start + _ERROR.size:end])


@dataclass
class FeaturesRequest(OFMessage):
    msg_type = MsgType.FEATURES_REQUEST


@dataclass
class PortDesc:
    """One physical port in a FEATURES_REPLY."""

    port_no: int
    name: str = ""

    def encode(self) -> bytes:
        return _PORT_DESC.pack(self.port_no, self.name.encode()[:16])


@dataclass
class FeaturesReply(OFMessage):
    msg_type = MsgType.FEATURES_REPLY
    datapath_id: int = 0
    n_tables: int = 1
    capabilities: int = 0
    ports: List[PortDesc] = field(default_factory=list)

    def body(self) -> bytes:
        head = _FEATURES.pack(
            self.datapath_id, 0, self.n_tables, self.capabilities)
        return head + b"".join(port.encode() for port in self.ports)

    @classmethod
    def from_wire(cls, xid, data, start, end, match_at):
        _need(start, end, _FEATURES.size, "FEATURES_REPLY")
        datapath_id, __, n_tables, capabilities = _FEATURES.unpack_from(
            data, start)
        start += _FEATURES.size
        if (end - start) % _PORT_DESC.size:
            raise OFDecodeError("FEATURES_REPLY cut inside a port")
        ports = []
        try:
            for port_no, raw_name in _PORT_DESC.iter_unpack(data[start:end]):
                ports.append(PortDesc(
                    port_no=port_no,
                    name=raw_name.rstrip(b"\x00").decode()))
        except UnicodeDecodeError:
            raise OFDecodeError("port name is not UTF-8") from None
        return cls(xid=xid, datapath_id=datapath_id, n_tables=n_tables,
                   capabilities=capabilities, ports=ports)


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
        return _PACKET_IN.pack(
            self.buffer_id, total, self.in_port, self.reason) + self.data

    @classmethod
    def from_wire(cls, xid, data, start, end, match_at):
        _need(start, end, _PACKET_IN.size, "PACKET_IN")
        buffer_id, total_len, in_port, reason = _PACKET_IN.unpack_from(
            data, start)
        return cls(xid=xid, buffer_id=buffer_id, total_len=total_len,
                   in_port=in_port, reason=reason,
                   data=data[start + _PACKET_IN.size:end])


@dataclass
class PacketOut(OFMessage):
    msg_type = MsgType.PACKET_OUT
    buffer_id: int = OFP_NO_BUFFER
    in_port: int = 0
    actions: List[Action] = field(default_factory=list)
    data: bytes = b""

    def body(self) -> bytes:
        wire_actions = encode_actions(self.actions)
        return _PACKET_OUT.pack(
            self.buffer_id, self.in_port, len(wire_actions)
        ) + wire_actions + self.data

    @classmethod
    def from_wire(cls, xid, data, start, end, match_at):
        _need(start, end, _PACKET_OUT.size, "PACKET_OUT")
        buffer_id, in_port, actions_len = _PACKET_OUT.unpack_from(data, start)
        start += _PACKET_OUT.size
        if actions_len > end - start:
            raise OFDecodeError("PACKET_OUT action list past the message")
        return cls(xid=xid, buffer_id=buffer_id, in_port=in_port,
                   actions=decode_actions(data, start, start + actions_len),
                   data=data[start + actions_len:end])


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
            + _FLOW_MOD.pack(
                self.cookie,
                self.command,
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
    def from_wire(cls, xid, data, start, end, match_at):
        fixed = start + MATCH_LEN
        _need(fixed, end, _FLOW_MOD.size, "FLOW_MOD")
        (
            cookie,
            command,
            idle_timeout,
            hard_timeout,
            priority,
            buffer_id,
            out_port,
            flags,
        ) = _FLOW_MOD.unpack_from(data, fixed)
        return cls(
            xid=xid,
            match=match_at(data, start),
            cookie=cookie,
            command=_member(_FLOW_MOD_COMMANDS, command, "flow-mod command"),
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            priority=priority,
            buffer_id=buffer_id,
            out_port=out_port,
            flags=flags,
            actions=decode_actions(data, fixed + _FLOW_MOD.size, end),
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
        head = _GROUP_MOD.pack(self.command, self.group_type, self.group_id)
        return head + b"".join(bucket.encode() for bucket in self.buckets)

    @classmethod
    def from_wire(cls, xid, data, start, end, match_at):
        _need(start, end, _GROUP_MOD.size, "GROUP_MOD")
        command, group_type, group_id = _GROUP_MOD.unpack_from(data, start)
        offset = start + _GROUP_MOD.size
        buckets = []
        while offset < end:
            bucket, offset = Bucket.from_wire(data, offset, end)
            buckets.append(bucket)
        return cls(
            xid=xid,
            command=_member(_GROUP_MOD_COMMANDS, command, "group-mod command"),
            group_type=_member(_GROUP_TYPES, group_type, "group type"),
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
        return self.match.encode() + _FLOW_REMOVED.pack(
            self.cookie,
            self.priority,
            self.reason,
            int(self.duration_sec),
            self.packet_count,
            self.byte_count,
        )

    @classmethod
    def from_wire(cls, xid, data, start, end, match_at):
        _exactly(start, end, MATCH_LEN + _FLOW_REMOVED.size, "FLOW_REMOVED")
        cookie, priority, reason, duration, packets, bytes_ = (
            _FLOW_REMOVED.unpack_from(data, start + MATCH_LEN))
        return cls(
            xid=xid,
            match=match_at(data, start),
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

    def encode(self) -> bytes:
        return _FLOW_ENTRY.pack(
            _FLOW_ENTRY.size,
            self.match.encode(),
            self.priority,
            int(self.duration_sec),
            self.cookie,
            self.packet_count,
            self.byte_count,
        )


@dataclass
class PortStatsEntry:
    """One port in a PORT stats reply."""

    port_no: int
    rx_packets: int = 0
    tx_packets: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0

    def encode(self) -> bytes:
        return _PORT_ENTRY.pack(
            self.port_no, self.rx_packets, self.tx_packets, self.rx_bytes,
            self.tx_bytes)


@dataclass
class AggregateStats:
    """The single body of an AGGREGATE stats reply."""

    packet_count: int = 0
    byte_count: int = 0
    flow_count: int = 0

    def encode(self) -> bytes:
        return _AGGREGATE.pack(
            self.packet_count, self.byte_count, self.flow_count)


@dataclass
class StatsRequest(OFMessage):
    msg_type = MsgType.STATS_REQUEST
    stats_type: StatsType = StatsType.FLOW
    match: Match = field(default_factory=Match)
    port_no: int = 0xFFFFFFFF  # ANY, for PORT requests

    def body(self) -> bytes:
        head = _STATS_HEAD.pack(self.stats_type, 0)
        if self.stats_type in (StatsType.FLOW, StatsType.AGGREGATE):
            return head + self.match.encode()
        return head + _U32.pack(self.port_no)

    @classmethod
    def from_wire(cls, xid, data, start, end, match_at):
        _need(start, end, _STATS_HEAD.size, "STATS_REQUEST")
        stats_type = _member(
            _STATS_TYPES, _STATS_HEAD.unpack_from(data, start)[0],
            "stats type")
        start += _STATS_HEAD.size
        if stats_type is StatsType.PORT:
            _exactly(start, end, _U32.size, "PORT STATS_REQUEST")
            return cls(xid=xid, stats_type=stats_type,
                       port_no=_U32.unpack_from(data, start)[0])
        _exactly(start, end, MATCH_LEN, "STATS_REQUEST")
        return cls(xid=xid, stats_type=stats_type,
                   match=match_at(data, start))


@dataclass
class StatsReply(OFMessage):
    """A statistics reply.

    A FLOW reply that came off the wire (or that the switch agent built
    with :meth:`for_flow_rows`) holds its entries as bytes: ``_flow_wire``
    is the tiled run of fixed-size entries and ``flow_stats`` does not
    exist until somebody reads it — ``__getattr__`` then builds the
    list, once, and the bytes are dropped so the list is the one truth
    from there on.  :meth:`flow_bytes` reads what Hedera needs straight
    from the bytes.  Both see the same entries: the materialised list is
    ``iter_unpack`` over the very extent ``flow_bytes`` iterates, with
    each match extent parsed by the same ``match_at``.
    """

    msg_type = MsgType.STATS_REPLY
    stats_type: StatsType = StatsType.FLOW
    flow_stats: List[FlowStatsEntry] = field(default_factory=list)
    port_stats: List[PortStatsEntry] = field(default_factory=list)
    aggregate: Optional[AggregateStats] = None

    @classmethod
    def _held(cls, xid: int, flow_wire: bytes,
              match_at: MatchDecoder) -> "StatsReply":
        reply = cls.__new__(cls)
        reply.__dict__.update(
            xid=xid, stats_type=StatsType.FLOW, port_stats=[],
            aggregate=None, _flow_wire=flow_wire, _match_at=match_at)
        return reply

    @classmethod
    def for_flow_rows(cls, xid: int, rows: Iterable[tuple]) -> "StatsReply":
        """A FLOW reply from ``(match, priority, duration_sec, cookie,
        packet_count, byte_count)`` rows, encoded as it is built — each
        row costs one ``pack`` over the match's kept bytes."""
        pack, size = _FLOW_ENTRY.pack, _FLOW_ENTRY.size
        return cls._held(xid, b"".join(
            pack(size, match.encode(), priority, int(duration), cookie,
                 packets, bytes_)
            for match, priority, duration, cookie, packets, bytes_ in rows
        ), Match.from_wire)

    def __getattr__(self, name: str):
        # Reached for ``flow_stats`` only while the entries are bytes.
        state = self.__dict__
        if name != "flow_stats" or "_flow_wire" not in state:
            raise AttributeError(name)
        match_at = state.pop("_match_at")
        state["flow_stats"] = entries = [
            FlowStatsEntry(
                match=match_at(extent, 0), priority=priority,
                duration_sec=float(duration), cookie=cookie,
                packet_count=packets, byte_count=bytes_)
            for __, extent, priority, duration, cookie, packets, bytes_
            in _FLOW_ENTRY.iter_unpack(state.pop("_flow_wire"))
        ]
        return entries

    @property
    def flow_entries_held(self) -> int:
        """Entries still held as bytes (0 once ``flow_stats`` was read
        or for a reply built from objects)."""
        return len(self.__dict__.get("_flow_wire", b"")) // _FLOW_ENTRY.size

    def flow_bytes(self) -> List[Tuple[bytes, int]]:
        """``(match extent, byte_count)`` per FLOW entry, header-first:
        no entry, match or prefix object is built."""
        wire = self.__dict__.get("_flow_wire")
        if wire is None:
            return [(entry.match.encode(), entry.byte_count)
                    for entry in self.flow_stats]
        return [(extent, bytes_) for __, extent, __, __, __, __, bytes_
                in _FLOW_ENTRY.iter_unpack(wire)]

    def body(self) -> bytes:
        head = _STATS_HEAD.pack(self.stats_type, 0)
        if self.stats_type is StatsType.FLOW:
            wire = self.__dict__.get("_flow_wire")
            if wire is None:
                wire = b"".join(entry.encode() for entry in self.flow_stats)
            return head + wire
        if self.stats_type is StatsType.PORT:
            return head + b"".join(entry.encode() for entry in self.port_stats)
        return head + (self.aggregate or AggregateStats()).encode()

    @classmethod
    def from_wire(cls, xid, data, start, end, match_at):
        _need(start, end, _STATS_HEAD.size, "STATS_REPLY")
        stats_type = _member(
            _STATS_TYPES, _STATS_HEAD.unpack_from(data, start)[0],
            "stats type")
        start += _STATS_HEAD.size
        if stats_type is StatsType.FLOW:
            size = _FLOW_ENTRY.size
            count, cut = divmod(end - start, size)
            wire = data[start:end]
            # Entries are fixed-size here, so the length fields are
            # checked wholesale: every high byte 0, every low byte `size`.
            if (cut or wire[0::size].count(0) != count
                    or wire[1::size].count(size) != count):
                raise OFDecodeError("FLOW stats entries do not tile the body")
            return cls._held(xid, wire, match_at)
        if stats_type is StatsType.PORT:
            if (end - start) % _PORT_ENTRY.size:
                raise OFDecodeError("PORT stats reply cut inside an entry")
            return cls(xid=xid, stats_type=stats_type, port_stats=[
                PortStatsEntry(*values)
                for values in _PORT_ENTRY.iter_unpack(data[start:end])])
        _exactly(start, end, _AGGREGATE.size, "AGGREGATE STATS_REPLY")
        packets, bytes_, flows = _AGGREGATE.unpack_from(data, start)
        return cls(xid=xid, stats_type=stats_type, aggregate=AggregateStats(
            packet_count=packets, byte_count=bytes_, flow_count=flows))


@dataclass
class BarrierRequest(OFMessage):
    msg_type = MsgType.BARRIER_REQUEST


@dataclass
class BarrierReply(OFMessage):
    msg_type = MsgType.BARRIER_REPLY


_DECODERS = {
    int(cls.msg_type): cls.from_wire
    for cls in (
        Hello, ErrorMsg, EchoRequest, EchoReply, FeaturesRequest,
        FeaturesReply, PacketIn, FlowRemoved, PacketOut, FlowMod, GroupMod,
        StatsRequest, StatsReply, BarrierRequest, BarrierReply,
    )
}


def counts_by_type(sent, received) -> dict:
    """An endpoint's per-class message counters as flat ``tx_<type>`` /
    ``rx_<type>`` stats keys."""
    return {
        f"{prefix}_{cls.msg_type.name.lower()}": count
        for prefix, counts in (("tx", sent), ("rx", received))
        for cls, count in counts.items()
    }


def encode_message(message: OFMessage) -> bytes:
    """Serialise any OpenFlow message (alias for ``message.encode()``)."""
    return message.encode()


def _decode_at(data: bytes, offset: int,
               match_at: MatchDecoder) -> Tuple[OFMessage, int]:
    """The message starting at ``data[offset]`` and the offset past it."""
    if len(data) - offset < OFP_HEADER_LEN:
        raise OFDecodeError("truncated OpenFlow header")
    version, type_raw, length, xid = _HEADER.unpack_from(data, offset)
    if version != OFP_VERSION:
        raise OFDecodeError(f"unsupported OpenFlow version {version}")
    end = offset + length
    if length < OFP_HEADER_LEN or end > len(data):
        raise OFDecodeError(f"bad OpenFlow length {length}")
    decoder = _DECODERS.get(type_raw)
    if decoder is None:
        raise OFDecodeError(f"no decoder for OpenFlow type {type_raw}")
    return decoder(xid, data, offset + OFP_HEADER_LEN, end, match_at), end


def _match_decoder(matches: Optional[MatchInterner]) -> MatchDecoder:
    return Match.from_wire if matches is None else matches.from_wire


def decode_message(data: bytes) -> OFMessage:
    """Parse one OpenFlow message from ``data`` (must be exactly one)."""
    message, end = _decode_at(data, 0, Match.from_wire)
    if end != len(data):
        raise OFDecodeError(f"{len(data) - end} trailing bytes after message")
    return message


def decode_message_stream(
    data: bytes, matches: Optional[MatchInterner] = None,
) -> Tuple[OFMessage, bytes]:
    """Parse the first message from a byte stream; returns (msg, rest)."""
    message, end = _decode_at(data, 0, _match_decoder(matches))
    return message, data[end:]


def decode_messages(
    data: bytes, matches: Optional[MatchInterner] = None,
) -> List[OFMessage]:
    """Every message of one delivery, or :class:`OFDecodeError`.

    Control channels deliver whole sends, but a sender may batch several
    messages in one write.  The endpoints decode the whole delivery
    before acting on any of it, so a delivery that goes bad halfway
    through applies nothing.
    """
    match_at = _match_decoder(matches)
    messages = []
    offset, size = 0, len(data)
    while offset < size:
        message, offset = _decode_at(data, offset, match_at)
        messages.append(message)
    return messages
