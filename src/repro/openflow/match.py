"""The OpenFlow match structure.

A :class:`Match` is a set of header-field constraints; ``None`` means
wildcarded.  It both matches simulated traffic (fluid flows and packet
events) and round-trips through a binary encoding closely modelled on
OF 1.0's ``ofp_match`` (a wildcard bitmap followed by fixed fields).

A match is immutable and compared by value, which is what lets the
codec do each piece of work once: an instance serialises once (the
bytes are kept on it), and a :class:`MatchInterner` parses each distinct
36-byte extent once and hands every later occurrence the same object.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.netproto.addr import IPv4Prefix, MACAddress
from repro.netproto.packet import FiveTuple
from repro.openflow.constants import OFDecodeError

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

# wildcards, in_port, dl_src (hi16, lo32), dl_dst (hi16, lo32), dl_type,
# nw_proto, pad, tp_src, tp_dst, nw_src, nw_dst — integers throughout.
_MATCH_STRUCT = struct.Struct("!IIHIHIHBxHHII")
MATCH_LEN = _MATCH_STRUCT.size

_UNSET = object()  # "not computed yet" for cached values that may be None


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

    def __hash__(self) -> int:
        # Same fields ``__eq__`` compares; kept on the instance because
        # flow tables key entries by match and re-hash it on every add.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = hash((
                self.in_port, self.dl_src, self.dl_dst, self.dl_type,
                self.nw_src, self.nw_dst, self.nw_proto, self.tp_src,
                self.tp_dst))
            return value

    def five_tuple(self) -> Optional[FiveTuple]:
        """The IPv4 flow this match pins down, or None.

        Defined when ``nw_src`` and ``nw_dst`` are host (/32) prefixes
        and ``nw_proto`` is set; a wildcarded port reads as 0.  Computed
        once per instance.
        """
        flow = self.__dict__.get("_flow", _UNSET)
        if flow is _UNSET:
            flow = None
            src, dst = self.nw_src, self.nw_dst
            if (src is not None and dst is not None and src.length == 32
                    and dst.length == 32 and self.nw_proto is not None):
                flow = FiveTuple(
                    src_ip=src.network,
                    dst_ip=dst.network,
                    protocol=self.nw_proto,
                    src_port=self.tp_src or 0,
                    dst_port=self.tp_dst or 0,
                )
            self.__dict__["_flow"] = flow
        return flow

    # -- wire codec --------------------------------------------------------

    def encode(self) -> bytes:
        """The fixed-size binary ofp_match layout; built on first use."""
        try:
            return self.__dict__["_wire"]
        except KeyError:
            pass
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
        nw_src, nw_dst = self.nw_src, self.nw_dst
        src_wild = 32 if nw_src is None else 32 - nw_src.length
        dst_wild = 32 if nw_dst is None else 32 - nw_dst.length
        wildcards |= src_wild << WC_NW_SRC_SHIFT
        wildcards |= dst_wild << WC_NW_DST_SHIFT
        dl_src = 0 if self.dl_src is None else int(self.dl_src)
        dl_dst = 0 if self.dl_dst is None else int(self.dl_dst)
        wire = self.__dict__["_wire"] = _MATCH_STRUCT.pack(
            wildcards,
            self.in_port or 0,
            dl_src >> 32, dl_src & 0xFFFFFFFF,
            dl_dst >> 32, dl_dst & 0xFFFFFFFF,
            self.dl_type or 0,
            self.nw_proto or 0,
            self.tp_src or 0,
            self.tp_dst or 0,
            0 if nw_src is None else nw_src.key()[0],
            0 if nw_dst is None else nw_dst.key()[0],
        )
        return wire

    @classmethod
    def from_wire(cls, data: bytes, offset: int = 0) -> "Match":
        """Parse the match at ``data[offset:]``.

        Values under a set wildcard bit are ignored (so are undefined
        wildcard bits and the pad byte); truncation is the one way a
        match can be malformed.
        """
        if len(data) - offset < MATCH_LEN:
            raise OFDecodeError("truncated ofp_match")
        (
            wildcards, in_port, src_hi, src_lo, dst_hi, dst_lo, dl_type,
            nw_proto, tp_src, tp_dst, nw_src, nw_dst,
        ) = _MATCH_STRUCT.unpack_from(data, offset)
        src_wild = (wildcards >> WC_NW_SRC_SHIFT) & 0x3F
        dst_wild = (wildcards >> WC_NW_DST_SHIFT) & 0x3F
        match = cls.__new__(cls)
        # Frozen dataclass: fields go in through the instance dict.  A
        # /0 prefix reads as the wildcard here as in __post_init__.
        match.__dict__.update(
            in_port=None if wildcards & WC_IN_PORT else in_port,
            dl_src=(None if wildcards & WC_DL_SRC
                    else MACAddress(src_hi << 32 | src_lo)),
            dl_dst=(None if wildcards & WC_DL_DST
                    else MACAddress(dst_hi << 32 | dst_lo)),
            dl_type=None if wildcards & WC_DL_TYPE else dl_type,
            nw_src=(None if src_wild >= 32
                    else IPv4Prefix.from_network(nw_src, 32 - src_wild)),
            nw_dst=(None if dst_wild >= 32
                    else IPv4Prefix.from_network(nw_dst, 32 - dst_wild)),
            nw_proto=None if wildcards & WC_NW_PROTO else nw_proto,
            tp_src=None if wildcards & WC_TP_SRC else tp_src,
            tp_dst=None if wildcards & WC_TP_DST else tp_dst,
        )
        return match

    @classmethod
    def decode(cls, data: bytes) -> Tuple["Match", bytes]:
        """Parse a match; returns (match, remaining bytes)."""
        return cls.from_wire(data), data[MATCH_LEN:]

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


class MatchInterner:
    """Extent -> :class:`Match`: a 36-byte match extent parses once.

    The key is the whole extent, so two extents that differ only in
    ignored bits get two (equal) objects, and an interned match is
    exactly what :meth:`Match.from_wire` returns for those bytes.  One
    table is shared by the controller and the switch agents of an
    experiment — a match sent down a five-switch path is parsed at the
    first and looked up at the other four.  Bounded: a full table is
    emptied, never grown.
    """

    BOUND = 4096

    __slots__ = ("_table", "hits", "misses")

    def __init__(self) -> None:
        self._table: Dict[bytes, Match] = {}
        self.hits = 0
        self.misses = 0

    def from_wire(self, data: bytes, offset: int = 0) -> Match:
        """:meth:`Match.from_wire`, through the table."""
        extent = data[offset:offset + MATCH_LEN]
        match = self._table.get(extent)
        if match is None:
            match = Match.from_wire(extent)
            self.misses += 1
            if len(self._table) >= self.BOUND:
                self._table.clear()
            self._table[extent] = match
        else:
            self.hits += 1
        return match
