"""OSPF-lite wire format.

A compact binary encoding in the OSPF mould.  Common header::

    version(1)=2 | type(1) | length(2) | router_id(4)

Types: HELLO(1), LS_UPDATE(4).

The Router-LSA carries the originator's point-to-point links
(neighbor router id + cost) and its stub prefixes (network, length,
cost), with a 32-bit sequence number for newness comparison::

    originator(4) | sequence(4) | n_links(2) | n_prefixes(2)
    n_links    x  neighbor_id(4) | cost(2)
    n_prefixes x  network(4) | length(1) | cost(2)

Flooding hands a router the same LSA once per neighbour and all but the
first copy lose the sequence compare, so the decoder reads an LSA the
way a real ``ospfd`` does: the fixed part decides, the body is parsed
when somebody asks for it.  A decoded LSA keeps the bytes it arrived as
and is re-flooded as those bytes.  Router ids are integers inside the
codec; ``IPv4Address``/``IPv4Prefix`` objects appear where a caller
reads ``advertising_router``, ``links``, ``prefixes`` or ``neighbors``.

Whatever the input, decoding either returns a message or raises
:class:`OSPFDecodeError`.  A flooded LSU is one bytes object handed to
every full neighbour, and a hello one bytes object handed to every
neighbour, so an experiment's daemons decode through one
:class:`DecodedMessages` table: each wire is parsed once, and every
LSDB that accepts an LSA from it holds the same :class:`RouterLSA`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.netproto.addr import IPv4Address, IPv4Prefix

OSPF_VERSION = 2
TYPE_HELLO = 1
TYPE_LS_UPDATE = 4

HEADER = struct.Struct("!BBHI")
_HELLO_FIXED = struct.Struct("!HHH")
_LSU_COUNT = struct.Struct("!H")
_LSA_FIXED = struct.Struct("!IIHH")
_LINK = struct.Struct("!IH")
_PREFIX = struct.Struct("!IBH")


class OSPFDecodeError(ValueError):
    """Raised when bytes cannot be parsed as an OSPF-lite message."""


@dataclass(frozen=True)
class LSALink:
    """One point-to-point adjacency in a Router-LSA."""

    neighbor_id: IPv4Address
    cost: int = 1


@dataclass(frozen=True)
class LSAPrefix:
    """One stub prefix in a Router-LSA."""

    prefix: IPv4Prefix
    cost: int = 0


class RouterLSA:
    """A router's link-state advertisement.

    ``originator`` is the advertising router as an integer (the LSDB
    key); ``advertising_router`` is the same as an address.  An LSA
    decoded from the wire holds its byte extent and nothing else until
    ``links``, ``prefixes`` or :meth:`neighbor_costs` is read.
    """

    __slots__ = ("originator", "sequence", "_wire", "_prefixes_at",
                 "_links", "_prefixes", "_neighbor_costs")

    def __init__(self, advertising_router: "IPv4Address | int", sequence: int,
                 links: Iterable[LSALink] = (),
                 prefixes: Iterable[LSAPrefix] = ()):
        self.originator = int(advertising_router)
        self.sequence = sequence
        self._links: Optional[Tuple[LSALink, ...]] = tuple(links)
        self._prefixes: Optional[Tuple[LSAPrefix, ...]] = tuple(prefixes)
        self._neighbor_costs: Optional[Tuple[Tuple[int, int], ...]] = tuple(
            (int(link.neighbor_id), link.cost) for link in self._links)
        self._wire: Optional[bytes] = None
        self._prefixes_at = 0

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> Tuple["RouterLSA", int]:
        """Read the LSA at ``offset``; returns it and the offset after it.

        Only the fixed part is unpacked.  The body is checked — it fits
        in ``data`` and no prefix length exceeds 32 — and kept as bytes.
        """
        try:
            originator, sequence, n_links, n_prefixes = _LSA_FIXED.unpack_from(
                data, offset)
        except struct.error:
            raise OSPFDecodeError("truncated LSA header") from None
        prefixes_at = offset + _LSA_FIXED.size + _LINK.size * n_links
        end = prefixes_at + _PREFIX.size * n_prefixes
        if end > len(data):
            raise OSPFDecodeError(
                f"LSA of {n_links} links and {n_prefixes} prefixes runs "
                f"past the message")
        # Every seventh byte from the first length byte on is a length.
        if n_prefixes and max(data[prefixes_at + 4:end:_PREFIX.size]) > 32:
            raise OSPFDecodeError("LSA prefix length exceeds 32")
        lsa = cls.__new__(cls)
        lsa.originator = originator
        lsa.sequence = sequence
        lsa._wire = data[offset:end]
        lsa._prefixes_at = prefixes_at - offset
        lsa._links = lsa._prefixes = lsa._neighbor_costs = None
        return lsa, end

    def encode(self) -> bytes:
        """The LSA's wire bytes: the extent it was decoded from, or the
        encoding of a locally built LSA (made once)."""
        wire = self._wire
        if wire is None:
            parts = [_LSA_FIXED.pack(self.originator, self.sequence,
                                     len(self._links), len(self._prefixes))]
            parts.extend(_LINK.pack(neighbor, cost)
                         for neighbor, cost in self._neighbor_costs)
            parts.extend(
                _PREFIX.pack(int(stub.prefix.network), stub.prefix.length,
                             stub.cost)
                for stub in self._prefixes)
            wire = self._wire = b"".join(parts)
        return wire

    @property
    def body_parsed(self) -> bool:
        """False while a decoded LSA is still only its bytes."""
        return self._neighbor_costs is not None

    def _parse_body(self) -> None:
        wire = self._wire
        self._neighbor_costs = tuple(
            _LINK.iter_unpack(wire[_LSA_FIXED.size:self._prefixes_at]))
        from_network = IPv4Prefix.from_network
        self._prefixes = tuple(
            LSAPrefix(from_network(network, length), cost)
            for network, length, cost
            in _PREFIX.iter_unpack(wire[self._prefixes_at:]))

    def neighbor_costs(self) -> Tuple[Tuple[int, int], ...]:
        """``(neighbor router id, cost)`` per link, as integers (SPF's view)."""
        if self._neighbor_costs is None:
            self._parse_body()
        return self._neighbor_costs

    @property
    def advertising_router(self) -> IPv4Address:
        return IPv4Address(self.originator)

    @property
    def links(self) -> Tuple[LSALink, ...]:
        links = self._links
        if links is None:
            links = self._links = tuple(
                LSALink(IPv4Address(neighbor), cost)
                for neighbor, cost in self.neighbor_costs())
        return links

    @property
    def prefixes(self) -> Tuple[LSAPrefix, ...]:
        if self._prefixes is None:
            self._parse_body()
        return self._prefixes

    def newer_than(self, other: "RouterLSA") -> bool:
        """Sequence-number comparison (no wraparound handling needed for
        experiment-length runs)."""
        return self.sequence > other.sequence

    def _fields(self):
        return (self.originator, self.sequence, self.links, self.prefixes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RouterLSA):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"RouterLSA(advertising_router={self.advertising_router!r}, "
                f"sequence={self.sequence}, links={self.links!r}, "
                f"prefixes={self.prefixes!r})")


class OSPFHello:
    """The hello: intervals and the neighbors we have heard from.

    ``neighbor_ids`` holds the heard router ids as integers;
    ``neighbors`` is the same list as addresses.
    """

    __slots__ = ("_router_id", "hello_interval", "dead_interval",
                 "neighbor_ids")
    msg_type = TYPE_HELLO

    def __init__(self, router_id: "IPv4Address | int",
                 hello_interval: float = 2.0, dead_interval: float = 8.0,
                 neighbors: Iterable["IPv4Address | int"] = ()):
        self._router_id = int(router_id)
        self.hello_interval = hello_interval
        self.dead_interval = dead_interval
        self.neighbor_ids = tuple(int(n) for n in neighbors)

    @property
    def router_id(self) -> IPv4Address:
        return IPv4Address(self._router_id)

    @property
    def neighbors(self) -> List[IPv4Address]:
        return [IPv4Address(n) for n in self.neighbor_ids]

    def encode(self) -> bytes:
        count = len(self.neighbor_ids)
        return b"".join((
            HEADER.pack(OSPF_VERSION, TYPE_HELLO,
                        HEADER.size + _HELLO_FIXED.size + 4 * count,
                        self._router_id),
            _HELLO_FIXED.pack(
                int(self.hello_interval * 10),  # tenths of seconds on the wire
                int(self.dead_interval * 10),
                count),
            struct.pack(f"!{count}I", *self.neighbor_ids),
        ))

    @classmethod
    def decode_body(cls, router_id: int, data: bytes,
                    offset: int = 0) -> "OSPFHello":
        """Parse the hello body that starts at ``offset`` of ``data``."""
        try:
            hello_tenths, dead_tenths, count = _HELLO_FIXED.unpack_from(
                data, offset)
        except struct.error:
            raise OSPFDecodeError("truncated hello") from None
        offset += _HELLO_FIXED.size
        if len(data) != offset + 4 * count:
            raise OSPFDecodeError(
                f"hello lists {count} neighbors in {len(data) - offset} bytes")
        hello = cls.__new__(cls)
        hello._router_id = router_id
        hello.hello_interval = hello_tenths / 10.0
        hello.dead_interval = dead_tenths / 10.0
        hello.neighbor_ids = struct.unpack_from(f"!{count}I", data, offset)
        return hello

    def __repr__(self) -> str:
        return (f"OSPFHello(router_id={self.router_id!r}, "
                f"hello_interval={self.hello_interval}, "
                f"dead_interval={self.dead_interval}, "
                f"neighbors={self.neighbors!r})")


class OSPFLinkStateUpdate:
    """A flood unit: one or more LSAs."""

    __slots__ = ("_router_id", "lsas")
    msg_type = TYPE_LS_UPDATE

    def __init__(self, router_id: "IPv4Address | int",
                 lsas: Iterable[RouterLSA] = ()):
        self._router_id = int(router_id)
        self.lsas = list(lsas)

    @property
    def router_id(self) -> IPv4Address:
        return IPv4Address(self._router_id)

    def encode(self) -> bytes:
        body = b"".join([lsa.encode() for lsa in self.lsas])
        return b"".join((
            HEADER.pack(OSPF_VERSION, TYPE_LS_UPDATE,
                        HEADER.size + _LSU_COUNT.size + len(body),
                        self._router_id),
            _LSU_COUNT.pack(len(self.lsas)),
            body,
        ))

    @classmethod
    def decode_body(cls, router_id: int, data: bytes,
                    offset: int = 0) -> "OSPFLinkStateUpdate":
        """Parse the LS update body that starts at ``offset`` of ``data``."""
        try:
            (count,) = _LSU_COUNT.unpack_from(data, offset)
        except struct.error:
            raise OSPFDecodeError("truncated LS update") from None
        offset += _LSU_COUNT.size
        lsas = []
        decode_lsa = RouterLSA.decode
        for __ in range(count):
            lsa, offset = decode_lsa(data, offset)
            lsas.append(lsa)
        if offset != len(data):
            raise OSPFDecodeError(
                f"{len(data) - offset} trailing bytes after the last LSA")
        update = cls.__new__(cls)
        update._router_id = router_id
        update.lsas = lsas
        return update

    def __repr__(self) -> str:
        return (f"OSPFLinkStateUpdate(router_id={self.router_id!r}, "
                f"lsas={self.lsas!r})")


def decode_ospf_message(data: bytes):
    """Parse one OSPF-lite message (hello or LS update)."""
    if len(data) < HEADER.size:
        raise OSPFDecodeError("truncated OSPF header")
    version, msg_type, length, router_id = HEADER.unpack_from(data)
    if version != OSPF_VERSION:
        raise OSPFDecodeError(f"unsupported OSPF version {version}")
    if length != len(data):
        raise OSPFDecodeError(f"bad OSPF length {length} != {len(data)}")
    if msg_type == TYPE_HELLO:
        return OSPFHello.decode_body(router_id, data, HEADER.size)
    if msg_type == TYPE_LS_UPDATE:
        return OSPFLinkStateUpdate.decode_body(router_id, data, HEADER.size)
    raise OSPFDecodeError(f"unknown OSPF message type {msg_type}")


class DecodedMessages:
    """Delivered wire bytes -> the message they decoded to, and an LSA's
    byte extent -> the :class:`RouterLSA` first decoded from it.

    Decoding is a function of the bytes alone, so bytes equal to ones
    that decoded are that message: the first receiver of a flood pays
    for the parse and the others get its objects, the way
    :class:`~repro.bgp.messages.RouteValues` serves an experiment's BGP
    speakers.  An LSA re-flooded by another router arrives in that
    router's LSU, a different wire, and is decoded again; its extent is
    the same, so the LSU is handed the LSA kept for it, and the LSDBs
    that receive one advertisement hold one object.  A message is
    shared, never changed by its receivers (an LSA's lazily parsed body
    included).  Only bytes that decoded are admitted, wires and extents
    alike: an extent joins once its whole LSU has decoded, so garbage
    meets the decoder every time and leaves the table as it was.
    Bounded: wires that would outgrow :attr:`BOUND`, or extents that
    would outgrow :attr:`LSA_BOUND`, are emptied, never grown.  The
    kinds are sized apart: a kept wire keeps a whole LSU alive after its
    flood, a kept extent one LSA, and a fabric's convergence meets
    more extents than it needs wires.
    """

    BOUND = 1 << 7
    LSA_BOUND = 1 << 10

    __slots__ = ("_by_wire", "_lsas")

    def __init__(self) -> None:
        self._by_wire: Dict[bytes, object] = {}
        self._lsas: Dict[bytes, RouterLSA] = {}

    def decode(self, data: bytes):
        """:func:`decode_ospf_message` of ``data``, parsed once."""
        message = self._by_wire.get(data)
        if message is None:
            message = decode_ospf_message(data)
            if message.msg_type == TYPE_LS_UPDATE:
                self._share(message.lsas)
            if len(self._by_wire) >= self.BOUND:
                self._by_wire.clear()
            self._by_wire[data] = message
        return message

    def _share(self, lsas: List[RouterLSA]) -> None:
        """Put the LSA kept for each extent in place of a decoded LSU's
        own, and keep those met for the first time."""
        kept = self._lsas
        for index, lsa in enumerate(lsas):
            first = kept.get(lsa._wire)
            if first is not None:
                lsas[index] = first
                continue
            if len(kept) >= self.LSA_BOUND:
                kept.clear()
            kept[lsa._wire] = lsa
