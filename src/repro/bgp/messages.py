"""BGP-4 message codecs (RFC 4271 wire format).

Every message starts with the 19-byte header::

    marker(16, all ones) | length(2) | type(1)

Types: OPEN(1), UPDATE(2), NOTIFICATION(3), KEEPALIVE(4).

The UPDATE layout is the full RFC 4271 structure — withdrawn routes,
path attributes (ORIGIN, AS_PATH, NEXT_HOP, MED, LOCAL_PREF) and NLRI,
with variable-length prefix encoding.  AS numbers are 2 bytes (classic
BGP-4; 4-octet AS capability is out of scope and documented as such).

A speaker decodes through a :class:`RouteValues` table shared by every
speaker of its experiment, so each prefix, AS path and next hop it
keeps exists once.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.netproto.addr import IPv4Address, IPv4Prefix

BGP_MARKER = b"\xff" * 16
BGP_HEADER_LEN = 19
BGP_VERSION = 4

TYPE_OPEN = 1
TYPE_UPDATE = 2
TYPE_NOTIFICATION = 3
TYPE_KEEPALIVE = 4

ATTR_ORIGIN = 1
ATTR_AS_PATH = 2
ATTR_NEXT_HOP = 3
ATTR_MED = 4
ATTR_LOCAL_PREF = 5

FLAG_OPTIONAL = 0x80
FLAG_TRANSITIVE = 0x40
FLAG_EXTENDED = 0x10

AS_SEQUENCE = 2

# NOTIFICATION error codes (RFC 4271 section 4.5).
ERR_HEADER = 1
ERR_OPEN = 2
ERR_UPDATE = 3

_LENGTH_TYPE = struct.Struct("!HB")   # header after the marker
_U16 = struct.Struct("!H")
_ATTR_U8 = struct.Struct("!BBBB")     # flags, code, length 1, one octet
_ATTR_U32 = struct.Struct("!BBBI")    # flags, code, length 4, one word
_ATTR_HEADER = struct.Struct("!BBB")
_EMPTY_AS_PATH = _ATTR_HEADER.pack(FLAG_TRANSITIVE, ATTR_AS_PATH, 0)
_UPDATE_HEAD = struct.Struct("!HBH")  # header after the marker, withdrawn length
_U32 = struct.Struct("!I")
_OPEN_BODY = struct.Struct("!BHH4sB")
_NOTIFICATION_HEAD = struct.Struct("!BB")


class BGPDecodeError(ValueError):
    """Raised when bytes cannot be parsed as a BGP message.

    The only exception the decoders let out, whatever the input.
    ``code`` is the NOTIFICATION error code a speaker answers with.
    """

    def __init__(self, reason: str, code: int = ERR_HEADER):
        super().__init__(reason)
        self.code = code


def _malformed_update(reason: str) -> BGPDecodeError:
    return BGPDecodeError(reason, code=ERR_UPDATE)


class Origin(enum.IntEnum):
    """The ORIGIN attribute values."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


#: Each ORIGIN value by its wire octet, and its whole attribute.
_ORIGINS = tuple(Origin)
_ORIGIN_ATTRIBUTES = tuple(
    _ATTR_U8.pack(FLAG_TRANSITIVE, ATTR_ORIGIN, 1, origin) for origin in Origin)


@dataclass(frozen=True, slots=True)
class PathAttributes:
    """The path attributes carried by an UPDATE.

    Frozen so routes can share attribute objects and RIBs can use them
    as part of comparison keys; slotted, as every learned route keeps
    one.
    """

    origin: Origin = Origin.IGP
    as_path: Tuple[int, ...] = ()
    next_hop: Optional[IPv4Address] = None
    med: Optional[int] = None
    local_pref: Optional[int] = None

    def contains_as(self, asn: int) -> bool:
        """AS-path loop check."""
        return asn in self.as_path

    def encode(self) -> bytes:
        """Serialise to the RFC 4271 path-attribute list."""
        return encode_attributes(self, next_hop_attribute(self.next_hop))

    def __str__(self) -> str:
        path = " ".join(str(asn) for asn in self.as_path) or "(local)"
        return f"as_path=[{path}] next_hop={self.next_hop}"


def next_hop_attribute(next_hop: Optional[IPv4Address]) -> bytes:
    """The NEXT_HOP attribute carrying ``next_hop``, whole (nothing for
    None)."""
    if next_hop is None:
        return b""
    return _ATTR_U32.pack(FLAG_TRANSITIVE, ATTR_NEXT_HOP, 4, int(next_hop))


def encode_attributes(attributes: PathAttributes, next_hop: bytes,
                      asn: int = 0, prepends: int = 0) -> bytes:
    """The RFC 4271 path-attribute list of ``attributes``, with
    ``prepends`` copies of ``asn`` in front of its AS path and
    ``next_hop`` (a :func:`next_hop_attribute`) in place of its own.

    The one attribute encoder. :meth:`PathAttributes.encode` is it with
    no prepends and the attributes' own next hop; a speaker's export is
    it with its own AS prepended and the session's next hop
    (next-hop-self), so the exported attributes are never built.
    """
    path = attributes.as_path
    hops = prepends + len(path)
    if hops:
        # One AS_SEQUENCE segment, packed with its attribute header.
        length = 2 + 2 * hops
        if length > 255:
            as_path = struct.pack(
                f"!BBHBB{hops}H", FLAG_TRANSITIVE | FLAG_EXTENDED,
                ATTR_AS_PATH, length, AS_SEQUENCE, hops,
                *((asn,) * prepends), *path)
        else:
            as_path = struct.pack(
                f"!BBBBB{hops}H", FLAG_TRANSITIVE, ATTR_AS_PATH, length,
                AS_SEQUENCE, hops, *((asn,) * prepends), *path)
    else:
        as_path = _EMPTY_AS_PATH
    encoded = _ORIGIN_ATTRIBUTES[attributes.origin] + as_path + next_hop
    if attributes.med is not None:
        encoded += _ATTR_U32.pack(FLAG_OPTIONAL, ATTR_MED, 4, attributes.med)
    if attributes.local_pref is not None:
        encoded += _ATTR_U32.pack(
            FLAG_TRANSITIVE, ATTR_LOCAL_PREF, 4, attributes.local_pref)
    return encoded


def encode_update(withdrawn: bytes, attributes: bytes, nlri: bytes) -> bytes:
    """An UPDATE message, header included, from its three sections on
    the wire: withdrawn routes, path attributes and NLRI."""
    return b"".join((
        BGP_MARKER,
        _UPDATE_HEAD.pack(
            BGP_HEADER_LEN + 4 + len(withdrawn) + len(attributes) + len(nlri),
            TYPE_UPDATE, len(withdrawn)),
        withdrawn,
        _U16.pack(len(attributes)),
        attributes,
        nlri,
    ))


def encode_prefix(prefix: IPv4Prefix) -> bytes:
    """NLRI encoding: length byte + the minimum prefix octets."""
    network, length = prefix.key()
    octets = (length + 7) >> 3
    return bytes((length,)) + (network >> (32 - 8 * octets)).to_bytes(octets, "big")


def _as_path(wire: bytes) -> Tuple[int, ...]:
    """The AS numbers of an AS_PATH attribute body."""
    path: List[int] = []
    offset, end = 0, len(wire)
    while offset < end:
        if offset + 2 > end:
            raise _malformed_update("truncated AS_PATH segment header")
        seg_type = wire[offset]
        count = wire[offset + 1]
        offset += 2
        if seg_type != AS_SEQUENCE:
            raise _malformed_update(f"unsupported AS segment type {seg_type}")
        if offset + 2 * count > end:
            raise _malformed_update("truncated AS_PATH segment")
        path += struct.unpack_from(f"!{count}H", wire, offset)
        offset += 2 * count
    return tuple(path)


def _prefix(wire: bytes) -> IPv4Prefix:
    """The prefix of one NLRI entry's wire bytes."""
    network = int.from_bytes(wire[1:], "big") << (40 - 8 * len(wire))
    return IPv4Prefix.from_network(network, wire[0])


def _stage(fresh: Optional[dict], wire: bytes,
           build: Callable[[bytes], object]) -> Tuple[object, dict]:
    """The value ``fresh`` stages for ``wire``, built and staged when it
    has none; ``fresh`` is made on the first such miss.  Returns the
    value and ``fresh``."""
    if fresh is None:
        fresh = {}
    value = fresh.get(wire)
    if value is None:
        value = fresh[wire] = build(wire)
    return value, fresh


def _read_prefixes(data: bytes, offset: int, end: int,
                   known: Dict[bytes, IPv4Prefix],
                   fresh: Optional[Dict[bytes, IPv4Prefix]],
                   ) -> Tuple[List[IPv4Prefix], Optional[Dict[bytes, IPv4Prefix]]]:
    """The prefixes encoded in ``data[offset:end]``, each the one
    ``known`` keeps for its wire bytes or else one staged in ``fresh``
    (:func:`_stage`); returns the prefixes and ``fresh``."""
    prefixes: List[IPv4Prefix] = []
    while offset < end:
        length = data[offset]
        if length > 32:
            raise _malformed_update(f"prefix length {length} > 32")
        stop = offset + 1 + ((length + 7) >> 3)
        if stop > end:
            raise _malformed_update("truncated NLRI prefix")
        wire = data[offset:stop]
        prefix = known.get(wire)
        if prefix is None:
            prefix, fresh = _stage(fresh, wire, _prefix)
        prefixes.append(prefix)
        offset = stop
    return prefixes, fresh


class RouteValues:
    """One copy of each route value an experiment's BGP speakers keep.

    Every daemon of an experiment decodes through one table, the way
    the OpenFlow controller and its switch agents share one
    :class:`~repro.openflow.match.MatchInterner`.  A prefix, an AS_PATH
    or a NEXT_HOP is keyed by its wire bytes and built the first time
    it is met; every later UPDATE that carries those bytes, to whichever
    speaker, gets that very object and skips the unpack.  Configured
    networks go in first (:meth:`network`), so a decoded prefix is the
    object that keys the Loc-RIB and the FIB; :meth:`decision_key`
    keeps the decision process's keys the same way.  The way back, a prefix
    to the NLRI bytes an UPDATE sends it as, is :meth:`prefix_bytes`:
    always the canonical encoding, never bytes a peer sent.

    Bytes that differ only in bits the decoder ignores get two equal
    objects.  A decode adds what it met only once the whole UPDATE has
    parsed, so a malformed message leaves the table as it was.  Bounded:
    a kind that would outgrow :attr:`BOUND` is emptied, never grown, and
    what comes after is built afresh.
    """

    BOUND = 1 << 16

    __slots__ = ("prefixes", "as_paths", "next_hops", "decision_keys", "nlri",
                 "__weakref__")

    def __init__(self) -> None:
        self.prefixes: Dict[bytes, IPv4Prefix] = {}
        self.as_paths: Dict[bytes, Tuple[int, ...]] = {}
        self.next_hops: Dict[bytes, IPv4Address] = {}
        self.decision_keys: Dict[tuple, tuple] = {}
        #: prefix -> its NLRI encoding, filled as speakers send.
        self.nlri: Dict[IPv4Prefix, bytes] = {}

    def network(self, prefix: IPv4Prefix) -> IPv4Prefix:
        """The table's copy of a configured network (``prefix`` itself
        when it is the first)."""
        return self._keep(self.prefixes, encode_prefix(prefix), prefix)

    def decision_key(self, key: tuple) -> tuple:
        """The table's copy of a route's preference or tie-break key."""
        return self._keep(self.decision_keys, key, key)

    def prefix_bytes(self, prefix: IPv4Prefix) -> bytes:
        """:func:`encode_prefix` of ``prefix``, worked out once."""
        wire = self.nlri.get(prefix)
        if wire is None:
            wire = self._keep(self.nlri, prefix, encode_prefix(prefix))
        return wire

    def _keep(self, table: dict, key, value):
        kept = table.get(key)
        if kept is None:
            if len(table) >= self.BOUND:
                table.clear()
            kept = table[key] = value
        return kept

    def _absorb(self, prefixes: Optional[dict], as_paths: Optional[dict],
                next_hops: Optional[dict]) -> None:
        """Keep what one well-formed UPDATE met for the first time (each
        kind None when it met nothing new)."""
        for table, new in ((self.prefixes, prefixes),
                           (self.as_paths, as_paths),
                           (self.next_hops, next_hops)):
            if new:
                if len(table) + len(new) > self.BOUND:
                    table.clear()
                table.update(new)


@dataclass
class BGPMessage:
    """Base class for all BGP messages."""

    msg_type: int = 0

    def body(self) -> bytes:
        """The bytes after the header (an UPDATE overrides encode instead)."""
        return b""

    def encode(self) -> bytes:
        """Serialise header + body."""
        payload = self.body()
        return (BGP_MARKER
                + _LENGTH_TYPE.pack(BGP_HEADER_LEN + len(payload), self.msg_type)
                + payload)


@dataclass
class BGPOpen(BGPMessage):
    """The OPEN message: version, AS, hold time, BGP identifier."""

    msg_type: int = TYPE_OPEN
    version: int = BGP_VERSION
    asn: int = 0
    hold_time: int = 90
    bgp_id: IPv4Address = field(default_factory=lambda: IPv4Address(0))

    def body(self) -> bytes:
        return _OPEN_BODY.pack(
            self.version,
            self.asn,
            self.hold_time,
            self.bgp_id.packed(),
            0,  # no optional parameters
        )

    @classmethod
    def decode_body(cls, data: bytes) -> "BGPOpen":
        if len(data) < _OPEN_BODY.size:
            raise BGPDecodeError("truncated OPEN", code=ERR_OPEN)
        version, asn, hold_time, bgp_id_raw, opt_len = _OPEN_BODY.unpack_from(data)
        if version != BGP_VERSION:
            raise BGPDecodeError(f"unsupported BGP version {version}", code=ERR_OPEN)
        return cls(
            version=version,
            asn=asn,
            hold_time=hold_time,
            bgp_id=IPv4Address.from_bytes(bgp_id_raw),
        )


@dataclass
class BGPUpdate(BGPMessage):
    """The UPDATE message: withdrawals + attributes + NLRI."""

    msg_type: int = TYPE_UPDATE
    withdrawn: List[IPv4Prefix] = field(default_factory=list)
    attributes: Optional[PathAttributes] = None
    nlri: List[IPv4Prefix] = field(default_factory=list)

    def encode(self) -> bytes:
        attributes = self.attributes
        return encode_update(
            b"".join(map(encode_prefix, self.withdrawn)),
            b"" if attributes is None else attributes.encode(),
            b"".join(map(encode_prefix, self.nlri)))

    def __str__(self) -> str:
        parts = []
        if self.nlri:
            parts.append(f"announce {[str(p) for p in self.nlri]}")
        if self.withdrawn:
            parts.append(f"withdraw {[str(p) for p in self.withdrawn]}")
        return f"UPDATE({'; '.join(parts)})"


@dataclass
class BGPKeepalive(BGPMessage):
    """The KEEPALIVE message (header only)."""

    msg_type: int = TYPE_KEEPALIVE


@dataclass
class BGPNotification(BGPMessage):
    """The NOTIFICATION message: error code/subcode + data."""

    msg_type: int = TYPE_NOTIFICATION
    code: int = 0
    subcode: int = 0
    data: bytes = b""

    def body(self) -> bytes:
        return _NOTIFICATION_HEAD.pack(self.code, self.subcode) + self.data

    @classmethod
    def decode_body(cls, data: bytes) -> "BGPNotification":
        if len(data) < 2:
            raise BGPDecodeError("truncated NOTIFICATION")
        code, subcode = _NOTIFICATION_HEAD.unpack_from(data)
        return cls(code=code, subcode=subcode, data=data[2:])


def decode_bgp_message(data: bytes) -> BGPMessage:
    """Parse exactly one BGP message."""
    message, rest = decode_bgp_stream(data)
    if rest:
        raise BGPDecodeError(f"{len(rest)} trailing bytes")
    return message


def decode_bgp_stream(data: bytes, values: Optional[RouteValues] = None,
                      ) -> Tuple[BGPMessage, bytes]:
    """Parse the first BGP message from a byte stream; returns (msg, rest).

    An UPDATE's prefixes, AS path and next hop come from ``values``
    when given (see :class:`RouteValues`).  An UPDATE is parsed where it
    lies in ``data``; ``rest`` is a slice only when bytes follow it.
    """
    size = len(data)
    if size < BGP_HEADER_LEN:
        raise BGPDecodeError("truncated BGP header")
    if not data.startswith(BGP_MARKER):
        raise BGPDecodeError("bad BGP marker")
    length, msg_type = _LENGTH_TYPE.unpack_from(data, 16)
    if length < BGP_HEADER_LEN or length > size:
        raise BGPDecodeError(f"bad BGP length {length}")
    rest = b"" if length == size else data[length:]
    if msg_type == TYPE_UPDATE:
        return _decode_update(data, length, values), rest
    body = data[BGP_HEADER_LEN:length]
    if msg_type == TYPE_OPEN:
        return BGPOpen.decode_body(body), rest
    if msg_type == TYPE_KEEPALIVE:
        if body:
            raise BGPDecodeError("KEEPALIVE with a body")
        return BGPKeepalive(), rest
    if msg_type == TYPE_NOTIFICATION:
        return BGPNotification.decode_body(body), rest
    raise BGPDecodeError(f"unknown BGP message type {msg_type}")


def _decode_update(data: bytes, end: int,
                   values: Optional[RouteValues]) -> BGPUpdate:
    """The UPDATE whose body is ``data[BGP_HEADER_LEN:end]``, read at
    offsets into ``data``.

    Each prefix, AS path and next hop is the one ``values`` keeps for
    its wire bytes (a table of the message's own when None).  One the
    table lacks is built and staged (:func:`_stage`); the staged values
    join the table only once the whole UPDATE has parsed, so a malformed
    one leaves the table as it was.
    """
    if end < BGP_HEADER_LEN + 4:
        raise _malformed_update("truncated UPDATE")
    (withdrawn_len,) = _U16.unpack_from(data, BGP_HEADER_LEN)
    attrs_at = BGP_HEADER_LEN + 2 + withdrawn_len
    if attrs_at + 2 > end:
        raise _malformed_update("withdrawn routes overrun the UPDATE")
    (attr_len,) = _U16.unpack_from(data, attrs_at)
    offset = attrs_at + 2
    nlri_at = offset + attr_len
    if nlri_at > end:
        raise _malformed_update("path attributes overrun the UPDATE")
    if values is None:
        values = RouteValues()
    known_prefixes = values.prefixes
    if withdrawn_len:
        withdrawn, new_prefixes = _read_prefixes(
            data, BGP_HEADER_LEN + 2, attrs_at, known_prefixes, None)
    else:
        withdrawn, new_prefixes = [], None
    new_paths: Optional[Dict[bytes, Tuple[int, ...]]] = None
    new_hops: Optional[Dict[bytes, IPv4Address]] = None
    attributes: Optional[PathAttributes] = None
    if attr_len:
        origin = Origin.IGP
        as_path: Optional[Tuple[int, ...]] = ()
        next_hop: Optional[IPv4Address] = None
        med: Optional[int] = None
        local_pref: Optional[int] = None
        while offset < nlri_at:
            if offset + 3 > nlri_at:
                raise _malformed_update("truncated path attribute header")
            flags, code, length = _ATTR_HEADER.unpack_from(data, offset)
            start = offset + 3
            if flags & FLAG_EXTENDED:
                if offset + 4 > nlri_at:
                    raise _malformed_update("truncated extended attribute length")
                (length,) = _U16.unpack_from(data, offset + 2)
                start = offset + 4
            offset = start + length
            if offset > nlri_at:
                raise _malformed_update("truncated attribute body")

            if code == ATTR_ORIGIN:
                if length != 1 or data[start] >= len(_ORIGINS):
                    raise _malformed_update("bad ORIGIN attribute")
                origin = _ORIGINS[data[start]]
            elif code == ATTR_AS_PATH:
                wire = data[start:offset]
                as_path = values.as_paths.get(wire)
                if as_path is None:
                    as_path, new_paths = _stage(new_paths, wire, _as_path)
            elif code in (ATTR_NEXT_HOP, ATTR_MED, ATTR_LOCAL_PREF):
                if length != 4:
                    raise _malformed_update(
                        f"attribute {code} needs 4 bytes, got {length}")
                if code == ATTR_NEXT_HOP:
                    wire = data[start:offset]
                    next_hop = values.next_hops.get(wire)
                    if next_hop is None:
                        next_hop, new_hops = _stage(
                            new_hops, wire, IPv4Address.from_bytes)
                elif code == ATTR_MED:
                    (med,) = _U32.unpack_from(data, start)
                else:
                    (local_pref,) = _U32.unpack_from(data, start)
            # Unknown attributes are silently skipped (optional transit).
        attributes = PathAttributes(origin, as_path, next_hop, med, local_pref)
    nlri, new_prefixes = _read_prefixes(
        data, nlri_at, end, known_prefixes, new_prefixes)
    if nlri and attributes is None:
        raise _malformed_update("NLRI without path attributes")
    if new_prefixes or new_paths or new_hops:
        values._absorb(new_prefixes, new_paths, new_hops)
    return BGPUpdate(TYPE_UPDATE, withdrawn, attributes, nlri)
