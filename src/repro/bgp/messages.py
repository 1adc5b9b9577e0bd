"""BGP-4 message codecs (RFC 4271 wire format).

Every message starts with the 19-byte header::

    marker(16, all ones) | length(2) | type(1)

Types: OPEN(1), UPDATE(2), NOTIFICATION(3), KEEPALIVE(4).

The UPDATE layout is the full RFC 4271 structure — withdrawn routes,
path attributes (ORIGIN, AS_PATH, NEXT_HOP, MED, LOCAL_PREF) and NLRI,
with variable-length prefix encoding.  AS numbers are 2 bytes (classic
BGP-4; 4-octet AS capability is out of scope and documented as such).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

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
_ATTR_HEADER_EXT = struct.Struct("!BBH")  # FLAG_EXTENDED: two-byte length
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


@dataclass(frozen=True)
class PathAttributes:
    """The path attributes carried by an UPDATE.

    Frozen so routes can share attribute objects and RIBs can use them
    as part of comparison keys.
    """

    origin: Origin = Origin.IGP
    as_path: Tuple[int, ...] = ()
    next_hop: Optional[IPv4Address] = None
    med: Optional[int] = None
    local_pref: Optional[int] = None

    def with_prepended(self, asn: int) -> "PathAttributes":
        """A copy with ``asn`` prepended to the AS path (eBGP export)."""
        return PathAttributes(
            origin=self.origin,
            as_path=(asn,) + self.as_path,
            next_hop=self.next_hop,
            med=self.med,
            local_pref=self.local_pref,
        )

    def with_next_hop(self, next_hop: IPv4Address) -> "PathAttributes":
        """A copy with the NEXT_HOP rewritten (next-hop-self)."""
        return PathAttributes(
            origin=self.origin,
            as_path=self.as_path,
            next_hop=next_hop,
            med=self.med,
            local_pref=self.local_pref,
        )

    def contains_as(self, asn: int) -> bool:
        """AS-path loop check."""
        return asn in self.as_path

    def encode(self) -> bytes:
        """Serialise to the RFC 4271 path-attribute list."""
        chunks = [_ATTR_U8.pack(FLAG_TRANSITIVE, ATTR_ORIGIN, 1, self.origin)]
        hops = len(self.as_path)
        # One AS_SEQUENCE segment, packed in one call.
        segment = (struct.pack(f"!BB{hops}H", AS_SEQUENCE, hops, *self.as_path)
                   if hops else b"")
        if len(segment) > 255:
            chunks.append(_ATTR_HEADER_EXT.pack(
                FLAG_TRANSITIVE | FLAG_EXTENDED, ATTR_AS_PATH, len(segment)))
        else:
            chunks.append(_ATTR_HEADER.pack(
                FLAG_TRANSITIVE, ATTR_AS_PATH, len(segment)))
        chunks.append(segment)
        if self.next_hop is not None:
            chunks.append(_ATTR_U32.pack(
                FLAG_TRANSITIVE, ATTR_NEXT_HOP, 4, int(self.next_hop)))
        if self.med is not None:
            chunks.append(_ATTR_U32.pack(FLAG_OPTIONAL, ATTR_MED, 4, self.med))
        if self.local_pref is not None:
            chunks.append(_ATTR_U32.pack(
                FLAG_TRANSITIVE, ATTR_LOCAL_PREF, 4, self.local_pref))
        return b"".join(chunks)

    @classmethod
    def decode(cls, data: bytes) -> "PathAttributes":
        """Parse a path-attribute list."""
        origin = Origin.IGP
        as_path: Tuple[int, ...] = ()
        next_hop: Optional[IPv4Address] = None
        med: Optional[int] = None
        local_pref: Optional[int] = None

        offset = 0
        end = len(data)
        while offset < end:
            if offset + 3 > end:
                raise _malformed_update("truncated path attribute header")
            flags, code, length = _ATTR_HEADER.unpack_from(data, offset)
            body_start = offset + 3
            if flags & FLAG_EXTENDED:
                if offset + 4 > end:
                    raise _malformed_update("truncated extended attribute length")
                (length,) = _U16.unpack_from(data, offset + 2)
                body_start = offset + 4
            offset = body_start + length
            if offset > end:
                raise _malformed_update("truncated attribute body")

            if code == ATTR_ORIGIN:
                if length != 1 or data[body_start] > Origin.INCOMPLETE:
                    raise _malformed_update("bad ORIGIN attribute")
                origin = Origin(data[body_start])
            elif code == ATTR_AS_PATH:
                path: List[int] = []
                seg_offset = body_start
                while seg_offset < offset:
                    if seg_offset + 2 > offset:
                        raise _malformed_update("truncated AS_PATH segment header")
                    seg_type = data[seg_offset]
                    count = data[seg_offset + 1]
                    seg_offset += 2
                    if seg_type != AS_SEQUENCE:
                        raise _malformed_update(
                            f"unsupported AS segment type {seg_type}")
                    if seg_offset + 2 * count > offset:
                        raise _malformed_update("truncated AS_PATH segment")
                    path += struct.unpack_from(f"!{count}H", data, seg_offset)
                    seg_offset += 2 * count
                as_path = tuple(path)
            elif code in (ATTR_NEXT_HOP, ATTR_MED, ATTR_LOCAL_PREF):
                if length != 4:
                    raise _malformed_update(
                        f"attribute {code} needs 4 bytes, got {length}")
                (word,) = _U32.unpack_from(data, body_start)
                if code == ATTR_NEXT_HOP:
                    next_hop = IPv4Address(word)
                elif code == ATTR_MED:
                    med = word
                else:
                    local_pref = word
            # Unknown attributes are silently skipped (optional transit).
        return cls(
            origin=origin,
            as_path=as_path,
            next_hop=next_hop,
            med=med,
            local_pref=local_pref,
        )

    def __str__(self) -> str:
        path = " ".join(str(asn) for asn in self.as_path) or "(local)"
        return f"as_path=[{path}] next_hop={self.next_hop}"


def encode_prefix(prefix: IPv4Prefix) -> bytes:
    """NLRI encoding: length byte + the minimum prefix octets."""
    network, length = prefix.key()
    octets = (length + 7) >> 3
    return bytes((length,)) + (network >> (32 - 8 * octets)).to_bytes(octets, "big")


def decode_prefixes(data: bytes) -> List[IPv4Prefix]:
    """Parse a run of NLRI-encoded prefixes."""
    prefixes: List[IPv4Prefix] = []
    offset = 0
    end = len(data)
    while offset < end:
        length = data[offset]
        if length > 32:
            raise _malformed_update(f"prefix length {length} > 32")
        octets = (length + 7) >> 3
        start = offset + 1
        offset = start + octets
        if offset > end:
            raise _malformed_update("truncated NLRI prefix")
        network = int.from_bytes(data[start:offset], "big") << (32 - 8 * octets)
        prefixes.append(IPv4Prefix.from_network(network, length))
    return prefixes


@dataclass
class BGPMessage:
    """Base class for all BGP messages."""

    msg_type: int = 0

    def body(self) -> bytes:
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

    def body(self) -> bytes:
        withdrawn_bytes = b"".join(map(encode_prefix, self.withdrawn))
        attr_bytes = self.attributes.encode() if self.attributes is not None else b""
        return b"".join((
            _U16.pack(len(withdrawn_bytes)),
            withdrawn_bytes,
            _U16.pack(len(attr_bytes)),
            attr_bytes,
            *map(encode_prefix, self.nlri),
        ))

    @classmethod
    def decode_body(cls, data: bytes) -> "BGPUpdate":
        end = len(data)
        if end < 4:
            raise _malformed_update("truncated UPDATE")
        (withdrawn_len,) = _U16.unpack_from(data)
        attrs_at = 2 + withdrawn_len
        if attrs_at + 2 > end:
            raise _malformed_update("withdrawn routes overrun the UPDATE")
        (attr_len,) = _U16.unpack_from(data, attrs_at)
        nlri_at = attrs_at + 2 + attr_len
        if nlri_at > end:
            raise _malformed_update("path attributes overrun the UPDATE")
        withdrawn = decode_prefixes(data[2:attrs_at])
        attributes = (
            PathAttributes.decode(data[attrs_at + 2 : nlri_at]) if attr_len else None
        )
        nlri = decode_prefixes(data[nlri_at:])
        if nlri and attributes is None:
            raise _malformed_update("NLRI without path attributes")
        return cls(withdrawn=withdrawn, attributes=attributes, nlri=nlri)

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


def decode_bgp_stream(data: bytes) -> Tuple[BGPMessage, bytes]:
    """Parse the first BGP message from a byte stream; returns (msg, rest)."""
    if len(data) < BGP_HEADER_LEN:
        raise BGPDecodeError("truncated BGP header")
    if not data.startswith(BGP_MARKER):
        raise BGPDecodeError("bad BGP marker")
    length, msg_type = _LENGTH_TYPE.unpack_from(data, 16)
    if length < BGP_HEADER_LEN or length > len(data):
        raise BGPDecodeError(f"bad BGP length {length}")
    body = data[BGP_HEADER_LEN:length]
    rest = data[length:]
    if msg_type == TYPE_OPEN:
        return BGPOpen.decode_body(body), rest
    if msg_type == TYPE_UPDATE:
        return BGPUpdate.decode_body(body), rest
    if msg_type == TYPE_KEEPALIVE:
        if body:
            raise BGPDecodeError("KEEPALIVE with a body")
        return BGPKeepalive(), rest
    if msg_type == TYPE_NOTIFICATION:
        return BGPNotification.decode_body(body), rest
    raise BGPDecodeError(f"unknown BGP message type {msg_type}")
