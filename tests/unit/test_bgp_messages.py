"""Unit tests: BGP message wire format (RFC 4271)."""

import random
import struct

import pytest

from repro.bgp.messages import (
    BGP_HEADER_LEN,
    BGP_MARKER,
    BGPDecodeError,
    BGPKeepalive,
    BGPNotification,
    BGPOpen,
    BGPUpdate,
    Origin,
    PathAttributes,
    RouteValues,
    decode_bgp_message,
    decode_bgp_stream,
    decode_prefixes,
    encode_prefix,
)
from repro.netproto.addr import IPv4Address, IPv4Prefix


class TestHeader:
    def test_marker_and_length(self):
        wire = BGPKeepalive().encode()
        assert wire[:16] == BGP_MARKER
        assert len(wire) == BGP_HEADER_LEN == 19
        assert wire[18] == 4  # KEEPALIVE

    def test_bad_marker_rejected(self):
        wire = bytearray(BGPKeepalive().encode())
        wire[0] = 0
        with pytest.raises(BGPDecodeError):
            decode_bgp_message(bytes(wire))

    def test_truncated_rejected(self):
        with pytest.raises(BGPDecodeError):
            decode_bgp_message(BGP_MARKER + b"\x00")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(BGPDecodeError):
            decode_bgp_message(BGPKeepalive().encode() + b"x")


class TestOpen:
    def test_roundtrip(self):
        message = BGPOpen(asn=65001, hold_time=90,
                          bgp_id=IPv4Address("1.1.1.1"))
        decoded = decode_bgp_message(message.encode())
        assert isinstance(decoded, BGPOpen)
        assert decoded.asn == 65001
        assert decoded.hold_time == 90
        assert decoded.bgp_id == IPv4Address("1.1.1.1")
        assert decoded.version == 4

    def test_wrong_version_rejected(self):
        wire = bytearray(BGPOpen(asn=1).encode())
        wire[BGP_HEADER_LEN] = 3  # version byte
        with pytest.raises(BGPDecodeError):
            decode_bgp_message(bytes(wire))


class TestPrefixEncoding:
    @pytest.mark.parametrize("text,octets", [
        ("0.0.0.0/0", 0),
        ("10.0.0.0/8", 1),
        ("10.1.0.0/16", 2),
        ("10.1.2.0/24", 3),
        ("10.1.2.3/32", 4),
        ("10.1.2.0/23", 3),
    ])
    def test_minimum_octets(self, text, octets):
        prefix = IPv4Prefix(text)
        wire = encode_prefix(prefix)
        assert len(wire) == 1 + octets
        assert decode_prefixes(wire) == [prefix]

    def test_run_of_prefixes(self):
        prefixes = [IPv4Prefix("10.0.0.0/8"), IPv4Prefix("192.168.1.0/24")]
        wire = b"".join(encode_prefix(p) for p in prefixes)
        assert decode_prefixes(wire) == prefixes

    def test_bad_length_rejected(self):
        with pytest.raises(BGPDecodeError):
            decode_prefixes(bytes([40]))

    def test_truncated_rejected(self):
        with pytest.raises(BGPDecodeError):
            decode_prefixes(bytes([24, 10]))


class TestPathAttributes:
    def test_full_roundtrip(self):
        attrs = PathAttributes(
            origin=Origin.EGP,
            as_path=(65001, 65002, 65003),
            next_hop=IPv4Address("192.168.0.1"),
            med=77,
            local_pref=200,
        )
        assert PathAttributes.decode(attrs.encode()) == attrs

    def test_minimal_roundtrip(self):
        attrs = PathAttributes()
        decoded = PathAttributes.decode(attrs.encode())
        assert decoded.as_path == ()
        assert decoded.next_hop is None
        assert decoded.med is None

    def test_prepend(self):
        attrs = PathAttributes(as_path=(65002,))
        assert attrs.with_prepended(65001).as_path == (65001, 65002)
        # original untouched (frozen)
        assert attrs.as_path == (65002,)

    def test_next_hop_self(self):
        attrs = PathAttributes(next_hop=IPv4Address("1.1.1.1"))
        rewritten = attrs.with_next_hop(IPv4Address("2.2.2.2"))
        assert rewritten.next_hop == IPv4Address("2.2.2.2")

    def test_loop_check(self):
        attrs = PathAttributes(as_path=(1, 2, 3))
        assert attrs.contains_as(2)
        assert not attrs.contains_as(9)

    def test_long_as_path(self):
        attrs = PathAttributes(as_path=tuple(range(1, 200)))
        assert PathAttributes.decode(attrs.encode()).as_path == attrs.as_path


class TestUpdate:
    def test_announce_roundtrip(self):
        update = BGPUpdate(
            attributes=PathAttributes(as_path=(65001,),
                                      next_hop=IPv4Address("10.0.0.1")),
            nlri=[IPv4Prefix("10.1.0.0/24"), IPv4Prefix("10.2.0.0/24")],
        )
        decoded = decode_bgp_message(update.encode())
        assert decoded.nlri == update.nlri
        assert decoded.attributes.as_path == (65001,)
        assert decoded.withdrawn == []

    def test_withdraw_roundtrip(self):
        update = BGPUpdate(withdrawn=[IPv4Prefix("10.1.0.0/24")])
        decoded = decode_bgp_message(update.encode())
        assert decoded.withdrawn == update.withdrawn
        assert decoded.attributes is None
        assert decoded.nlri == []

    def test_mixed_roundtrip(self):
        update = BGPUpdate(
            withdrawn=[IPv4Prefix("10.9.0.0/16")],
            attributes=PathAttributes(as_path=(1, 2),
                                      next_hop=IPv4Address("10.0.0.1")),
            nlri=[IPv4Prefix("10.1.0.0/24")],
        )
        decoded = decode_bgp_message(update.encode())
        assert decoded.withdrawn == update.withdrawn
        assert decoded.nlri == update.nlri


class TestNotificationAndStream:
    def test_notification_roundtrip(self):
        message = BGPNotification(code=6, subcode=2, data=b"bye")
        decoded = decode_bgp_message(message.encode())
        assert (decoded.code, decoded.subcode, decoded.data) == (6, 2, b"bye")

    def test_stream_of_messages(self):
        wire = (BGPOpen(asn=1).encode() + BGPKeepalive().encode()
                + BGPNotification(code=1).encode())
        first, rest = decode_bgp_stream(wire)
        assert isinstance(first, BGPOpen)
        second, rest = decode_bgp_stream(rest)
        assert isinstance(second, BGPKeepalive)
        third, rest = decode_bgp_stream(rest)
        assert isinstance(third, BGPNotification)
        assert rest == b""

    def test_keepalive_with_body_rejected(self):
        wire = bytearray(BGPKeepalive().encode())
        wire[16:18] = struct.pack("!H", BGP_HEADER_LEN + 1)
        wire.append(0)
        with pytest.raises(BGPDecodeError):
            decode_bgp_message(bytes(wire))


def _update_wire(attr_bytes, nlri=b"\x18\x0a\x01\x02"):
    """An UPDATE carrying raw attribute bytes (no withdrawals)."""
    body = struct.pack("!H", 0) + struct.pack("!H", len(attr_bytes)) + attr_bytes + nlri
    return BGP_MARKER + struct.pack("!HB", BGP_HEADER_LEN + len(body), 2) + body


class TestDecoderFailsClosed:
    """Whatever the bytes, the only exception out of the decoder is
    :class:`BGPDecodeError` — the daemon answers it with a NOTIFICATION."""

    GOOD = PathAttributes(as_path=(65001,),
                          next_hop=IPv4Address("10.0.0.1")).encode()

    @pytest.mark.parametrize("attr_bytes", [
        b"\x40\x01\x00",                      # ORIGIN with an empty body
        b"\x40\x01\x01\xc4",                  # ORIGIN 196
        b"\x40\x01\x02\x00\x00",              # ORIGIN two bytes long
        b"\x40\x02\x01\x02",                  # AS_PATH: half a segment header
        b"\x40\x02\x04\x02\x03\xfd\xe9",      # AS_PATH: 3 hops announced, 1 present
        b"\x40\x02\x04\x01\x01\xfd\xe9",      # AS_SET segment
        b"\x40\x03\x03\x0a\x00\x00",          # NEXT_HOP three bytes
        b"\x40\x03\x05\x0a\x00\x00\x01\x00",  # NEXT_HOP five bytes
        b"\x80\x04\x02\x00\x05",              # MED two bytes
        b"\x40\x05\x00",                      # LOCAL_PREF empty
        b"\x40\x01",                          # attribute header cut short
        b"\x50\x02\x01",                      # extended length cut short
        b"\x40\x02\x09\x02\x01\xfd\xe9",      # body shorter than its length
    ])
    def test_malformed_attributes(self, attr_bytes):
        with pytest.raises(BGPDecodeError) as caught:
            decode_bgp_message(_update_wire(attr_bytes))
        assert caught.value.code == 3

    def test_the_well_formed_twin_decodes(self):
        decoded = decode_bgp_message(_update_wire(self.GOOD))
        assert decoded.attributes.as_path == (65001,)
        assert decoded.nlri == [IPv4Prefix("10.1.2.0/24")]

    def test_nlri_without_attributes(self):
        with pytest.raises(BGPDecodeError):
            decode_bgp_message(_update_wire(b""))

    @pytest.mark.parametrize("lengths", [
        b"\x00\x09\x00\x00",   # withdrawn length runs past the body
        b"\x00\x00\x00\x09",   # attribute length runs past the body
        b"\x00",               # not even the two length fields
    ])
    def test_update_lengths_overrun(self, lengths):
        wire = BGP_MARKER + struct.pack("!HB", BGP_HEADER_LEN + len(lengths), 2) + lengths
        with pytest.raises(BGPDecodeError) as caught:
            decode_bgp_message(wire)
        assert caught.value.code == 3

    @pytest.mark.parametrize("msg_type,body,code", [
        (1, b"\x04\xfd\xe9", 2),   # OPEN cut short
        (3, b"\x06", 1),           # NOTIFICATION without a subcode
        (9, b"", 1),               # unknown type
    ])
    def test_short_bodies_of_other_types(self, msg_type, body, code):
        wire = BGP_MARKER + struct.pack("!HB", BGP_HEADER_LEN + len(body), msg_type) + body
        with pytest.raises(BGPDecodeError) as caught:
            decode_bgp_message(wire)
        assert caught.value.code == code

    @staticmethod
    def _mutated_updates():
        """24 000 byte-mutated UPDATEs (flip, truncate, insert; the
        header length repaired on most so the mutation reaches the body
        parsers), the same every call."""
        rng = random.Random(20260928)

        def prefix():
            return IPv4Prefix.from_network(rng.getrandbits(32), rng.randint(0, 32))

        for __ in range(24_000):
            update = BGPUpdate(
                withdrawn=[prefix() for __ in range(rng.randrange(4))],
                attributes=PathAttributes(
                    origin=Origin(rng.randrange(3)),
                    as_path=tuple(rng.randrange(1, 65536) for __ in
                                  range(rng.choice((0, 1, 3, 8, 130)))),
                    next_hop=IPv4Address(rng.getrandbits(32)),
                    med=rng.choice((None, 5)),
                    local_pref=rng.choice((None, 100))),
                nlri=[prefix() for __ in range(rng.randrange(1, 5))])
            wire = bytearray(update.encode())
            for __ in range(rng.randint(1, 3)):
                kind = rng.randrange(3)
                if kind == 0:
                    wire[rng.randrange(len(wire))] = rng.randrange(256)
                elif kind == 1 and len(wire) > BGP_HEADER_LEN + 1:
                    del wire[rng.randrange(BGP_HEADER_LEN, len(wire)):]
                else:
                    wire.insert(rng.randrange(len(wire)), rng.randrange(256))
            if rng.random() < 0.8:
                wire[16:18] = struct.pack("!H", len(wire))
            yield bytes(wire)

    def test_seeded_mutation_fuzz(self):
        """Each mutated UPDATE decodes or raises BGPDecodeError,
        nothing else."""
        outcomes = {"decoded": 0, 1: 0, 2: 0, 3: 0}
        for wire in self._mutated_updates():
            try:
                decode_bgp_message(wire)
            except BGPDecodeError as error:
                outcomes[error.code] += 1
            else:
                outcomes["decoded"] += 1
        # The corpus reaches both the header checks and the UPDATE body.
        assert outcomes[1] > 1000 and outcomes[3] > 1000, outcomes
        assert outcomes["decoded"] > 1000, outcomes

    def test_a_malformed_update_leaves_the_table_unchanged(self):
        """Decoded through a :class:`RouteValues` table, as a daemon
        decodes: a message that fails adds nothing to it (the table only
        grows, so unchanged sizes mean unchanged contents), one that
        parses keeps its values, and a repeat gets the kept objects."""
        values = RouteValues()

        def sizes():
            return (len(values.prefixes), len(values.as_paths),
                    len(values.next_hops))

        failed = 0
        for wire in self._mutated_updates():
            before = sizes()
            try:
                message, __ = decode_bgp_stream(wire, values)
            except BGPDecodeError:
                failed += 1
                assert sizes() == before
            else:
                if isinstance(message, BGPUpdate) and message.nlri:
                    kept = sizes()
                    again, __ = decode_bgp_stream(wire, values)
                    assert sizes() == kept
                    assert all(a is b for a, b in zip(again.nlri, message.nlri))
                    assert again.attributes.as_path is message.attributes.as_path
        assert failed > 10_000 and sizes() > (1000, 1000, 1000)
