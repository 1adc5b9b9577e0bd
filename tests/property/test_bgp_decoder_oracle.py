"""Differential test: the in-place UPDATE decoder against the one before.

``messages.decode_bgp_stream`` reads an UPDATE at offsets into the
delivered bytes and looks its values up in the experiment's
:class:`~repro.bgp.messages.RouteValues` directly;
``bgp_reference.decode_bgp_stream`` slices the body and stages what it
meets in a fresh table per UPDATE.  Both are fed the same bytes, each
through a table of its own that starts equal to the other's: valid
UPDATEs (prefixes /0-/32, AS paths past the extended-length boundary,
MED and LOCAL_PREF present or absent, unknown optional attributes),
several messages in one delivery, and every single-byte mutant and
truncation of a drawn wire.  They must return equal messages and an
equal rest, or both raise ``BGPDecodeError`` with the same code.  After
a failure the table is as it was; after a success both tables gained
the same entries, also when a small ``RouteValues.BOUND`` keeps
emptying them.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

import bgp_reference as ref
from repro.bgp.messages import (
    BGPDecodeError, BGPKeepalive, BGPNotification, BGPOpen, Origin,
    PathAttributes, RouteValues, decode_bgp_stream, encode_attributes,
    encode_prefix, encode_update, next_hop_attribute)
from repro.netproto.addr import IPv4Address, IPv4Prefix

prefixes = st.builds(IPv4Prefix.from_network,
                     st.integers(0, 0xFFFFFFFF), st.integers(0, 32))
words = st.integers(0, 0xFFFFFFFF)


def path_attributes(max_hops):
    return st.builds(
        PathAttributes,
        origin=st.sampled_from(list(Origin)),
        as_path=st.lists(st.integers(1, 65535), max_size=max_hops).map(tuple),
        next_hop=st.builds(IPv4Address, words),
        med=st.none() | words,
        local_pref=st.none() | words)


# An optional attribute the decoder does not know: skipped, whatever
# its body, in the one-byte or the extended length form.
unknown_attributes = st.builds(
    lambda code, body, extended: (
        struct.pack("!BBH", 0xD0, code, len(body)) if extended
        else struct.pack("!BBB", 0xC0, code, len(body))) + body,
    st.integers(6, 255), st.binary(max_size=12), st.booleans())


@st.composite
def updates(draw, max_hops=255, max_prefixes=6):
    """An UPDATE's wire: withdrawn routes, attributes with unknown
    optional ones among them, and NLRI; or withdrawals alone."""
    withdrawn = b"".join(map(encode_prefix, draw(
        st.lists(prefixes, max_size=max_prefixes))))
    if draw(st.booleans()):
        nlri = draw(st.lists(prefixes, min_size=1, max_size=max_prefixes))
        attributes = draw(path_attributes(max_hops))
        unknown = draw(st.lists(unknown_attributes, max_size=2))
        encoded = encode_attributes(attributes,
                                    next_hop_attribute(attributes.next_hop))
        encoded = (b"".join(unknown) + encoded if draw(st.booleans())
                   else encoded + b"".join(unknown))
        return encode_update(withdrawn, encoded,
                             b"".join(map(encode_prefix, nlri)))
    return encode_update(withdrawn, b"", b"")


other_messages = st.sampled_from([
    BGPOpen(asn=65001, hold_time=90, bgp_id=IPv4Address("1.1.1.1")).encode(),
    BGPKeepalive().encode(),
    BGPNotification(code=6, subcode=2, data=b"bye").encode(),
])


def snapshot(values):
    return (dict(values.prefixes), dict(values.as_paths),
            dict(values.next_hops))


def decode_all(decode, data, values):
    """Every message of a delivery, or the code of the first failure."""
    messages = []
    rest = data
    try:
        while rest:
            message, rest = decode(rest, values)
            messages.append((message, rest))
    except BGPDecodeError as error:
        return messages, error.code
    return messages, None


def assert_same(data, ours, theirs):
    """Both decoders on ``data``, each through its own table."""
    before = snapshot(ours)
    assert snapshot(theirs) == before
    expected, expected_code = decode_all(ref.decode_bgp_stream, data, theirs)
    got, code = decode_all(decode_bgp_stream, data, ours)
    assert code == expected_code
    assert got == expected
    assert snapshot(ours) == snapshot(theirs)
    if code is not None and not got:
        assert snapshot(ours) == before
    # Without a table each builds its own values, and they agree.
    assert decode_all(decode_bgp_stream, data, None) == \
        decode_all(ref.decode_bgp_stream, data, None)
    return code


def fork(values):
    """A table with the same contents, to decode one mutant through."""
    copy = RouteValues()
    copy.prefixes.update(values.prefixes)
    copy.as_paths.update(values.as_paths)
    copy.next_hops.update(values.next_hops)
    return copy


def seeded_tables(wires):
    """Two tables with equal contents, filled by each decoder."""
    ours, theirs = RouteValues(), RouteValues()
    for wire in wires:
        decode_all(decode_bgp_stream, wire, ours)
        decode_all(ref.decode_bgp_stream, wire, theirs)
    return ours, theirs


@given(seen=st.lists(updates(), max_size=3),
       deliveries=st.lists(st.lists(updates() | other_messages,
                                    min_size=1, max_size=3),
                           min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_valid_deliveries_decode_alike(seen, deliveries):
    ours, theirs = seeded_tables(seen)
    for messages in deliveries:
        assert assert_same(b"".join(messages), ours, theirs) is None


def mutants(wire, positions=None):
    """Every single-byte mutation (at each of ``positions``, all by
    default) and every truncation of ``wire``."""
    for at in range(len(wire)) if positions is None else positions:
        for value in range(256):
            if value != wire[at]:
                yield wire[:at] + bytes([value]) + wire[at + 1:]
    for length in range(len(wire)):
        yield wire[:length]


@given(seen=st.lists(updates(max_hops=4, max_prefixes=2), max_size=2),
       wire=updates(max_hops=4, max_prefixes=2))
@settings(max_examples=20, deadline=None)
def test_every_mutant_decodes_alike_or_fails_alike(seen, wire):
    ours, theirs = seeded_tables(seen + [wire])
    codes = {assert_same(mutant, fork(ours), fork(theirs))
             for mutant in mutants(wire)}
    # Truncations always fail in the header or the body.
    assert codes - {None}


def test_a_long_as_path_across_the_extended_length_boundary():
    ours, theirs = RouteValues(), RouteValues()
    for hops in (126, 127, 128, 255):
        attributes = PathAttributes(as_path=(64512,) * hops,
                                    next_hop=IPv4Address("10.0.0.1"))
        wire = encode_update(b"", attributes.encode(),
                             encode_prefix(IPv4Prefix("10.1.0.0/16")))
        # The header, the lengths, the AS_PATH attribute and segment
        # headers and the first hops, mutated; the wire cut anywhere.
        assert_same(wire, ours, theirs)
        for data in mutants(wire, range(40)):
            assert_same(data, fork(ours), fork(theirs))


@pytest.mark.parametrize("bound", [1, 2, 5])
def test_a_small_bound_empties_both_tables_alike(bound, monkeypatch):
    monkeypatch.setattr(RouteValues, "BOUND", bound)
    ours, theirs = RouteValues(), RouteValues()
    hops = [IPv4Address(f"10.0.0.{n}") for n in range(1, 5)]
    for n in range(40):
        attributes = PathAttributes(as_path=(64512 + n % 7,) * (1 + n % 3),
                                    next_hop=hops[n % 4], med=n % 2 or None)
        nlri = b"".join(encode_prefix(IPv4Prefix.from_network(
            (10 << 24) | (m << 8), 24)) for m in range(n % 4 + 1))
        withdrawn = encode_prefix(IPv4Prefix.from_network(n << 16, 16))
        assert_same(encode_update(withdrawn, attributes.encode(), nlri),
                    ours, theirs)
