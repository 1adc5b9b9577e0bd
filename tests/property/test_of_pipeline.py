"""The OpenFlow / Hedera pipeline against its oracles.

* the codec against the pre-change codec kept verbatim in
  ``of_reference.py``: same bytes out, same objects in, on canonical and
  non-canonical wire; and a seeded mutation fuzz that pins the one error
  class;
* :class:`FlowTable` against the linear-scan, filter-and-sort table it
  replaced (kept below);
* ``TopologyView.equal_cost_paths`` against ``networkx``.
"""

import dataclasses
import random
import struct
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import of_reference as ref
from repro.controllers.topology_view import TopologyView
from repro.dataplane.flowtable import FlowEntry, FlowTable
from repro.dataplane.network import Network
from repro.netproto.addr import IPv4Address, IPv4Prefix, MACAddress
from repro.netproto.packet import FiveTuple, IPPROTO_TCP, IPPROTO_UDP
from repro.openflow import actions as new_actions
from repro.openflow import groups as new_groups
from repro.openflow import match as new_match
from repro.openflow import messages as new_messages
from repro.openflow.constants import (
    FlowModCommand,
    GroupModCommand,
    GroupType,
    OFDecodeError,
    OFP_FLOW_PERMANENT,
    StatsType,
)
from repro.topology import FatTreeTopo
from repro.topology.builders import jellyfish_topo

#: The codec under test, shaped like the reference module.
new = SimpleNamespace(
    **{name: getattr(new_messages, name) for name in (
        "Hello", "EchoRequest", "EchoReply", "ErrorMsg", "FeaturesRequest",
        "FeaturesReply", "PortDesc", "PacketIn", "PacketOut", "FlowMod",
        "GroupMod", "FlowRemoved", "FlowStatsEntry", "PortStatsEntry",
        "AggregateStats", "StatsRequest", "StatsReply", "BarrierRequest",
        "BarrierReply", "decode_message", "decode_message_stream")},
    Match=new_match.Match,
    Bucket=new_groups.Bucket,
    ActionOutput=new_actions.ActionOutput,
    ActionSetField=new_actions.ActionSetField,
    ActionGroup=new_actions.ActionGroup,
)

# ---------------------------------------------------------------------------
# Message recipes: plain data that builds the same message in either codec
# ---------------------------------------------------------------------------

u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
u64 = st.integers(0, 2**64 - 1)
blobs = st.binary(max_size=40)

match_recipes = st.fixed_dictionaries({
    "in_port": st.none() | u32,
    "dl_src": st.none() | st.integers(0, 2**48 - 1),
    "dl_dst": st.none() | st.integers(0, 2**48 - 1),
    "dl_type": st.none() | u16,
    # (address, length): unmasked on purpose, and /0 included — both
    # must normalise exactly as the reference does.
    "nw_src": st.none() | st.tuples(u32, st.integers(0, 32)),
    "nw_dst": st.none() | st.tuples(u32, st.integers(0, 32)),
    "nw_proto": st.none() | u8,
    "tp_src": st.none() | u16,
    "tp_dst": st.none() | u16,
})

action_recipes = st.one_of(
    st.tuples(st.just("output"), u32, u16),
    st.tuples(st.just("group"), u32),
    st.tuples(st.sampled_from(["dl_src", "dl_dst"]),
              st.integers(0, 2**48 - 1)),
    st.tuples(st.sampled_from(["nw_src", "nw_dst"]), u32),
)
action_lists = st.lists(action_recipes, max_size=4)

flow_entry_recipes = st.tuples(match_recipes, u16, u32, u64, u64, u64)

message_recipes = st.one_of(
    st.tuples(st.sampled_from(["Hello", "FeaturesRequest", "BarrierRequest",
                               "BarrierReply"]), u32),
    st.tuples(st.sampled_from(["EchoRequest", "EchoReply"]), u32, blobs),
    st.tuples(st.just("ErrorMsg"), u32, u16, u16, blobs),
    st.tuples(st.just("FeaturesReply"), u32, u64, u8, u32,
              st.lists(st.tuples(u32, st.text(
                  alphabet="abcdefgh-0123456789", max_size=16)), max_size=4)),
    st.tuples(st.just("PacketIn"), u32, u32, st.integers(1, 0xFFFF), u32, u8,
              blobs),
    st.tuples(st.just("PacketOut"), u32, u32, u32, action_lists, blobs),
    st.tuples(st.just("FlowMod"), u32, match_recipes, u64,
              st.sampled_from(list(FlowModCommand)), u16, u16, u16, u32, u32,
              u16, action_lists),
    st.tuples(st.just("GroupMod"), u32, st.sampled_from(list(GroupModCommand)),
              st.sampled_from(list(GroupType)), u32,
              st.lists(action_lists, max_size=3)),
    st.tuples(st.just("FlowRemoved"), u32, match_recipes, u64, u16, u8, u32,
              u64, u64),
    st.tuples(st.just("StatsRequest"), u32,
              st.sampled_from([StatsType.FLOW, StatsType.AGGREGATE]),
              match_recipes),
    st.tuples(st.just("StatsRequestPort"), u32, u32),
    st.tuples(st.just("StatsReplyFlow"), u32,
              st.lists(flow_entry_recipes, max_size=5)),
    st.tuples(st.just("StatsReplyPort"), u32,
              st.lists(st.tuples(u32, u64, u64, u64, u64), max_size=4)),
    st.tuples(st.just("StatsReplyAggregate"), u32, u64, u64, u32),
)


def build_match(ns, recipe):
    def prefix(spec):
        return None if spec is None else IPv4Prefix.from_network(*spec)

    def mac(value):
        return None if value is None else MACAddress(value)

    return ns.Match(
        in_port=recipe["in_port"], dl_src=mac(recipe["dl_src"]),
        dl_dst=mac(recipe["dl_dst"]), dl_type=recipe["dl_type"],
        nw_src=prefix(recipe["nw_src"]), nw_dst=prefix(recipe["nw_dst"]),
        nw_proto=recipe["nw_proto"], tp_src=recipe["tp_src"],
        tp_dst=recipe["tp_dst"])


def build_actions(ns, recipes):
    out = []
    for kind, *rest in recipes:
        if kind == "output":
            out.append(ns.ActionOutput(port=rest[0], max_len=rest[1]))
        elif kind == "group":
            out.append(ns.ActionGroup(group_id=rest[0]))
        elif kind.startswith("dl_"):
            out.append(ns.ActionSetField(kind, MACAddress(rest[0])))
        else:
            out.append(ns.ActionSetField(kind, IPv4Address(rest[0])))
    return out


def build(ns, recipe):
    """The message ``recipe`` describes, in codec ``ns``."""
    kind, xid, *rest = recipe
    if kind in ("Hello", "FeaturesRequest", "BarrierRequest", "BarrierReply"):
        return getattr(ns, kind)(xid=xid)
    if kind in ("EchoRequest", "EchoReply"):
        return getattr(ns, kind)(xid=xid, data=rest[0])
    if kind == "ErrorMsg":
        return ns.ErrorMsg(xid=xid, err_type=rest[0], err_code=rest[1],
                           data=rest[2])
    if kind == "FeaturesReply":
        return ns.FeaturesReply(
            xid=xid, datapath_id=rest[0], n_tables=rest[1],
            capabilities=rest[2],
            ports=[ns.PortDesc(number, name) for number, name in rest[3]])
    if kind == "PacketIn":
        return ns.PacketIn(xid=xid, buffer_id=rest[0], total_len=rest[1],
                           in_port=rest[2], reason=rest[3], data=rest[4])
    if kind == "PacketOut":
        return ns.PacketOut(xid=xid, buffer_id=rest[0], in_port=rest[1],
                            actions=build_actions(ns, rest[2]), data=rest[3])
    if kind == "FlowMod":
        return ns.FlowMod(
            xid=xid, match=build_match(ns, rest[0]), cookie=rest[1],
            command=rest[2], idle_timeout=rest[3], hard_timeout=rest[4],
            priority=rest[5], buffer_id=rest[6], out_port=rest[7],
            flags=rest[8], actions=build_actions(ns, rest[9]))
    if kind == "GroupMod":
        return ns.GroupMod(
            xid=xid, command=rest[0], group_type=rest[1], group_id=rest[2],
            buckets=[ns.Bucket(actions=tuple(build_actions(ns, actions)))
                     for actions in rest[3]])
    if kind == "FlowRemoved":
        return ns.FlowRemoved(
            xid=xid, match=build_match(ns, rest[0]), cookie=rest[1],
            priority=rest[2], reason=rest[3], duration_sec=float(rest[4]),
            packet_count=rest[5], byte_count=rest[6])
    if kind == "StatsRequest":
        return ns.StatsRequest(xid=xid, stats_type=rest[0],
                               match=build_match(ns, rest[1]))
    if kind == "StatsRequestPort":
        return ns.StatsRequest(xid=xid, stats_type=StatsType.PORT,
                               port_no=rest[0])
    if kind == "StatsReplyFlow":
        return ns.StatsReply(xid=xid, stats_type=StatsType.FLOW, flow_stats=[
            ns.FlowStatsEntry(
                match=build_match(ns, match), priority=priority,
                duration_sec=float(duration), cookie=cookie,
                packet_count=packets, byte_count=bytes_)
            for match, priority, duration, cookie, packets, bytes_ in rest[0]])
    if kind == "StatsReplyPort":
        return ns.StatsReply(xid=xid, stats_type=StatsType.PORT, port_stats=[
            ns.PortStatsEntry(*values) for values in rest[0]])
    assert kind == "StatsReplyAggregate"
    return ns.StatsReply(
        xid=xid, stats_type=StatsType.AGGREGATE,
        aggregate=ns.AggregateStats(packet_count=rest[0], byte_count=rest[1],
                                    flow_count=rest[2]))


def same(ours, theirs):
    """Whether an object of the new codec equals the reference codec's,
    field by field (the classes differ, so ``==`` cannot say)."""
    if dataclasses.is_dataclass(theirs):
        return (type(ours).__name__ == type(theirs).__name__
                and all(same(getattr(ours, f.name), getattr(theirs, f.name))
                        for f in dataclasses.fields(theirs)
                        if not f.name.startswith("_")))
    if isinstance(theirs, (list, tuple)):
        return (len(ours) == len(theirs)
                and all(same(a, b) for a, b in zip(ours, theirs)))
    return ours == theirs


# ---------------------------------------------------------------------------
# Differential: bytes out and objects in
# ---------------------------------------------------------------------------


@given(message_recipes)
@settings(max_examples=400, deadline=None)
def test_encode_and_decode_equal_the_reference(recipe):
    ours, theirs = build(new, recipe), build(ref, recipe)
    wire = theirs.encode()
    assert ours.encode() == wire
    decoded = new.decode_message(wire)
    assert same(decoded, ref.decode_message(wire))
    # Decoding is stable: what came off the wire goes back on unchanged.
    assert decoded.encode() == wire
    # Through an interner it is the same object graph, value for value.
    interned, rest = new.decode_message_stream(wire, new_match.MatchInterner())
    assert rest == b"" and same(interned, ref.decode_message(wire))


@given(st.lists(message_recipes, min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_a_batched_delivery_decodes_message_by_message(recipes):
    wire = b"".join(build(ref, recipe).encode() for recipe in recipes)
    decoded = new_messages.decode_messages(wire)
    rest, expected = wire, []
    while rest:
        message, rest = ref.decode_message_stream(rest)
        expected.append(message)
    assert same(decoded, expected)


@given(match_recipes, st.binary(min_size=new_match.MATCH_LEN,
                                max_size=new_match.MATCH_LEN),
       st.integers(0, 63), st.integers(0, 63), st.integers(0, 0xFFF))
@settings(max_examples=400, deadline=None)
def test_noncanonical_match_wire_reads_as_the_reference_reads_it(
        recipe, junk, src_wild, dst_wild, undefined_bits):
    """Junk under wildcarded fields, wildcard bit-counts past 32 (and so
    /0 prefixes), undefined wildcard bits: ignored alike, and both
    codecs re-encode the canonical form."""
    canonical = build_match(ref, recipe).encode()
    wildcards = struct.unpack_from("!I", canonical)[0]
    if recipe["nw_src"] is None:
        wildcards = (wildcards & ~(0x3F << 8)) | (max(src_wild, 32) << 8)
    if recipe["nw_dst"] is None:
        wildcards = (wildcards & ~(0x3F << 14)) | (max(dst_wild, 32) << 14)
    wildcards |= undefined_bits << 20 | 1 << 1
    noisy = bytearray(struct.pack("!I", wildcards) + canonical[4:])
    # (field offset, length, wildcard test) over the 36-byte layout.
    for offset, length, wild in (
            (4, 4, wildcards & new_match.WC_IN_PORT),
            (8, 6, wildcards & new_match.WC_DL_SRC),
            (14, 6, wildcards & new_match.WC_DL_DST),
            (20, 2, wildcards & new_match.WC_DL_TYPE),
            (22, 1, wildcards & new_match.WC_NW_PROTO),
            (23, 1, True),                       # the pad byte
            (24, 2, wildcards & new_match.WC_TP_SRC),
            (26, 2, wildcards & new_match.WC_TP_DST),
            (28, 4, recipe["nw_src"] is None),
            (32, 4, recipe["nw_dst"] is None)):
        if wild:
            noisy[offset:offset + length] = junk[offset:offset + length]
    noisy = bytes(noisy)
    ours = new.Match.from_wire(noisy)
    theirs, __ = ref.Match.decode(noisy)
    assert same(ours, theirs)
    assert ours.encode() == theirs.encode()
    assert new_match.MatchInterner().from_wire(noisy) == ours


def test_a_match_serialises_once_and_an_extent_parses_once():
    match = new.Match.exact_five_tuple(FiveTuple(
        IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), IPPROTO_UDP, 1, 2))
    assert match.encode() is match.encode()
    interner = new_match.MatchInterner()
    wire = b"\x00" * 3 + match.encode() + b"\x00" * 5
    first = interner.from_wire(wire, 3)
    assert first == match and interner.from_wire(wire, 3) is first
    assert (interner.hits, interner.misses) == (1, 1)
    assert first.five_tuple() is first.five_tuple()
    # Bounded: a full table is emptied, not grown.
    for value in range(interner.BOUND + 10):
        interner.from_wire(new.Match(in_port=value).encode())
    assert len(interner._table) <= interner.BOUND


def test_flow_stats_reply_is_read_header_first_and_materialised_lazily():
    entries = [new.FlowStatsEntry(
        match=new.Match.exact_five_tuple(FiveTuple(
            IPv4Address(0x0A000001 + i), IPv4Address("10.0.0.9"),
            IPPROTO_TCP, 1000 + i, 80)),
        priority=300, duration_sec=float(i), cookie=i, packet_count=i,
        byte_count=1500 * i) for i in range(4)]
    wire = new.StatsReply(xid=7, flow_stats=entries).encode()
    reply = new.decode_message(wire)
    assert reply.flow_entries_held == 4
    assert reply.flow_bytes() == [(e.match.encode(), e.byte_count)
                                  for e in entries]
    assert reply.flow_entries_held == 4          # still bytes
    assert reply.flow_stats == entries           # built on first read
    assert reply.flow_entries_held == 0
    assert reply.flow_bytes() == [(e.match.encode(), e.byte_count)
                                  for e in entries]
    assert reply.encode() == wire
    built = new.StatsReply.for_flow_rows(7, (
        (e.match, e.priority, e.duration_sec, e.cookie, e.packet_count,
         e.byte_count) for e in entries))
    assert built.encode() == wire and built == reply


# ---------------------------------------------------------------------------
# Mutation fuzz: one error class, whatever the bytes
# ---------------------------------------------------------------------------

_FLOW = FiveTuple(IPv4Address("10.0.1.2"), IPv4Address("10.3.0.3"),
                  IPPROTO_UDP, 40001, 9000)


def _fuzz_corpus():
    exact = new.Match.exact_five_tuple(_FLOW)
    return [
        new.FlowMod(xid=1, match=exact, priority=300, cookie=9,
                    actions=[new.ActionOutput(3)]).encode(),
        new.FlowMod(xid=2, match=new.Match(nw_dst=IPv4Prefix("10.1.0.0/16")),
                    command=FlowModCommand.DELETE, out_port=2,
                    actions=[new.ActionSetField("dl_dst", MACAddress(7)),
                             new.ActionGroup(4)]).encode(),
        new.StatsReply(xid=3, flow_stats=[
            new.FlowStatsEntry(match=exact, priority=300 + i, byte_count=i)
            for i in range(3)]).encode(),
        new.StatsReply(xid=4, stats_type=StatsType.PORT, port_stats=[
            new.PortStatsEntry(1, 2, 3, 4, 5)]).encode(),
        new.PacketIn(xid=5, in_port=2, total_len=64, data=b"\x01" * 64).encode(),
        new.GroupMod(xid=6, group_id=1, buckets=[
            new.Bucket(actions=(new.ActionOutput(1),)),
            new.Bucket(actions=(new.ActionOutput(2),
                                new.ActionOutput(3)))]).encode(),
        new.StatsRequest(xid=7, match=exact).encode(),
        new.FlowRemoved(xid=8, match=exact, byte_count=5).encode(),
    ]


def _mutate(rng, wire, corpus):
    data = bytearray(wire)
    kind = rng.randrange(6)
    if kind == 0:                                   # bit flips
        for __ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    elif kind == 1:                                 # truncation
        del data[rng.randrange(len(data)):]
    elif kind == 2:                                 # header length lie
        struct.pack_into("!H", data, 2, rng.choice(
            [0, 7, 8, len(data) - 1, len(data) + 1, rng.randrange(0x10000)]))
    elif kind == 3:                                 # an inner length lie
        offset = rng.randrange(8, max(9, len(data) - 1))
        struct.pack_into("!H", data, min(offset, len(data) - 2),
                         rng.choice([0, 1, 3, 4, 0xFFFF,
                                     rng.randrange(0x100)]))
    elif kind == 4:                                 # splice another message
        other = rng.choice(corpus)
        cut = rng.randrange(len(data))
        data[cut:] = other[rng.randrange(len(other)):]
    else:                                           # overwrite a run
        start = rng.randrange(len(data))
        for index in range(start, min(len(data), start + rng.randint(1, 8))):
            data[index] = rng.randrange(256)
    return bytes(data)


def test_mutation_fuzz_raises_ofdecodeerror_and_nothing_else():
    rng = random.Random(16)
    corpus = _fuzz_corpus()
    interner = new_match.MatchInterner()
    rejected = accepted = 0
    for case in range(24_000):
        wire = _mutate(rng, corpus[case % len(corpus)], corpus)
        try:
            message, rest = new.decode_message_stream(wire, interner)
        except OFDecodeError as error:
            assert type(error) is OFDecodeError
            rejected += 1
            continue
        accepted += 1
        # What the new codec accepts, the old one read the same way.
        theirs, their_rest = ref.decode_message_stream(wire)
        assert rest == their_rest and same(message, theirs), wire.hex()
        # Lazily held entries cannot fail later: they were checked whole.
        if isinstance(message, new.StatsReply):
            assert same(message.flow_stats, theirs.flow_stats)
    assert rejected > 5_000 and accepted > 1_000, (rejected, accepted)


# ---------------------------------------------------------------------------
# FlowTable against the table it replaced
# ---------------------------------------------------------------------------


class ScanTable:
    """The pre-change FlowTable: filter and full sort on add, an ordered
    scan per lookup, a sweep of every entry per expiry check."""

    def __init__(self):
        self._entries = []

    def entries(self):
        return list(self._entries)

    def add(self, entry):
        self._entries = [
            existing for existing in self._entries
            if not (existing.priority == entry.priority
                    and existing.match.is_strict_equal(entry.match))]
        self._entries.append(entry)
        self._entries.sort(key=FlowEntry.sort_key)

    def delete(self, match, strict=False, priority=None, out_port=None):
        removed, kept = [], []
        for entry in self._entries:
            if strict:
                hit = (entry.match.is_strict_equal(match)
                       and (priority is None or entry.priority == priority))
            else:
                hit = match.subsumes(entry.match)
            if hit and out_port is not None \
                    and out_port not in entry.output_ports():
                hit = False
            (removed if hit else kept).append(entry)
        self._entries = kept
        return removed

    def match_five_tuple(self, flow_key, in_port=None, dl_src=None,
                         dl_dst=None):
        for entry in self._entries:
            if entry.match.matches_five_tuple(
                    flow_key, in_port=in_port, dl_src=dl_src, dl_dst=dl_dst):
                return entry
        return None

    def expire(self, now):
        expired, kept = [], []
        for entry in self._entries:
            hard_hit = (entry.hard_timeout != OFP_FLOW_PERMANENT
                        and now - entry.installed_at >= entry.hard_timeout)
            idle_reference = max(entry.last_used_at, entry.installed_at)
            idle_hit = (entry.idle_timeout != OFP_FLOW_PERMANENT
                        and now - idle_reference >= entry.idle_timeout)
            (expired if hard_hit or idle_hit else kept).append(entry)
        self._entries = kept
        return expired


_FLOWS = [FiveTuple(IPv4Address(f"10.0.0.{a}"), IPv4Address(f"10.0.1.{b}"),
                    proto, 1000 + a, 80)
          for a in (1, 2) for b in (1, 2) for proto in (IPPROTO_UDP,
                                                        IPPROTO_TCP)]
_MATCHES = (
    [new.Match.exact_five_tuple(flow) for flow in _FLOWS]
    + [new.Match.exact_five_tuple(_FLOWS[0], in_port=2),
       new.Match.exact_five_tuple(_FLOWS[1], dl_type=0x0806),
       new.Match(), new.Match(nw_proto=IPPROTO_UDP),
       new.Match(nw_dst=IPv4Prefix("10.0.1.0/24")),
       new.Match(nw_src=IPv4Prefix("10.0.0.1/32")),
       new.Match(nw_src=IPv4Prefix("10.0.0.1/32"),
                 nw_dst=IPv4Prefix("10.0.1.1/32"), nw_proto=IPPROTO_UDP),
       new.Match(in_port=1), new.Match(dl_dst=MACAddress(5)),
       new.Match(tp_dst=80, nw_proto=IPPROTO_TCP)])

_matches = st.sampled_from(_MATCHES)
_priorities = st.sampled_from([100, 300, 300, 400, 0x8000])
_timeouts = st.sampled_from([0, 0, 2, 5])
_table_ops = st.one_of(
    st.tuples(st.just("add"), _matches, _priorities, st.integers(1, 3),
              _timeouts, _timeouts),
    st.tuples(st.just("add"), _matches, _priorities, st.integers(1, 3),
              _timeouts, _timeouts),
    st.tuples(st.just("lookup"), st.sampled_from(_FLOWS),
              st.none() | st.integers(1, 2),
              st.none() | st.just(MACAddress(5))),
    st.tuples(st.just("lookup"), st.sampled_from(_FLOWS),
              st.none() | st.integers(1, 2),
              st.none() | st.just(MACAddress(5))),
    st.tuples(st.just("delete"), _matches, st.booleans(),
              st.none() | _priorities, st.none() | st.integers(1, 3)),
    st.tuples(st.just("tick"), st.floats(0.1, 3.0)),
    st.tuples(st.just("use"), st.integers(0, 30)),
)


@given(st.lists(_table_ops, max_size=60))
@settings(max_examples=300, deadline=None)
def test_flow_table_equals_the_scan_table(ops):
    table, oracle = FlowTable(), ScanTable()
    now = 0.0
    serial = 0

    def ids(entries):
        return [entry.cookie for entry in entries]

    for op in ops:
        if op[0] == "add":
            __, match, priority, port, idle, hard = op
            serial += 1
            for target in (table, oracle):
                target.add(FlowEntry(
                    match=match, actions=[new.ActionOutput(port)],
                    priority=priority, cookie=serial, idle_timeout=idle,
                    hard_timeout=hard, installed_at=now, last_used_at=now))
        elif op[0] == "lookup":
            __, flow, in_port, dl_dst = op
            found = table.match_five_tuple(flow, in_port=in_port,
                                           dl_dst=dl_dst)
            expected = oracle.match_five_tuple(flow, in_port=in_port,
                                               dl_dst=dl_dst)
            assert (found and found.cookie) == (expected and expected.cookie)
        elif op[0] == "delete":
            __, match, strict, priority, out_port = op
            assert ids(table.delete(match, strict=strict, priority=priority,
                                    out_port=out_port)) \
                == ids(oracle.delete(match, strict=strict, priority=priority,
                                     out_port=out_port))
        elif op[0] == "tick":
            now += op[1]
            due = table.expiry_due(now)
            expected = ids(oracle.expire(now))
            # The deadline bound never hides an expiry ...
            assert due or not expected
            assert ids(table.expire(now)) == expected
        else:  # a flow used some entry: last_used_at moves forward
            for target in (table, oracle):
                entries = target.entries()
                if entries:
                    entries[op[1] % len(entries)].last_used_at = now
        assert ids(table.entries()) == ids(oracle.entries())
    assert table.lookups == table.index_hits + table.scans


def test_a_table_without_timeouts_is_never_swept():
    table = FlowTable()
    for match in _MATCHES:
        table.add(FlowEntry(match=match, priority=300))
    for now in (1.0, 1e3, 1e9):
        assert not table.expiry_due(now) and table.expire(now) == []
    assert (table.expiry_checks, table.expiry_sweeps) == (3, 0)


# ---------------------------------------------------------------------------
# equal_cost_paths against networkx
# ---------------------------------------------------------------------------


def _view(topo):
    network = Network()
    topo.realize(network)
    return TopologyView(network)


def _disconnected_view():
    network = Network()
    for name in ("a1", "a2", "a3", "b1", "b2", "lonely"):
        network.add_switch(name)
    for a, b in (("a1", "a2"), ("a2", "a3"), ("a1", "a3"), ("b1", "b2")):
        network.add_link(a, b)
    return TopologyView(network)


@pytest.mark.parametrize("view", [
    _view(FatTreeTopo(k=4)),
    _view(jellyfish_topo(num_switches=16, ports_per_switch=4, seed=3)),
    _disconnected_view(),
], ids=["fattree", "jellyfish", "disconnected"])
def test_equal_cost_paths_equal_networkx(view):
    graph = view.graph()
    switches = view.switches()
    for src in switches:
        for dst in switches:
            if src == dst:
                expected = [[src]]
            elif nx.has_path(graph, src, dst):
                expected = sorted(nx.all_shortest_paths(graph, src, dst))
            else:
                expected = []
            assert view.equal_cost_paths(src, dst) == expected, (src, dst)
            assert view.equal_cost_links(src, dst) == [
                tuple(zip(path, path[1:])) for path in expected]
    # One BFS per source that was asked about, not one per pair.
    assert view.path_dag_builds == len(switches)
    assert view.equal_cost_paths("nowhere", switches[0]) == []
    assert view.equal_cost_paths(switches[0], "nowhere") == []


# ---------------------------------------------------------------------------
# Malformed input, row by row: what escaped before, the one error now
# ---------------------------------------------------------------------------


def _framed(msg_type, body, xid=1, length=None):
    return struct.pack("!BBHI", 1, msg_type,
                       8 + len(body) if length is None else length, xid) + body


_EXACT = new.Match.exact_five_tuple(_FLOW).encode()
_OUTPUT = new.ActionOutput(3).encode()
_FLOW_MOD_FIXED = struct.pack("!QHHHHIIH2x", 0, 0, 0, 0, 300, 0xFFFFFFFF,
                              0xFFFFFFFF, 0)
_ENTRY_TAIL = struct.pack("!HIQQQ", 300, 1, 2, 3, 4)

#: name -> (bytes, what the reference codec did with them: the exception
#: class that escaped, or None where it decoded them without complaint).
MALFORMED = {
    "short-header": (b"\x01\x00\x00", ref.OFDecodeError),
    "bad-version": (_framed(0, b"")[:0] + b"\x04" + _framed(0, b"")[1:],
                    ref.OFDecodeError),
    "length-below-header": (_framed(0, b"", length=7), ref.OFDecodeError),
    "length-past-buffer": (_framed(0, b"", length=9), ref.OFDecodeError),
    "unknown-type": (_framed(99, b""), ref.OFDecodeError),
    "error-cut": (_framed(1, b"\x00\x01"), struct.error),
    "features-reply-cut": (_framed(6, b"\x00" * 10), struct.error),
    "features-reply-partial-port": (
        _framed(6, b"\x00" * 20 + b"\x00" * 7), None),
    "features-reply-port-name-not-utf8": (
        _framed(6, b"\x00" * 20 + b"\x00\x00\x00\x01" + b"\xff" * 16),
        UnicodeDecodeError),
    "packet-in-cut": (_framed(10, b"\x00" * 5), struct.error),
    "packet-out-cut": (_framed(13, b"\x00" * 5), struct.error),
    "packet-out-actions-past-message": (
        _framed(13, struct.pack("!IIH", 0, 0, 24) + _OUTPUT), None),
    "flow-mod-cut-in-match": (_framed(14, _EXACT[:20]), ValueError),
    "flow-mod-cut-in-fixed": (_framed(14, _EXACT + _FLOW_MOD_FIXED[:9]),
                              struct.error),
    "flow-mod-unknown-command": (
        _framed(14, _EXACT + struct.pack("!QHHHHIIH2x", 0, 9, 0, 0, 300, 0,
                                         0, 0)), ValueError),
    "action-length-below-header": (
        _framed(14, _EXACT + _FLOW_MOD_FIXED + b"\x00\x00\x00\x02" + b"\x00" * 8),
        ValueError),
    "action-length-past-message": (
        _framed(14, _EXACT + _FLOW_MOD_FIXED + b"\x00\x00\x00\x10" + b"\x00" * 8),
        ValueError),
    "action-unknown-type": (
        _framed(14, _EXACT + _FLOW_MOD_FIXED + b"\x00\x63\x00\x08" + b"\x00" * 4),
        ValueError),
    "action-output-wrong-size": (
        _framed(14, _EXACT + _FLOW_MOD_FIXED + b"\x00\x00\x00\x08" + b"\x00" * 4),
        struct.error),
    "action-set-field-short": (
        _framed(14, _EXACT + _FLOW_MOD_FIXED + b"\x00\x04\x00\x08" + b"\x00" * 4),
        ValueError),                      # AddressError is a ValueError
    "action-list-trailing-bytes": (
        _framed(14, _EXACT + _FLOW_MOD_FIXED + _OUTPUT + b"\x00\x00"),
        ValueError),
    "group-mod-cut": (_framed(15, b"\x00\x00\x01"), struct.error),
    "group-mod-unknown-command": (
        _framed(15, struct.pack("!HB1xI", 7, 1, 1)), ValueError),
    "group-mod-unknown-type": (
        _framed(15, struct.pack("!HB1xI", 0, 9, 1)), ValueError),
    "bucket-length-lie": (
        _framed(15, struct.pack("!HB1xI", 0, 1, 1) + b"\x00\x40\x00\x00"),
        ValueError),
    "flow-removed-cut": (_framed(11, _EXACT + b"\x00" * 10), struct.error),
    "flow-removed-trailing-bytes": (
        _framed(11, _EXACT + b"\x00" * 34 + b"\x00"), None),
    "stats-request-unknown-type": (
        _framed(16, b"\x00\x09\x00\x00" + _EXACT), ValueError),
    "stats-request-cut-in-match": (
        _framed(16, b"\x00\x01\x00\x00" + _EXACT[:-1]), ValueError),
    "stats-request-trailing-bytes": (
        _framed(16, b"\x00\x01\x00\x00" + _EXACT + b"\x00"), None),
    "stats-reply-unknown-type": (_framed(17, b"\x00\x09\x00\x00"), ValueError),
    "flow-entry-length-zero": (
        _framed(17, b"\x00\x01\x00\x00" + b"\x00\x00" + _EXACT + _ENTRY_TAIL),
        ref.OFDecodeError),
    "flow-entry-length-past-body": (
        _framed(17, b"\x00\x01\x00\x00" + b"\x01\x00" + _EXACT + _ENTRY_TAIL),
        ref.OFDecodeError),
    "flow-entry-shorter-than-a-match": (
        _framed(17, b"\x00\x01\x00\x00" + b"\x00\x0a" + b"\x00" * 8),
        ValueError),
    "flow-entry-cut-in-counters": (
        _framed(17, b"\x00\x01\x00\x00" + struct.pack("!H", 2 + 36 + 10)
                + _EXACT + _ENTRY_TAIL[:10]), struct.error),
    "flow-entry-with-a-tail": (
        _framed(17, b"\x00\x01\x00\x00" + struct.pack("!H", 2 + 36 + 30 + 4)
                + _EXACT + _ENTRY_TAIL + b"\x00" * 4), None),
    "port-stats-cut-in-entry": (
        _framed(17, b"\x00\x04\x00\x00" + b"\x00" * 20), struct.error),
    "aggregate-reply-cut": (_framed(17, b"\x00\x02\x00\x00" + b"\x00" * 8),
                            struct.error),
    "aggregate-reply-trailing-bytes": (
        _framed(17, b"\x00\x02\x00\x00" + b"\x00" * 25), None),
    "barrier-with-a-body": (_framed(18, b"\x00"), None),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_raises_the_one_error(name):
    wire, before = MALFORMED[name]
    if before is None:
        ref.decode_message(wire)        # the old codec let it through
    else:
        with pytest.raises(before) as old:
            ref.decode_message(wire)
        # ... and, bar the codec's own checks, as something else.
        assert (before is ref.OFDecodeError) == isinstance(
            old.value, ref.OFDecodeError)
    with pytest.raises(OFDecodeError) as raised:
        new.decode_message(wire)
    assert type(raised.value) is OFDecodeError
