"""Property tests: the OSPF LSU pipeline against its pre-PR-14 self.

``ospf_reference`` holds the eager codec and the linear-scan SPF as
they were; the shipped SPF must return the same routes over any LSDB,
and the shipped decoder must meet any bytes with a message or an
``OSPFDecodeError``.  (Codec parity lives with the other codecs in
``test_codec_roundtrips.py``.)  The daemon's two caches are held to the
same standard at the end: the sender's encoded hello is the reference
encoder's bytes for every heard-set, and no mutant of a tabled hello or
LSU is served from the decode table.  Last, the shipped daemons run
beside ``ospf_reference.ReceivePathReference``, the receive path the
table replaced, through failure scenarios.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import ospf_reference as ospf_ref
from repro.api import control_setup
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.dataplane.network import Network
from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.ospf import packets as packets_module
from repro.ospf.daemon import OSPFConfig, OSPFDaemon, OSPFPeerConfig
from repro.ospf.lsdb import LinkStateDatabase
from repro.ospf.packets import (
    DecodedMessages,
    LSALink,
    LSAPrefix,
    OSPFDecodeError,
    OSPFHello,
    OSPFLinkStateUpdate,
    RouterLSA,
    decode_ospf_message,
)
from repro.ospf.spf import shortest_paths
from repro.scenarios import ScenarioRunner, TopologyRecipe, generate_scenario

# --- SPF ------------------------------------------------------------------

# Router ids 1..10 have a chance of an LSA; 11 and 12 are only ever
# named as neighbors, so links to a router with no LSA occur.  Costs
# from a pool of three make equal-cost paths common.
router_ids = st.integers(min_value=1, max_value=10)
link_st = st.tuples(st.integers(min_value=1, max_value=12),
                    st.sampled_from([1, 2, 3]))
stub_st = st.tuples(st.integers(min_value=0, max_value=5),   # shared /24s
                    st.sampled_from([0, 1, 10]))
lsdb_st = st.dictionaries(
    router_ids,
    st.tuples(st.lists(link_st, max_size=6), st.lists(stub_st, max_size=3)),
    max_size=10)


def build_lsdb(routers, mirror):
    """An LSDB from ``{router: (links, stubs)}``.  Generated links are
    one-way; ``mirror`` adds the reverse of every link whose far end has
    an LSA, at the same cost, so that confirmed adjacencies exist."""
    links = {router: list(spec[0]) for router, spec in routers.items()}
    if mirror:
        for router, spec in routers.items():
            for neighbor, cost in spec[0]:
                if neighbor in links:
                    links[neighbor].append((router, cost))
    lsdb = LinkStateDatabase()
    for router, (__, stubs) in routers.items():
        lsdb.consider(RouterLSA(
            advertising_router=IPv4Address(router), sequence=1,
            links=[LSALink(IPv4Address(n), c) for n, c in links[router]],
            prefixes=[LSAPrefix(IPv4Prefix(f"10.0.{net}.0/24"), c)
                      for net, c in stubs]))
    return lsdb


@given(lsdb_st, st.booleans(), st.integers(min_value=1, max_value=12))
@settings(max_examples=400, deadline=None)
def test_spf_equals_linear_scan_spf(routers, mirror, root):
    """One-way links, neighbors without an LSA, parallel links, equal
    and unequal costs, a root that is absent from the LSDB."""
    lsdb = build_lsdb(routers, mirror)
    new = shortest_paths(lsdb, IPv4Address(root))
    old = ospf_ref.shortest_paths(lsdb, IPv4Address(root))
    assert new.prefix_routes == old.prefix_routes
    assert new.router_distance == old.router_distance


def test_spf_over_decoded_lsas_equals_spf_over_built_ones():
    """The SPF reads an LSA through ``neighbor_costs()``/``prefixes``;
    an LSA that arrived as bytes must give it what the built one does."""
    routers = {1: ([(2, 1), (3, 2)], [(0, 0)]), 2: ([(3, 1)], [(1, 0)]),
               3: ([], [(2, 5), (1, 0)])}
    built = build_lsdb(routers, mirror=True)
    wire = OSPFLinkStateUpdate(IPv4Address(9), built.all_lsas()).encode()
    decoded = LinkStateDatabase()
    for lsa in decode_ospf_message(wire).lsas:
        assert decoded.consider(lsa)
    for root in (1, 2, 3):
        assert (shortest_paths(decoded, IPv4Address(root)).prefix_routes
                == shortest_paths(built, IPv4Address(root)).prefix_routes
                != {})


# --- mutation fuzz ---------------------------------------------------------

FUZZ_CASES = 24_000


def _corpus(rng):
    def address():
        return IPv4Address(rng.getrandbits(32))

    def lsa():
        return RouterLSA(
            advertising_router=address(), sequence=rng.getrandbits(32),
            links=[LSALink(address(), rng.getrandbits(16))
                   for __ in range(rng.randrange(5))],
            prefixes=[LSAPrefix(IPv4Prefix.from_network(rng.getrandbits(32),
                                                        rng.randrange(33)),
                                rng.getrandbits(16))
                      for __ in range(rng.randrange(5))])

    wires = [OSPFHello(address(), neighbors=[address() for __ in range(n)])
             .encode() for n in (0, 1, 4, 9)]
    wires += [OSPFLinkStateUpdate(address(), [lsa() for __ in range(n)])
              .encode() for n in (0, 1, 2, 7)]
    return wires


def _mutate(rng, wire, corpus):
    data = bytearray(wire)
    kind = rng.randrange(6)
    if kind == 0:                                   # truncate
        del data[rng.randrange(len(data) + 1):]
    elif kind == 1:                                 # flip bits
        for __ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    elif kind == 2:                                 # splice two messages
        other = rng.choice(corpus)
        data[rng.randrange(len(data)):] = other[rng.randrange(len(other)):]
    elif kind == 3:                                 # inflate a count
        at = rng.randrange(8, max(9, len(data) - 1))
        data[at:at + 2] = rng.choice((b"\xff\xff", b"\x00\xff", b"\x01\x00"))
    elif kind == 4:                                 # insert noise
        at = rng.randrange(len(data) + 1)
        data[at:at] = rng.randbytes(rng.randint(1, 9))
    else:                                           # overwrite a run
        at = rng.randrange(len(data))
        data[at:at + rng.randint(1, 6)] = rng.randbytes(rng.randint(1, 6))
    if rng.random() < 0.7 and len(data) >= 4:
        # Most mutants get a true length field again, or the header
        # check would shield everything behind it.
        data[2:4] = (len(data) & 0xFFFF).to_bytes(2, "big")
    return bytes(data)


def test_mutation_fuzz_raises_only_decode_errors():
    rng = random.Random(0x05BF)
    corpus = _corpus(rng)
    decoded = rejected = 0
    for __ in range(FUZZ_CASES):
        mutant = _mutate(rng, rng.choice(corpus), corpus)
        try:
            message = decode_ospf_message(mutant)
        except OSPFDecodeError:
            rejected += 1
            continue
        decoded += 1
        # What decodes must also be readable to the end and re-encode.
        if isinstance(message, OSPFLinkStateUpdate):
            for lsa in message.lsas:
                assert len(lsa.links) == len(lsa.neighbor_costs())
                assert all(stub.prefix.length <= 32 for stub in lsa.prefixes)
        else:
            assert len(message.neighbors) == len(message.neighbor_ids)
        assert message.encode() == mutant
    # Both outcomes are well represented, or the fuzz tests nothing.
    assert rejected > FUZZ_CASES // 4 and decoded > FUZZ_CASES // 20


# --- the hello encoding and the decode table ----------------------------------

# A hello that says nothing new is encoded once by its sender, and a
# wire is decoded once by the daemons that share a table.  Neither
# cache may be observable: the wire is the reference encoder's for
# every heard-set, and bytes that are not a tabled wire meet the
# decoder as they always did.

HELLO, DEAD = 0.5, 2.0


def _wire_star(leaves=2):
    """``r1`` adjacent to ``r2``…; returns (sim, daemons, channels)."""
    sim = Simulation(SimulationConfig())
    net = Network()
    sim.attach_network(net)
    names = [f"r{n}" for n in range(1, leaves + 2)]
    daemons = {}
    for n, name in enumerate(names, start=1):
        net.add_router(name, router_id=f"{n}.{n}.{n}.{n}")
        daemons[name] = OSPFDaemon(name, OSPFConfig(
            router_id=IPv4Address(f"{n}.{n}.{n}.{n}"),
            networks=[(IPv4Prefix(f"10.{n}.0.0/24"), 0)],
            hello_interval=HELLO, dead_interval=DEAD))
    channels = {}
    hub = daemons["r1"]
    for port, name in enumerate(names[1:], start=1):
        net.add_link("r1", name)
        leaf = daemons[name]
        channel = channels[name] = sim.cm.open_channel(hub, leaf,
                                                       latency=0.001)
        hub.add_neighbor(OSPFPeerConfig(
            peer_name=name, peer_router_id=leaf.config.router_id,
            local_port=port,
            peer_address=IPv4Address(f"172.16.{port}.2")), channel)
        leaf.add_neighbor(OSPFPeerConfig(
            peer_name="r1", peer_router_id=hub.config.router_id,
            local_port=1,
            peer_address=IPv4Address(f"172.16.{port}.1")), channel)
    for daemon in daemons.values():
        sim.add_process(daemon)
    return sim, daemons, channels


def _count_decodes(monkeypatch):
    calls = []

    def counting(data):
        calls.append(data)
        return decode_ospf_message(data)

    monkeypatch.setattr(packets_module, "decode_ospf_message", counting)
    return calls


def test_cached_hello_wire_is_the_reference_encoding_for_every_heard_set():
    sim, daemons, channels = _wire_star()
    by_router_id = {int(d.config.router_id): d for d in daemons.values()}
    heard_sets = {name: [] for name in daemons}
    hellos = [0]

    def check(channel, receiver, data):
        if data[1] != 1:  # not a hello
            return
        sender = by_router_id[int.from_bytes(data[4:8], "big")]
        heard = [state.config.peer_router_id
                 for state in sender.neighbors.values() if state.heard]
        assert data == ospf_ref.OSPFHello(
            sender.config.router_id, HELLO, DEAD, heard).encode()
        seen = heard_sets[sender.router_name]
        if not seen or seen[-1] != heard:
            seen.append(heard)
        hellos[0] += 1

    sim.cm.add_observer(check)
    sim.run(until=3.0)
    assert daemons["r1"].full_neighbors() == ["r2", "r3"]
    channels["r3"].close()            # adjacency down after DEAD …
    sim.run(until=7.0)
    assert daemons["r1"].full_neighbors() == ["r2"]
    channels["r3"].reopen()           # … and up again
    sim.run(until=10.0)
    assert daemons["r1"].full_neighbors() == ["r2", "r3"]
    two, three = (daemons[name].config.router_id for name in ("r2", "r3"))
    # The hub's hello went through every heard-set of the story.
    assert heard_sets["r1"][-3:] == [[two, three], [two], [two, three]]
    assert heard_sets["r1"][0] == []
    assert hellos[0] > 60


def test_a_steady_hello_is_decoded_once(monkeypatch):
    calls = _count_decodes(monkeypatch)
    sim, daemons, __ = _wire_star(leaves=1)
    sim.run(until=3.0)
    hello_decodes = sum(1 for data in calls if data[1] == 1)
    calls.clear()
    before = {name: d.neighbors[peer].last_heard
              for name, peer, d in (("r1", "r2", daemons["r1"]),
                                    ("r2", "r1", daemons["r2"]))}
    sent = sum(d.hellos_sent for d in daemons.values())
    sim.run(until=30.0)
    # 108 more hellos delivered, none decoded; the dead timer saw them.
    assert sum(d.hellos_sent for d in daemons.values()) - sent == 108
    assert calls == [] and 0 < hello_decodes <= 6
    assert all(d.neighbors[peer].last_heard > before[name] + 26.0
               for name, peer, d in (("r1", "r2", daemons["r1"]),
                                     ("r2", "r1", daemons["r2"])))
    assert all(d.decode_errors == 0 for d in daemons.values())


def _mutants(wire):
    """Every single-byte mutation and every truncation of ``wire``."""
    for at in range(len(wire)):
        for value in range(256):
            if value != wire[at]:
                yield wire[:at] + bytes([value]) + wire[at + 1:]
    for length in range(len(wire)):
        yield wire[:length]


def _decodes(data):
    try:
        decode_ospf_message(data)
    except OSPFDecodeError:
        return False
    return True


def _assert_no_mutant_rides_the_table(daemon, channel, wire):
    """Deliver every mutant of ``wire``, a tabled wire, to ``daemon``:
    garbage leaves the table as it was, LSA extents included, and what
    decodes is decoded, not served from the table.  An LSA of a mutant
    is the tabled one only where its extent is a tabled extent.
    Returns the garbage."""
    table = daemon.decoded._by_wire
    extents = daemon.decoded._lsas
    message = table[wire]
    mutants = list(_mutants(wire))
    garbage = [m for m in mutants if not _decodes(m)]
    before = dict(table)
    lsas_before = dict(extents)
    errors = daemon.decode_errors
    for mutant in garbage:
        daemon.receive(channel, mutant, None)
    assert daemon.decode_errors == errors + len(garbage)
    assert table == before and table[wire] is message
    assert extents.keys() == lsas_before.keys()
    assert all(extents[extent] is lsa for extent, lsa in lsas_before.items())
    for mutant in (m for m in mutants if _decodes(m)):
        assert mutant not in table
        kept = dict(extents)
        errors = daemon.decode_errors
        daemon.receive(channel, mutant, None)
        assert daemon.decode_errors == errors
        fresh = decode_ospf_message(mutant)
        assert table[mutant].encode() == fresh.encode() == mutant
        if isinstance(fresh, OSPFHello):
            assert table[mutant].neighbor_ids == fresh.neighbor_ids
        else:
            for lsa, own in zip(table[mutant].lsas, fresh.lsas):
                extent = own.encode()
                assert lsa.encode() == extent
                if extent in kept:
                    assert lsa is kept[extent]
                else:
                    assert all(lsa is not other for other in kept.values())
        assert len(table) <= DecodedMessages.BOUND
        assert len(extents) <= DecodedMessages.LSA_BOUND
    return garbage


def test_no_mutant_of_a_cached_hello_rides_the_cache():
    sim, daemons, channels = _wire_star(leaves=1)
    d1, d2 = daemons["r1"], daemons["r2"]
    channel = channels["r2"]
    sim.run(until=3.0)
    state = d1.neighbors["r2"]
    table = d1.decoded._by_wire
    wire = d2._hello_wire
    assert wire in table                                # a tabled hello
    message = table[wire]
    mutants = list(_mutants(wire))
    garbage = [m for m in mutants if not _decodes(m)]
    # Version, type, length and count bytes and every truncation are
    # fatal; a changed id or interval is a different, valid hello.
    assert len(garbage) >= 5 * 255 + len(wire)
    assert len(garbage) < len(mutants)

    # r2 falls silent at t=3; a second later all the garbage arrives.
    d2.neighbors["r1"].channel = None
    silent_since = state.last_heard
    before = dict(table)
    sim.scheduler.after(1.0, lambda: [channel.send(d2, m) for m in garbage])
    sim.run(until=4.5)
    assert d1.decode_errors == len(garbage)
    assert state.last_heard == silent_since
    assert table == before and table[wire] is message
    assert d1.full_neighbors() == ["r2"]
    sim.run(until=silent_since + DEAD + DEAD / 2 + 0.01)  # next dead check
    assert d1.full_neighbors() == []

    # What does decode is handled as a hello in its own right — and is
    # decoded, not assumed: its bytes differ from the tabled ones.
    _assert_no_mutant_rides_the_table(d1, channel, wire)


def test_no_mutant_of_a_tabled_lsu_rides_the_table():
    sim, daemons, channels = _wire_star(leaves=1)
    d1 = daemons["r1"]
    sim.run(until=3.0)
    # The largest LSU r2 sent r1 while the adjacency came up.
    wire = max((data for data in d1.decoded._by_wire if data[1] == 4),
               key=len)
    assert len(decode_ospf_message(wire).lsas) >= 1
    # Its LSAs are tabled by their extents.
    assert all(d1.decoded._lsas[lsa.encode()] is lsa
               for lsa in d1.decoded._by_wire[wire].lsas)
    garbage = _assert_no_mutant_rides_the_table(d1, channels["r2"], wire)
    # Count, length and prefix-length bytes and every truncation.
    assert len(garbage) >= 4 * 255 + len(wire)


def test_a_byte_identical_hello_still_runs_the_two_way_logic(monkeypatch):
    sim, daemons, __ = _wire_star(leaves=1)
    d1, d2 = daemons["r1"], daemons["r2"]
    sim.run(until=3.0)
    state = d1.neighbors["r2"]
    table = d1.decoded._by_wire
    wire = d2._hello_wire
    message = table[wire]
    d1.neighbor_down("r2")            # heard and full are false now
    assert not state.heard and not state.full
    sequence = d1.lsdb.get(d1.config.router_id).sequence
    hellos_sent = d1.hellos_sent
    calls = _count_decodes(monkeypatch)
    sim.run(until=3.0 + HELLO + 0.002)   # r2's next hello: same bytes
    assert d2._hello_wire == wire and table[wire] is message
    assert not [data for data in calls if data[1] == 1
                and data[4:8] == wire[4:8]]          # a table hit …
    assert state.heard and state.full                # … that did its work:
    assert d1.lsdb.get(d1.config.router_id).sequence == sequence + 1
    assert d1.hellos_sent > hellos_sent + 1          # answered at once
    assert d1.full_neighbors() == ["r2"]


# --- the decode table against the receive path it replaced ------------------

# The same scenario is materialized twice: once with the shipped daemons,
# which share one decode table, and once with daemons that decode every
# delivery themselves.  Run in steps, the two must agree on every wire
# byte, LSDB, FIB and FIB operation after each step.

STEP = 0.5


def _fabric(topology):
    if topology == "fattree":
        return TopologyRecipe("fattree", {"k": 4, "device": "router"})
    return TopologyRecipe("wan", {})


def _materialize(spec, monkeypatch, daemon_class):
    with monkeypatch.context() as patch:
        patch.setattr(control_setup, "OSPFDaemon", daemon_class)
        exp, __ = ScenarioRunner().materialize(spec)
    wire = []
    exp.sim.cm.add_observer(
        lambda channel, receiver, data: wire.append(
            (channel.label, receiver.name, data)))
    return exp, wire


def _fibs(exp):
    return {name: [(str(entry.prefix), entry.next_hops)
                   for entry in exp.network.get_node(name).fib.entries()]
            for name in exp.ospf_daemons}


def _run_beside_the_reference(spec, monkeypatch):
    shipped, shipped_wire = _materialize(spec, monkeypatch, OSPFDaemon)
    reference, reference_wire = _materialize(
        spec, monkeypatch, ospf_ref.ReceivePathReference)
    tables = {daemon.decoded for daemon in shipped.ospf_daemons.values()}
    assert len(tables) == 1                      # one per experiment
    shared = tables.pop()
    table, extents = shared._by_wire, shared._lsas
    peak = [0, 0]
    calls = _count_decodes(monkeypatch)
    decodes = {"shipped": 0, "reference": 0}
    steps = int(spec.duration / STEP)
    for step in range(1, steps + 1):
        until = step * STEP
        for side, exp in (("shipped", shipped), ("reference", reference)):
            calls.clear()
            exp.sim.run(until=until)
            decodes[side] += len(calls)
        assert shipped_wire == reference_wire, until
        for name, daemon in shipped.ospf_daemons.items():
            twin = reference.ospf_daemons[name]
            assert daemon.lsdb.all_lsas() == twin.lsdb.all_lsas(), until
            assert daemon.full_neighbors() == twin.full_neighbors(), until
        assert _fibs(shipped) == _fibs(reference), until
        assert (shipped.sim.cm.stats()["route_installs"]
                == reference.sim.cm.stats()["route_installs"]), until
        assert len(table) <= DecodedMessages.BOUND
        assert len(extents) <= DecodedMessages.LSA_BOUND
        peak = [max(peak[0], len(table)), max(peak[1], len(extents))]
    # Flooded wires reached more than one daemon through the table.
    assert 0 < decodes["shipped"] < decodes["reference"]
    return shipped, reference, peak


PATTERN_CASES = [(topology, pattern)
                 for topology in ("fattree", "wan")
                 for pattern in ("k-random-links", "rolling-maintenance")]


@pytest.mark.parametrize("topology,pattern", PATTERN_CASES)
def test_the_table_changes_nothing_a_run_does(topology, pattern, monkeypatch):
    spec = generate_scenario(3, pattern=pattern, topology=_fabric(topology),
                             duration=30.0)
    shipped, reference, __ = _run_beside_the_reference(spec, monkeypatch)
    ours = ScenarioRunner._diagnostics(shipped)["ospf"]
    theirs = ScenarioRunner._diagnostics(reference)["ospf"]
    # Every counter but one agrees; a body is parsed once per
    # experiment, not once per LSDB.
    assert ours["lsa_bodies_parsed"] < theirs["lsa_bodies_parsed"]
    assert ({**ours, "lsa_bodies_parsed": 0}
            == {**theirs, "lsa_bodies_parsed": 0})
    # The LSDBs that hold one received advertisement hold one object,
    # whichever router's LSU brought it; each originator keeps the one
    # it built.  The reference's LSDBs hold one object per entry.
    entries = sum(len(d.lsdb) for d in reference.ospf_daemons.values())
    assert _distinct_lsas(reference) == entries
    received = [lsa for daemon in shipped.ospf_daemons.values()
                for lsa in daemon.lsdb.all_lsas()
                if lsa.originator != daemon._router_id]
    extents = {lsa.encode() for lsa in received}
    assert len({id(lsa) for lsa in received}) == len(extents)
    assert _distinct_lsas(shipped) == len(extents) + len(
        shipped.ospf_daemons) < entries


def _distinct_lsas(exp):
    return len({id(lsa) for daemon in exp.ospf_daemons.values()
                for lsa in daemon.lsdb.all_lsas()})


def test_a_table_that_fills_and_empties_changes_nothing(monkeypatch):
    monkeypatch.setattr(DecodedMessages, "BOUND", 16)
    monkeypatch.setattr(DecodedMessages, "LSA_BOUND", 8)
    spec = generate_scenario(4, pattern="rolling-maintenance",
                             topology=_fabric("fattree"), duration=30.0)
    shipped, __, peak = _run_beside_the_reference(spec, monkeypatch)
    # 20 routers' hellos alone overfill 16 entries, and their LSAs 8:
    # each kind emptied again and again, never grew past its bound, and
    # nothing moved.
    assert peak == [16, 8]
