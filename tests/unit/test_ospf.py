"""Unit tests: OSPF-lite packets, LSDB, SPF and daemon behaviour."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.errors import ConfigurationError
from repro.core.simulation import Simulation
from repro.dataplane.network import Network
from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.ospf.daemon import OSPFConfig, OSPFDaemon, OSPFPeerConfig
from repro.ospf.lsdb import LinkStateDatabase
from repro.ospf.packets import (
    LSALink,
    LSAPrefix,
    OSPFDecodeError,
    OSPFHello,
    OSPFLinkStateUpdate,
    RouterLSA,
    decode_ospf_message,
)
from repro.ospf.spf import shortest_paths


def rid(text):
    return IPv4Address(text)


def lsa(router, seq, links=(), prefixes=()):
    return RouterLSA(
        advertising_router=rid(router),
        sequence=seq,
        links=tuple(LSALink(neighbor_id=rid(n), cost=c) for n, c in links),
        prefixes=tuple(LSAPrefix(prefix=IPv4Prefix(p), cost=c)
                       for p, c in prefixes),
    )


class TestPackets:
    def test_hello_roundtrip(self):
        hello = OSPFHello(router_id=rid("1.1.1.1"), hello_interval=2.5,
                          dead_interval=10.0,
                          neighbors=[rid("2.2.2.2"), rid("3.3.3.3")])
        decoded = decode_ospf_message(hello.encode())
        assert decoded.router_id == rid("1.1.1.1")
        assert decoded.hello_interval == pytest.approx(2.5)
        assert decoded.neighbors == hello.neighbors

    def test_lsu_roundtrip(self):
        update = OSPFLinkStateUpdate(
            router_id=rid("1.1.1.1"),
            lsas=[
                lsa("1.1.1.1", 3, links=[("2.2.2.2", 1)],
                    prefixes=[("10.1.0.0/24", 0)]),
                lsa("2.2.2.2", 7, links=[("1.1.1.1", 4)]),
            ],
        )
        decoded = decode_ospf_message(update.encode())
        assert len(decoded.lsas) == 2
        assert decoded.lsas[0].sequence == 3
        assert decoded.lsas[0].prefixes[0].prefix == IPv4Prefix("10.1.0.0/24")
        assert decoded.lsas[1].links[0].cost == 4

    def test_bad_version_rejected(self):
        wire = bytearray(OSPFHello(router_id=rid("1.1.1.1")).encode())
        wire[0] = 9
        with pytest.raises(OSPFDecodeError):
            decode_ospf_message(bytes(wire))

    def test_bad_length_rejected(self):
        wire = OSPFHello(router_id=rid("1.1.1.1")).encode()
        with pytest.raises(OSPFDecodeError):
            decode_ospf_message(wire + b"x")

    def test_newer_than(self):
        assert lsa("1.1.1.1", 5).newer_than(lsa("1.1.1.1", 4))
        assert not lsa("1.1.1.1", 4).newer_than(lsa("1.1.1.1", 4))

    def test_decoded_lsa_is_header_first(self):
        sent = lsa("2.2.2.2", 7, links=[("1.1.1.1", 4)],
                   prefixes=[("10.2.0.0/24", 3)])
        update = OSPFLinkStateUpdate(router_id=rid("1.1.1.1"), lsas=[sent])
        (got,) = decode_ospf_message(update.encode()).lsas
        assert (got.originator, got.sequence) == (int(rid("2.2.2.2")), 7)
        assert not got.body_parsed          # newness needs no body
        assert got.encode() == sent.encode()  # re-flooded as it arrived
        assert not got.body_parsed
        assert got.neighbor_costs() == ((int(rid("1.1.1.1")), 4),)
        assert got.body_parsed
        assert got == sent and hash(got) == hash(sent)
        assert got.advertising_router == rid("2.2.2.2")

    def test_dirty_host_bits_are_masked_on_read_and_kept_on_the_wire(self):
        clean = OSPFLinkStateUpdate(
            router_id=rid("1.1.1.1"),
            lsas=[lsa("2.2.2.2", 1, prefixes=[("10.2.0.0/16", 0)])]).encode()
        dirty = bytearray(clean)
        dirty[-5] = 0x63                       # 10.2.0.99/16
        (got,) = decode_ospf_message(bytes(dirty)).lsas
        assert got.prefixes[0].prefix == IPv4Prefix("10.2.0.0/16")
        assert got.encode() == bytes(dirty[10:])


def _lsu_wire():
    return OSPFLinkStateUpdate(
        router_id=rid("1.1.1.1"),
        lsas=[lsa("1.1.1.1", 3, links=[("2.2.2.2", 1)],
                  prefixes=[("10.1.0.0/24", 0)]),
              lsa("2.2.2.2", 7, links=[("1.1.1.1", 4)])]).encode()


def _hello_wire():
    return OSPFHello(router_id=rid("1.1.1.1"),
                     neighbors=[rid("2.2.2.2"), rid("3.3.3.3")]).encode()


def _relength(wire):
    """``wire`` with its header length field made true again."""
    return wire[:2] + len(wire).to_bytes(2, "big") + wire[4:]


def _patched(wire, at, value):
    out = bytearray(wire)
    out[at:at + len(value)] = value
    return bytes(out)


# header 8 | LSU count 2 | LSA fixed 12 (n_links at +8, n_prefixes at +10)
MALFORMED = {
    "empty": b"",
    "truncated header": _hello_wire()[:5],
    "hello cut inside the fixed part": _relength(_hello_wire()[:11]),
    "hello cut inside a neighbor": _relength(_hello_wire()[:-2]),
    "hello count past the buffer": _patched(_hello_wire(), 12, b"\x00\x09"),
    "hello trailing bytes": _relength(_hello_wire() + b"\x00" * 4),
    "lsu without a count": _relength(_lsu_wire()[:9]),
    "lsu cut inside an LSA header": _relength(_lsu_wire()[:15]),
    "lsu cut inside an LSA body": _relength(_lsu_wire()[:-3]),
    "lsu count past the buffer": _patched(_lsu_wire(), 8, b"\x00\x03"),
    "lsa link count past the buffer": _patched(_lsu_wire(), 18, b"\xff\xff"),
    "lsa prefix count past the buffer": _patched(_lsu_wire(), 20, b"\x0f\x00"),
    "lsu trailing bytes": _relength(_lsu_wire() + b"\x00"),
    "prefix length 99": _patched(_lsu_wire(), 10 + 12 + 6 + 4, b"\x63"),
    "unknown type": _patched(_hello_wire(), 1, b"\x07"),
}


class TestMalformedInput:
    """Whatever the bytes, the decoder's only exception is its own."""

    def test_fixtures_are_well_formed_before_the_damage(self):
        assert len(decode_ospf_message(_lsu_wire()).lsas) == 2
        assert len(decode_ospf_message(_hello_wire()).neighbors) == 2

    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_rejected_with_decode_error(self, shape):
        with pytest.raises(OSPFDecodeError):
            decode_ospf_message(MALFORMED[shape])


class TestLSDB:
    def test_consider_accepts_newer_only(self):
        db = LinkStateDatabase()
        assert db.consider(lsa("1.1.1.1", 1))
        assert not db.consider(lsa("1.1.1.1", 1))
        assert db.consider(lsa("1.1.1.1", 2))
        assert len(db) == 1
        assert db.get(rid("1.1.1.1")).sequence == 2

    def test_version_bumps(self):
        db = LinkStateDatabase()
        v0 = db.version
        db.consider(lsa("1.1.1.1", 1))
        assert db.version > v0

    def test_remove(self):
        db = LinkStateDatabase()
        db.consider(lsa("1.1.1.1", 1))
        assert db.remove(rid("1.1.1.1"))
        assert not db.remove(rid("1.1.1.1"))

    def test_all_lsas_ordered(self):
        db = LinkStateDatabase()
        db.consider(lsa("2.2.2.2", 1))
        db.consider(lsa("1.1.1.1", 1))
        routers = [str(entry.advertising_router) for entry in db.all_lsas()]
        assert routers == ["1.1.1.1", "2.2.2.2"]


class TestSPF:
    def build_triangle(self, w12=1, w23=1, w13=1):
        """1 -- 2 -- 3 with a direct 1--3 edge; prefix on 3."""
        db = LinkStateDatabase()
        db.consider(lsa("0.0.0.1", 1,
                        links=[("0.0.0.2", w12), ("0.0.0.3", w13)]))
        db.consider(lsa("0.0.0.2", 1,
                        links=[("0.0.0.1", w12), ("0.0.0.3", w23)]))
        db.consider(lsa("0.0.0.3", 1,
                        links=[("0.0.0.2", w23), ("0.0.0.1", w13)],
                        prefixes=[("10.3.0.0/24", 0)]))
        return db

    def test_direct_path_preferred(self):
        db = self.build_triangle()
        result = shortest_paths(db, rid("0.0.0.1"))
        cost, hops = result.prefix_routes[IPv4Prefix("10.3.0.0/24")]
        assert cost == 1
        assert hops == {int(rid("0.0.0.3"))}

    def test_detour_when_direct_expensive(self):
        db = self.build_triangle(w13=10)
        result = shortest_paths(db, rid("0.0.0.1"))
        cost, hops = result.prefix_routes[IPv4Prefix("10.3.0.0/24")]
        assert cost == 2
        assert hops == {int(rid("0.0.0.2"))}

    def test_ecmp_when_equal(self):
        db = self.build_triangle(w13=2)  # direct = 2, via 2 = 2
        result = shortest_paths(db, rid("0.0.0.1"))
        __, hops = result.prefix_routes[IPv4Prefix("10.3.0.0/24")]
        assert hops == {int(rid("0.0.0.2")), int(rid("0.0.0.3"))}

    def test_unidirectional_link_unused(self):
        db = LinkStateDatabase()
        db.consider(lsa("0.0.0.1", 1, links=[("0.0.0.2", 1)]))
        # router 2 does NOT list router 1 back
        db.consider(lsa("0.0.0.2", 1, prefixes=[("10.2.0.0/24", 0)]))
        result = shortest_paths(db, rid("0.0.0.1"))
        assert IPv4Prefix("10.2.0.0/24") not in result.prefix_routes

    def test_own_prefixes_excluded(self):
        db = LinkStateDatabase()
        db.consider(lsa("0.0.0.1", 1, prefixes=[("10.1.0.0/24", 0)]))
        result = shortest_paths(db, rid("0.0.0.1"))
        assert result.prefix_routes == {}


class TestTimersAreCheckedWhereTheyAreConfigured:
    """A timer the wire cannot carry, the scheduler cannot arm or the
    adjacency cannot survive is a ``ConfigurationError`` from
    ``OSPFConfig`` — it used to be a ``struct.error`` at the first
    hello, a ``SchedulingError`` at ``start`` and, for a dead interval
    no longer than the hello interval, a run that never converged and
    said nothing."""

    @staticmethod
    def config(**timers):
        return OSPFConfig(router_id=rid("1.1.1.1"), **timers)

    @pytest.mark.parametrize("name", ["hello_interval", "dead_interval"])
    @pytest.mark.parametrize("value", [0, -1, -0.5, 6553.6, 7000,
                                       float("nan"), float("inf"), "2"])
    def test_out_of_range(self, name, value):
        with pytest.raises(ConfigurationError) as excinfo:
            self.config(**{name: value})
        message = str(excinfo.value)
        assert repr(name) in message and "accepted: a positive" in message
        assert "6553.6" in message

    @pytest.mark.parametrize("hello, dead", [(2.0, 2.0), (2.0, 1.0),
                                             (1.0, 0.5)])
    def test_dead_must_exceed_hello(self, hello, dead):
        with pytest.raises(ConfigurationError) as excinfo:
            self.config(hello_interval=hello, dead_interval=dead)
        message = str(excinfo.value)
        assert "'dead_interval'" in message and "'hello_interval'" in message
        assert "accepted: dead_interval > hello_interval" in message

    def test_the_edges_of_the_range_are_accepted_and_fit_the_wire(self):
        config = self.config(hello_interval=0.05, dead_interval=6553.5)
        wire = OSPFHello(config.router_id, config.hello_interval,
                         config.dead_interval).encode()
        decoded = decode_ospf_message(wire)
        assert (decoded.hello_interval, decoded.dead_interval) == (0.0, 6553.5)
        self.config()                       # the defaults
        self.config(hello_interval=1, dead_interval=4)   # integers too


def wire_pair(hello=0.5, dead=2.0):
    """Two routers with OSPF daemons; returns (sim, net, d1, d2, channel)."""
    sim = Simulation(SimulationConfig())
    net = Network()
    sim.attach_network(net)
    net.add_router("r1", router_id="1.1.1.1")
    net.add_router("r2", router_id="2.2.2.2")
    net.add_link("r1", "r2")
    d1 = OSPFDaemon("r1", OSPFConfig(
        router_id=rid("1.1.1.1"),
        networks=[(IPv4Prefix("10.1.0.0/24"), 0)],
        hello_interval=hello, dead_interval=dead))
    d2 = OSPFDaemon("r2", OSPFConfig(
        router_id=rid("2.2.2.2"),
        networks=[(IPv4Prefix("10.2.0.0/24"), 0)],
        hello_interval=hello, dead_interval=dead))
    channel = sim.cm.open_channel(d1, d2, latency=0.001)
    d1.add_neighbor(OSPFPeerConfig(
        peer_name="r2", peer_router_id=rid("2.2.2.2"), local_port=1,
        peer_address=IPv4Address("172.16.0.2")), channel)
    d2.add_neighbor(OSPFPeerConfig(
        peer_name="r1", peer_router_id=rid("1.1.1.1"), local_port=1,
        peer_address=IPv4Address("172.16.0.1")), channel)
    sim.add_process(d1)
    sim.add_process(d2)
    return sim, net, d1, d2, channel


class TestDaemon:
    def test_adjacency_and_routes(self):
        sim, net, d1, d2, __ = wire_pair()
        sim.run(until=3.0)
        assert d1.full_neighbors() == ["r2"]
        assert d2.full_neighbors() == ["r1"]
        entry = net.get_node("r1").fib.lookup("10.2.0.9")
        assert entry is not None
        assert entry.next_hops[0].gateway == IPv4Address("172.16.0.2")

    def test_lsdb_synchronised(self):
        sim, net, d1, d2, __ = wire_pair()
        sim.run(until=3.0)
        assert len(d1.lsdb) == 2
        assert len(d2.lsdb) == 2

    def test_dead_interval_tears_down(self):
        sim, net, d1, d2, channel = wire_pair(hello=0.5, dead=2.0)
        sim.run(until=3.0)
        channel.close()
        sim.run(until=10.0)
        assert d1.full_neighbors() == []
        assert net.get_node("r1").fib.lookup("10.2.0.9") is None

    def test_spf_debounced(self):
        sim, net, d1, d2, __ = wire_pair()
        sim.run(until=3.0)
        # Convergence needs only a few SPF runs despite many LSA events.
        assert d1.spf_runs <= 4

    def test_garbage_is_dropped_counted_and_keeps_nothing_alive(self):
        sim, net, d1, d2, channel = wire_pair(hello=0.5, dead=2.0)
        sim.run(until=3.0)
        assert d1.full_neighbors() == ["r2"]
        # r2 falls silent at t=3 except for one malformed packet of
        # every shape a second later.  None may unwind the run, and
        # none may count as having heard from r2: the adjacency dies on
        # the first dead check after 3 + dead_interval, as if nothing
        # had been sent.
        d2.neighbors["r1"].channel = None
        silent_since = d1.neighbors["r2"].last_heard
        sim.scheduler.after(1.0, lambda: [
            channel.send(d2, wire) for wire in MALFORMED.values()])
        sim.run(until=4.5)
        assert d1.decode_errors == len(MALFORMED)
        assert d1.neighbors["r2"].last_heard == silent_since
        assert d1.full_neighbors() == ["r2"]
        sim.run(until=silent_since + 2.0 + 1.01)   # next dead check
        assert d1.full_neighbors() == []
        assert net.get_node("r1").fib.lookup("10.2.0.9") is None

    def test_neighbor_down_reoriginates(self):
        sim, net, d1, d2, __ = wire_pair()
        sim.run(until=3.0)
        seq_before = d1.lsdb.get(rid("1.1.1.1")).sequence
        d1.neighbor_down("r2")
        sim.run(until=4.0)
        assert d1.lsdb.get(rid("1.1.1.1")).sequence > seq_before
