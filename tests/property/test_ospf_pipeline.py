"""Property tests: the OSPF LSU pipeline against its pre-PR-14 self.

``ospf_reference`` holds the eager codec and the linear-scan SPF as
they were; the shipped SPF must return the same routes over any LSDB,
and the shipped decoder must meet any bytes with a message or an
``OSPFDecodeError``.  (Codec parity lives with the other codecs in
``test_codec_roundtrips.py``.)
"""

import random

from hypothesis import given, settings, strategies as st

import ospf_reference as ospf_ref
from repro.netproto.addr import IPv4Address, IPv4Prefix
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
