"""Property tests: the FIB against a brute-force model.

Random install / withdraw / replace / clear sequences, with next hops
given in every accepted form — ``NextHop`` objects, ``(port, gateway)``
tuples whose gateway is an ``IPv4Address``, a dotted-quad string or
``None``, and 2-element lists.  After every step the FIB must agree with
a dict model: longest-prefix lookups with brute-force LPM, exact gets,
size and ``entries()`` order, one version bump per mutation, next hops
equal to a from-scratch normalization, and an entry unaffected by
whatever the caller does to its hop list afterwards.
"""

from hypothesis import given, settings, strategies as st

from repro.dataplane.fib import FIB, NextHop
from repro.netproto.addr import IPv4Address, IPv4Prefix

# Few networks, lengths, ports and gateways, so that replacements,
# withdrawals and repeated next-hop sets all happen.
NETWORKS = [0x0A000000, 0x0A010000, 0x0A010200, 0x0A010203, 0xAC100001]
GATEWAYS = ["192.168.0.1", "192.168.0.2", "192.168.0.3"]

prefixes = st.builds(IPv4Prefix.from_network, st.sampled_from(NETWORKS),
                     st.sampled_from([0, 8, 16, 24, 31, 32]))
gateways = st.sampled_from([None] + GATEWAYS).flatmap(
    lambda text: st.just(None) if text is None
    else st.sampled_from([text, IPv4Address(text)]))
ports = st.integers(min_value=1, max_value=4)


@st.composite
def hops(draw):
    port, gateway = draw(ports), draw(gateways)
    form = draw(st.sampled_from(["nexthop", "tuple", "list"]))
    if form == "nexthop":
        return NextHop(port=port, gateway=None if gateway is None
                       else IPv4Address(gateway))
    return (port, gateway) if form == "tuple" else [port, gateway]


hop_lists = st.lists(hops(), min_size=1, max_size=4)
ops = st.one_of(
    st.tuples(st.just("install"), prefixes, hop_lists),
    st.tuples(st.just("withdraw"), prefixes, st.none()),
    st.tuples(st.just("replace"), st.none(), hop_lists),
    st.tuples(st.just("clear"), st.none(), st.none()),
)
probes = st.lists(st.sampled_from(NETWORKS) | st.integers(0, 0xFFFFFFFF),
                  min_size=1, max_size=5)


def reference_hops(next_hops):
    """From-scratch normalization: NextHops, port- then gateway-sorted."""
    built = []
    for hop in next_hops:
        if isinstance(hop, NextHop):
            built.append(hop)
        else:
            port, gateway = hop
            built.append(NextHop(port=port, gateway=None if gateway is None
                                 else IPv4Address(gateway)))
    return tuple(sorted(built, key=lambda h: (
        h.port, 0 if h.gateway is None else int(h.gateway))))


def brute_force_lpm(model, address):
    best = None
    for prefix in model:
        if prefix.contains(address) and (best is None or prefix.length > best.length):
            best = prefix
    return best


def assert_agrees(fib, model, addresses):
    for address in addresses:
        expected = brute_force_lpm(model, address)
        for form in (address, IPv4Address(address), str(IPv4Address(address))):
            entry = fib.lookup(form)
            if expected is None:
                assert entry is None
            else:
                assert entry.prefix == expected
                assert entry.next_hops == model[expected]
    for prefix, next_hops in model.items():
        entry = fib.get(prefix)
        assert entry.prefix == prefix
        assert entry.next_hops == next_hops
        assert isinstance(entry.next_hops, tuple)
        assert [h.port for h in next_hops] == sorted(h.port for h in next_hops)
    assert len(fib) == len(model)
    assert [e.prefix for e in fib.entries()] == sorted(model, key=IPv4Prefix.key)


@given(st.lists(ops, max_size=30), probes, st.data())
@settings(max_examples=150, deadline=None)
def test_fib_matches_brute_force_model(sequence, addresses, data):
    fib = FIB()
    model = {}
    for op, prefix, next_hops in sequence:
        version = fib.version
        if op == "replace":
            if not model:
                continue
            prefix = data.draw(st.sampled_from(sorted(model, key=IPv4Prefix.key)))
            op = "install"
        if op == "install":
            expected = reference_hops(next_hops)
            entry = fib.install(prefix, next_hops)
            model[prefix] = expected
            assert entry.next_hops == expected
            assert fib.version == version + 1
            # Whatever the caller does to its list afterwards stays out.
            for hop in next_hops:
                if isinstance(hop, list):
                    hop[0] += 10
                    hop[1] = None
            next_hops.append((99, None))
            assert fib.get(prefix).next_hops == expected
        elif op == "withdraw":
            present = prefix in model
            assert fib.withdraw(prefix) == present
            model.pop(prefix, None)
            assert fib.version == version + present
        else:
            fib.clear()
            model.clear()
            assert fib.version == version + 1
        assert_agrees(fib, model, addresses)


def test_equal_hop_sets_share_one_tuple():
    fib = FIB()
    a = fib.install("10.0.0.0/24", [(2, "192.168.0.2"), (1, "192.168.0.1")])
    b = fib.install("10.0.1.0/24", [(2, "192.168.0.2"), (1, "192.168.0.1")])
    c = fib.install("10.0.2.0/24", [[2, "192.168.0.2"], [1, "192.168.0.1"]])
    assert a.next_hops is b.next_hops is c.next_hops
    assert FIB().install("10.0.0.0/24", [(1, "192.168.0.1"), (2, "192.168.0.2")]
                         ).next_hops == a.next_hops


@given(hop_lists)
@settings(max_examples=100, deadline=None)
def test_a_reused_hop_list_installs_its_new_contents(next_hops):
    """The interned set is keyed by the hops' contents at install time:
    a caller refilling one list object gets each time what it holds."""
    fib = FIB()
    first = fib.install("10.0.0.0/24", next_hops)
    assert first.next_hops == reference_hops(next_hops)
    next_hops[:] = [(port + 1, None) for port in range(len(next_hops))]
    second = fib.install("10.0.1.0/24", next_hops)
    assert second.next_hops == reference_hops(next_hops)
    assert fib.get("10.0.0.0/24").next_hops == first.next_hops
