"""Property tests: the LPM table (``PrefixTable``) agrees with a
brute-force oracle."""

from hypothesis import given, settings, strategies as st

from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.netproto.prefix_table import PrefixTable

prefixes = st.builds(
    IPv4Prefix.from_network,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=32),
)
addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)


def brute_force_lpm(entries, address):
    """Reference implementation: scan all prefixes, keep the longest."""
    best = None
    for prefix, value in entries.items():
        if prefix.contains(address):
            if best is None or prefix.length > best[0].length:
                best = (prefix, value)
    return best


def prefixes_of_length(length):
    return st.builds(IPv4Prefix.from_network, addresses, st.just(length))


def inside(prefix, host_bits):
    """An address covered by ``prefix``."""
    return prefix.key()[0] | (host_bits & ~prefix.mask_int() & 0xFFFFFFFF)


def build(entries):
    table = PrefixTable()
    for prefix, value in entries.items():
        table.insert(prefix, value)
    return table


def assert_agrees(table, entries, probes):
    """Every lookup form, size, membership and iteration match ``entries``."""
    for probe in probes:
        expected = brute_force_lpm(entries, probe)
        assert table.lookup(probe) == expected
        assert table.lookup(IPv4Address(probe)) == expected
        assert table.lookup_value(probe, "none") == (
            "none" if expected is None else expected[1])
    assert len(table) == len(entries)
    assert dict(table.items()) == entries
    for prefix, value in entries.items():
        assert prefix in table
        assert table.get(prefix) == value
    # The probe tuple holds exactly the lengths present, longest first.
    lengths = [mask.bit_count() for mask, __ in table._probes]
    assert lengths == sorted({p.length for p in entries}, reverse=True)


@given(st.dictionaries(prefixes, st.integers(), max_size=40), addresses)
@settings(max_examples=200, deadline=None)
def test_lookup_matches_brute_force(entries, address):
    table = build(entries)
    expected = brute_force_lpm(entries, address)
    actual = table.lookup(IPv4Address(address))
    if expected is None:
        assert actual is None
    else:
        assert actual is not None
        assert actual[0] == expected[0]
        assert actual[1] == expected[1]


@given(st.dictionaries(prefixes, st.integers(), max_size=30))
@settings(max_examples=100, deadline=None)
def test_size_and_items_consistent(entries):
    table = build(entries)
    assert len(table) == len(entries)
    collected = dict(table.items())
    assert collected == entries


@given(st.dictionaries(prefixes, st.integers(), min_size=1, max_size=30),
       st.data())
@settings(max_examples=100, deadline=None)
def test_delete_then_lookup_consistent(entries, data):
    table = build(entries)
    victim = data.draw(st.sampled_from(sorted(entries, key=lambda p: p.key())))
    assert table.delete(victim)
    remaining = {p: v for p, v in entries.items() if p != victim}
    assert len(table) == len(remaining)
    probe = data.draw(addresses)
    expected = brute_force_lpm(remaining, probe)
    actual = table.lookup(IPv4Address(probe))
    if expected is None:
        assert actual is None
    else:
        assert actual is not None and actual[0] == expected[0]


@given(st.lists(prefixes, max_size=30))
@settings(max_examples=100, deadline=None)
def test_items_sorted(prefix_list):
    table = PrefixTable()
    for i, prefix in enumerate(prefix_list):
        table.insert(prefix, i)
    keys = [p.key() for p, __ in table.items()]
    assert keys == sorted(keys)


@given(st.dictionaries(prefixes, st.integers(), min_size=1, max_size=30),
       st.data())
@settings(max_examples=100, deadline=None)
def test_emptied_length_refilled(entries, data):
    """Emptying one length drops it from the probes; refilling it brings
    it back, and lookups inside its prefixes follow both ways."""
    table = build(entries)
    length = data.draw(st.sampled_from(sorted({p.length for p in entries})))
    victims = sorted((p for p in entries if p.length == length),
                     key=lambda p: p.key())
    host_bits = data.draw(addresses)
    probes = [inside(p, host_bits) for p in victims] + [data.draw(addresses)]
    for victim in victims:
        assert table.delete(victim)
        del entries[victim]
    assert_agrees(table, entries, probes)
    refill = data.draw(st.dictionaries(prefixes_of_length(length), st.integers(),
                                       min_size=1, max_size=5))
    for prefix, value in refill.items():
        table.insert(prefix, value)
    entries.update(refill)
    assert_agrees(table, entries, probes + [inside(p, host_bits) for p in refill])


@given(st.integers(), st.lists(addresses, max_size=20, unique=True), addresses)
@settings(max_examples=100, deadline=None)
def test_default_route_beside_host_routes(default, hosts, probe):
    """/0 and /32 together: hosts match exactly, everything else takes
    the default, and each survives the other's removal."""
    entries = {IPv4Prefix.from_network(host, 32): i for i, host in enumerate(hosts)}
    default_route = IPv4Prefix.from_network(0, 0)
    entries[default_route] = default
    table = build(entries)
    probes = hosts + [probe]
    assert_agrees(table, entries, probes)
    assert table.lookup_value(probe) == entries.get(
        IPv4Prefix.from_network(probe, 32), default)
    assert table.delete(default_route)
    del entries[default_route]
    assert_agrees(table, entries, probes)
    table.insert(default_route, default)
    entries[default_route] = default
    for host in hosts:
        assert table.delete(IPv4Prefix.from_network(host, 32))
        del entries[IPv4Prefix.from_network(host, 32)]
    assert_agrees(table, entries, probes)


@given(st.dictionaries(prefixes, st.integers(), min_size=1, max_size=30),
       addresses, addresses)
@settings(max_examples=100, deadline=None)
def test_deleting_the_longest_length(entries, host_bits, probe):
    """Removing the last entry of the longest length falls back to the
    next length present (or to no match)."""
    table = build(entries)
    longest = max(p.length for p in entries)
    victims = sorted((p for p in entries if p.length == longest),
                     key=lambda p: p.key())
    probes = [inside(p, host_bits) for p in victims] + [probe]
    for victim in victims:
        assert table.delete(victim)
        del entries[victim]
        assert_agrees(table, entries, probes)
    assert not table.delete(victims[-1])


# Few networks and lengths, so that deletes and replacements hit.
NEAR = [0x0A000000, 0x0A010000, 0x0A010200, 0x0A010203, 0xC0A80001]
near_prefixes = st.builds(IPv4Prefix.from_network, st.sampled_from(NEAR),
                          st.sampled_from([0, 8, 16, 24, 31, 32]))


@given(st.lists(st.tuples(st.sampled_from(["insert"] * 4 + ["delete"] * 2 + ["clear"]),
                          near_prefixes, st.integers()), max_size=40),
       st.lists(st.sampled_from(NEAR) | addresses, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_operation_sequences_match_a_dict(ops, probes):
    table = PrefixTable()
    model = {}
    for op, prefix, value in ops:
        if op == "insert":
            table.insert(prefix, value)
            model[prefix] = value
        elif op == "delete":
            assert table.delete(prefix) == (prefix in model)
            model.pop(prefix, None)
        else:
            table.clear()
            model.clear()
        assert_agrees(table, model, probes)
