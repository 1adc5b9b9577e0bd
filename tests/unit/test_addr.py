"""Unit tests: IPv4/MAC addresses and prefixes."""

import pytest

from repro.netproto.addr import (
    AddressError,
    IPv4Address,
    IPv4Prefix,
    MACAddress,
)


class TestIPv4Address:
    def test_parse_dotted_quad(self):
        assert int(IPv4Address("10.0.0.1")) == 0x0A000001

    def test_from_int(self):
        assert str(IPv4Address(0x0A000001)) == "10.0.0.1"

    def test_roundtrip_via_bytes(self):
        addr = IPv4Address("192.168.1.254")
        assert IPv4Address.from_bytes(addr.packed()) == addr

    def test_extremes(self):
        assert str(IPv4Address(0)) == "0.0.0.0"
        assert str(IPv4Address(0xFFFFFFFF)) == "255.255.255.255"

    def test_copy_constructor(self):
        addr = IPv4Address("1.2.3.4")
        assert IPv4Address(addr) == addr

    def test_rejects_bad_strings(self):
        for bad in ("256.0.0.1", "1.2.3", "1.2.3.4.5", "", "a.b.c.d", "1..2.3"):
            with pytest.raises(AddressError):
                IPv4Address(bad)

    def test_rejects_out_of_range_int(self):
        with pytest.raises(AddressError):
            IPv4Address(2 ** 32)
        with pytest.raises(AddressError):
            IPv4Address(-1)

    def test_rejects_wrong_byte_length(self):
        with pytest.raises(AddressError):
            IPv4Address.from_bytes(b"\x01\x02\x03")

    def test_ordering(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")
        assert IPv4Address("9.255.255.255") < IPv4Address("10.0.0.0")

    def test_equality_with_string_and_int(self):
        addr = IPv4Address("10.0.0.1")
        assert addr == "10.0.0.1"
        assert addr == 0x0A000001
        assert addr != "10.0.0.2"

    def test_hashable_and_stable(self):
        assert hash(IPv4Address("10.0.0.1")) == hash(IPv4Address(0x0A000001))

    def test_add_offset(self):
        assert IPv4Address("10.0.0.1") + 5 == IPv4Address("10.0.0.6")


class TestIPv4Prefix:
    def test_parse_and_normalise(self):
        prefix = IPv4Prefix("10.1.2.3/16")
        assert str(prefix) == "10.1.0.0/16"
        assert prefix.length == 16

    def test_netmask(self):
        assert str(IPv4Prefix("10.0.0.0/8").netmask) == "255.0.0.0"
        assert str(IPv4Prefix("10.0.0.0/32").netmask) == "255.255.255.255"
        assert str(IPv4Prefix("0.0.0.0/0").netmask) == "0.0.0.0"

    def test_contains(self):
        prefix = IPv4Prefix("10.1.0.0/16")
        assert prefix.contains("10.1.255.255")
        assert not prefix.contains("10.2.0.0")

    def test_default_route_contains_everything(self):
        default = IPv4Prefix("0.0.0.0/0")
        assert default.contains("1.2.3.4")
        assert default.contains("255.255.255.255")

    def test_overlaps(self):
        assert IPv4Prefix("10.0.0.0/8").overlaps(IPv4Prefix("10.1.0.0/16"))
        assert IPv4Prefix("10.1.0.0/16").overlaps(IPv4Prefix("10.0.0.0/8"))
        assert not IPv4Prefix("10.0.0.0/16").overlaps(IPv4Prefix("10.1.0.0/16"))

    def test_subnets(self):
        subnets = list(IPv4Prefix("10.0.0.0/30").subnets(31))
        assert [str(s) for s in subnets] == ["10.0.0.0/31", "10.0.0.2/31"]

    def test_subnets_rejects_shorter_target(self):
        with pytest.raises(AddressError):
            list(IPv4Prefix("10.0.0.0/24").subnets(16))

    def test_hosts_excludes_network_and_broadcast(self):
        hosts = list(IPv4Prefix("10.0.0.0/30").hosts())
        assert [str(h) for h in hosts] == ["10.0.0.1", "10.0.0.2"]

    def test_hosts_slash31_keeps_both(self):
        assert len(list(IPv4Prefix("10.0.0.0/31").hosts())) == 2

    def test_rejects_bad_lengths(self):
        with pytest.raises(AddressError):
            IPv4Prefix("10.0.0.0/33")
        with pytest.raises(AddressError):
            IPv4Prefix("10.0.0.0")

    def test_from_network(self):
        assert str(IPv4Prefix.from_network(IPv4Address("10.1.0.0"), 16)) == "10.1.0.0/16"

    @pytest.mark.parametrize("length", range(33))
    def test_from_network_equals_the_text_constructor(self, length):
        # Dirty host bits in every octet; from_network masks them the
        # way the text constructor does, and hashes to the same value
        # (the tuple's), so no dict or set anywhere changes its order.
        for value in (0xFFFFFFFF, 0xC0A8FE37, 0x0A010203, 0x80000001, 0):
            built = IPv4Prefix.from_network(value, length)
            parsed = IPv4Prefix(f"{IPv4Address(value)}/{length}")
            assert built == parsed and parsed == built
            assert (built.key(), str(built)) == (parsed.key(), str(parsed))
            assert hash(built) == hash(parsed) == hash(built.key())
            assert built == IPv4Prefix.from_network(IPv4Address(value), length)
            assert IPv4Prefix(built) == built and hash(IPv4Prefix(built)) == hash(built)

    @pytest.mark.parametrize("network,length", [
        (0, 33), (0, -1), (0, 24.0), (0, "24"), (0, None),
        (-1, 24), (1 << 32, 24),
    ])
    def test_from_network_rejects_out_of_range(self, network, length):
        with pytest.raises(AddressError):
            IPv4Prefix.from_network(network, length)

    def test_equality_against_other_types(self):
        prefix = IPv4Prefix("10.0.0.0/24")
        assert prefix != IPv4Prefix("10.0.0.0/25")
        assert prefix != IPv4Prefix("10.0.1.0/24")
        assert prefix != "not a prefix"
        assert prefix != (prefix.key())
        assert prefix != 167772160
        assert len({prefix, IPv4Prefix("10.0.0.9/24"), "10.0.0.0/24"}) == 2

    def test_sort_order(self):
        prefixes = [
            IPv4Prefix("10.1.0.0/16"),
            IPv4Prefix("10.0.0.0/8"),
            IPv4Prefix("10.0.0.0/16"),
        ]
        ordered = sorted(prefixes)
        assert [str(p) for p in ordered] == [
            "10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16",
        ]

    def test_equality_with_string(self):
        assert IPv4Prefix("10.0.0.0/24") == "10.0.0.0/24"


class TestMACAddress:
    def test_parse_colon_form(self):
        mac = MACAddress("00:11:22:33:44:55")
        assert int(mac) == 0x001122334455

    def test_parse_dash_form(self):
        assert MACAddress("00-11-22-33-44-55") == MACAddress("00:11:22:33:44:55")

    def test_str_lowercase_colons(self):
        assert str(MACAddress(0xAABBCCDDEEFF)) == "aa:bb:cc:dd:ee:ff"

    def test_roundtrip_via_bytes(self):
        mac = MACAddress("02:00:00:00:00:01")
        assert MACAddress.from_bytes(mac.packed()) == mac

    def test_broadcast(self):
        assert MACAddress.broadcast().is_broadcast()
        assert not MACAddress("00:11:22:33:44:55").is_broadcast()

    def test_multicast_bit(self):
        assert MACAddress("01:00:5e:00:00:01").is_multicast()
        assert not MACAddress("00:11:22:33:44:55").is_multicast()
        assert MACAddress.broadcast().is_multicast()

    def test_rejects_garbage(self):
        for bad in ("00:11:22:33:44", "gg:11:22:33:44:55", "", "001122334455"):
            with pytest.raises(AddressError):
                MACAddress(bad)

    def test_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            MACAddress(2 ** 48)

    def test_ordering_and_hash(self):
        a = MACAddress(1)
        b = MACAddress(2)
        assert a < b
        assert hash(a) == hash(MACAddress(1))
