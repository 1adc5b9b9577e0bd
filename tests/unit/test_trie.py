"""Unit tests: the longest-prefix-match table (``PrefixTable``)."""

import pytest

from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.netproto.prefix_table import PrefixTable


@pytest.fixture
def table():
    t = PrefixTable()
    t.insert(IPv4Prefix("10.0.0.0/8"), "coarse")
    t.insert(IPv4Prefix("10.1.0.0/16"), "fine")
    t.insert(IPv4Prefix("10.1.2.0/24"), "finer")
    return t


class TestLookup:
    def test_longest_match_wins(self, table):
        prefix, value = table.lookup("10.1.2.3")
        assert value == "finer"
        assert str(prefix) == "10.1.2.0/24"

    def test_mid_level_match(self, table):
        assert table.lookup_value("10.1.9.9") == "fine"

    def test_coarse_match(self, table):
        assert table.lookup_value("10.200.0.1") == "coarse"

    def test_no_match(self, table):
        assert table.lookup("11.0.0.1") is None
        assert table.lookup_value("11.0.0.1", default="dflt") == "dflt"

    def test_default_route(self):
        t = PrefixTable()
        t.insert(IPv4Prefix("0.0.0.0/0"), "default")
        assert t.lookup_value("1.2.3.4") == "default"
        t.insert(IPv4Prefix("1.0.0.0/8"), "one")
        assert t.lookup_value("1.2.3.4") == "one"
        assert t.lookup_value("9.9.9.9") == "default"

    def test_slash32(self):
        t = PrefixTable()
        t.insert(IPv4Prefix("10.0.0.1/32"), "host")
        assert t.lookup_value("10.0.0.1") == "host"
        assert t.lookup("10.0.0.2") is None

    def test_stored_none_is_a_match(self):
        t = PrefixTable()
        t.insert(IPv4Prefix("0.0.0.0/0"), "default")
        t.insert(IPv4Prefix("10.0.0.0/8"), None)
        assert t.lookup_value("10.1.2.3", default="dflt") is None
        assert t.lookup("10.1.2.3") == (IPv4Prefix("10.0.0.0/8"), None)
        assert t.get(IPv4Prefix("10.0.0.0/8"), default="dflt") is None
        assert IPv4Prefix("10.0.0.0/8") in t

    def test_accepts_int_and_address(self, table):
        assert table.lookup_value(IPv4Address("10.1.2.3")) == "finer"
        assert table.lookup_value(int(IPv4Address("10.1.2.3"))) == "finer"


class TestMutation:
    def test_insert_replaces(self, table):
        table.insert(IPv4Prefix("10.1.0.0/16"), "replaced")
        assert table.get(IPv4Prefix("10.1.0.0/16")) == "replaced"
        assert len(table) == 3

    def test_delete(self, table):
        assert table.delete(IPv4Prefix("10.1.0.0/16"))
        assert table.get(IPv4Prefix("10.1.0.0/16")) is None
        # LPM now falls back to the /8.
        assert table.lookup_value("10.1.9.9") == "coarse"
        assert len(table) == 2

    def test_delete_absent_returns_false(self, table):
        assert not table.delete(IPv4Prefix("10.9.0.0/16"))
        assert len(table) == 3

    def test_delete_does_not_disturb_descendants(self, table):
        table.delete(IPv4Prefix("10.1.0.0/16"))
        assert table.lookup_value("10.1.2.3") == "finer"

    def test_clear(self, table):
        table.clear()
        assert len(table) == 0
        assert table.lookup("10.1.2.3") is None

    def test_contains(self, table):
        assert IPv4Prefix("10.1.0.0/16") in table
        assert IPv4Prefix("10.2.0.0/16") not in table

    def test_reinsert_after_delete(self, table):
        table.delete(IPv4Prefix("10.1.2.0/24"))
        table.insert(IPv4Prefix("10.1.2.0/24"), "back")
        assert table.lookup_value("10.1.2.3") == "back"


class TestIteration:
    def test_items_sorted_by_key(self, table):
        keys = [prefix.key() for prefix, __ in table.items()]
        assert keys == sorted(keys)

    def test_items_complete(self, table):
        values = {value for __, value in table.items()}
        assert values == {"coarse", "fine", "finer"}

    def test_keys(self, table):
        assert len(list(table.keys())) == 3

    def test_root_value_iterated(self):
        t = PrefixTable()
        t.insert(IPv4Prefix("0.0.0.0/0"), "default")
        items = list(t.items())
        assert len(items) == 1
        assert str(items[0][0]) == "0.0.0.0/0"
