"""Longest-prefix-match table: one hash table per prefix length.

The router FIB keeps its entries here.  They live in
``{masked network: value}`` dicts, one per prefix length present, so
insert/delete/exact-lookup are one dict operation.  A longest-prefix
lookup probes the lengths present from longest to shortest and stops at
the first hit: a routed fabric holds two or three lengths (/24 subnets,
/32 hosts, /31 links), so a lookup is two or three dict probes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from repro.netproto.addr import MAX_IPV4, IPv4Address, IPv4Prefix

_MISSING = object()


def _address_int(address: "IPv4Address | int | str") -> int:
    """The 32-bit value of a non-int ``address``: an address object
    hands over its integer, only anything else is parsed."""
    if type(address) is IPv4Address:
        return int(address)
    return int(IPv4Address(address))


class PrefixTable:
    """Maps :class:`IPv4Prefix` keys to arbitrary values with LPM lookup.

    >>> table = PrefixTable()
    >>> table.insert(IPv4Prefix("10.0.0.0/8"), "coarse")
    >>> table.insert(IPv4Prefix("10.1.0.0/16"), "fine")
    >>> table.lookup(IPv4Address("10.1.2.3"))
    (IPv4Prefix('10.1.0.0/16'), 'fine')
    >>> table.lookup(IPv4Address("10.9.9.9"))
    (IPv4Prefix('10.0.0.0/8'), 'coarse')
    """

    def __init__(self) -> None:
        self._tables: Dict[int, Dict[int, Any]] = {}  # length -> {network: value}
        # (mask, table) per length present, longest first: what a lookup
        # probes.  Rebuilt only when a length appears or disappears.
        self._probes: Tuple[Tuple[int, Dict[int, Any]], ...] = ()

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        network, length = prefix.key()
        table = self._tables.get(length)
        return table is not None and network in table

    def insert(self, prefix: IPv4Prefix, value: Any) -> None:
        """Insert or replace the value stored at ``prefix``."""
        network, length = prefix.key()
        table = self._tables.get(length)
        if table is None:
            table = self._tables[length] = {}
            self._rebuild_probes()
        table[network] = value

    def get(self, prefix: IPv4Prefix, default: Any = None) -> Any:
        """Exact-match lookup; returns ``default`` when absent."""
        network, length = prefix.key()
        table = self._tables.get(length)
        return default if table is None else table.get(network, default)

    def delete(self, prefix: IPv4Prefix) -> bool:
        """Remove ``prefix``. Returns True when something was removed."""
        network, length = prefix.key()
        table = self._tables.get(length)
        if table is None or table.pop(network, _MISSING) is _MISSING:
            return False
        if not table:
            del self._tables[length]
            self._rebuild_probes()
        return True

    def lookup(
        self, address: "IPv4Address | int | str"
    ) -> Optional[Tuple[IPv4Prefix, Any]]:
        """Longest-prefix match for ``address``.

        Returns the matching ``(prefix, value)`` pair, or ``None`` when
        no stored prefix covers the address.
        """
        value = address if type(address) is int else _address_int(address)
        for mask, table in self._probes:
            stored = table.get(value & mask, _MISSING)
            if stored is not _MISSING:
                return IPv4Prefix.from_network(value & mask, mask.bit_count()), stored
        return None

    def lookup_value(
        self, address: "IPv4Address | int | str", default: Any = None
    ) -> Any:
        """Longest-prefix match returning only the stored value.

        The hot path of data-plane forwarding: unlike :meth:`lookup`
        it never materialises the matching prefix object.
        """
        value = address if type(address) is int else _address_int(address)
        for mask, table in self._probes:
            stored = table.get(value & mask, _MISSING)
            if stored is not _MISSING:
                return stored
        return default

    def items(self) -> Iterator[Tuple[IPv4Prefix, Any]]:
        """Iterate over ``(prefix, value)`` pairs in (network, length) order."""
        # No two entries share (network, length), so the sort never
        # compares values.
        entries = sorted(
            (network, length, value)
            for length, table in self._tables.items()
            for network, value in table.items()
        )
        for network, length, value in entries:
            yield IPv4Prefix.from_network(network, length), value

    def keys(self) -> Iterator[IPv4Prefix]:
        """Iterate over stored prefixes."""
        for prefix, __ in self.items():
            yield prefix

    def clear(self) -> None:
        """Remove all entries."""
        self._tables = {}
        self._probes = ()

    def _rebuild_probes(self) -> None:
        self._probes = tuple(
            ((MAX_IPV4 << (32 - length)) & MAX_IPV4, self._tables[length])
            for length in sorted(self._tables, reverse=True)
        )
