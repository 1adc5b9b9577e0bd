"""Longest-prefix-match binary trie.

Both the router FIB and the BGP Loc-RIB need longest-prefix matching.
This is a classic uncompressed binary trie over the 32 address bits:
insert/delete/exact-lookup are O(prefix length), and a longest-prefix
lookup walks at most 32 nodes while remembering the deepest node that
carried a value.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

from repro.netproto.addr import IPv4Address, IPv4Prefix


class _TrieNode:
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list[Optional[_TrieNode]] = [None, None]
        self.value: Any = None
        self.has_value = False


class PrefixTrie:
    """Maps :class:`IPv4Prefix` keys to arbitrary values with LPM lookup.

    >>> trie = PrefixTrie()
    >>> trie.insert(IPv4Prefix("10.0.0.0/8"), "coarse")
    >>> trie.insert(IPv4Prefix("10.1.0.0/16"), "fine")
    >>> trie.lookup(IPv4Address("10.1.2.3"))
    (IPv4Prefix('10.1.0.0/16'), 'fine')
    >>> trie.lookup(IPv4Address("10.9.9.9"))
    (IPv4Prefix('10.0.0.0/8'), 'coarse')
    """

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        return self.get(prefix, default=_MISSING) is not _MISSING

    def insert(self, prefix: IPv4Prefix, value: Any) -> None:
        """Insert or replace the value stored at ``prefix``."""
        node = self._descend_create(prefix)
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def get(self, prefix: IPv4Prefix, default: Any = None) -> Any:
        """Exact-match lookup; returns ``default`` when absent."""
        node = self._descend(prefix)
        if node is None or not node.has_value:
            return default
        return node.value

    def delete(self, prefix: IPv4Prefix) -> bool:
        """Remove ``prefix``. Returns True when something was removed."""
        path: list[Tuple[_TrieNode, int]] = []
        node = self._root
        network, length = prefix.key()
        for depth in range(length):
            bit = (network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                return False
            path.append((node, bit))
            node = child
        if not node.has_value:
            return False
        node.has_value = False
        node.value = None
        self._size -= 1
        # Prune now-empty leaf chain so memory does not grow unboundedly
        # under churny workloads (BGP withdraw storms).
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if child is None:
                break
            if child.has_value or child.children[0] or child.children[1]:
                break
            parent.children[bit] = None
        return True

    def lookup(
        self, address: "IPv4Address | int | str"
    ) -> Optional[Tuple[IPv4Prefix, Any]]:
        """Longest-prefix match for ``address``.

        Returns the matching ``(prefix, value)`` pair, or ``None`` when
        no stored prefix covers the address.
        """
        value = int(IPv4Address(address))
        node = self._root
        best: Optional[Tuple[int, Any]] = None
        if node.has_value:  # default route 0.0.0.0/0
            best = (0, node.value)
        for depth in range(32):
            bit = (value >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = (depth + 1, node.value)
        if best is None:
            return None
        length, stored = best
        mask = 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        return IPv4Prefix.from_network(value & mask, length), stored

    def lookup_value(
        self, address: "IPv4Address | int | str", default: Any = None
    ) -> Any:
        """Longest-prefix match returning only the stored value.

        The hot path of data-plane forwarding: unlike :meth:`lookup`
        it never materialises the matching prefix object.
        """
        value = address if type(address) is int else int(IPv4Address(address))
        node = self._root
        best = node.value if node.has_value else default
        found = node.has_value
        for depth in range(32):
            bit = (value >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = node.value
                found = True
        return best if found else default

    def items(self) -> Iterator[Tuple[IPv4Prefix, Any]]:
        """Iterate over ``(prefix, value)`` pairs in network/length order."""
        stack: list[Tuple[_TrieNode, int, int]] = [(self._root, 0, 0)]
        while stack:
            node, network, depth = stack.pop()
            if node.has_value:
                yield IPv4Prefix.from_network(network << (32 - depth) if depth else 0, depth), node.value
            # Push right child first so the left (0) branch pops first,
            # giving ascending network order.
            right = node.children[1]
            if right is not None and depth < 32:
                stack.append((right, (network << 1) | 1, depth + 1))
            left = node.children[0]
            if left is not None and depth < 32:
                stack.append((left, network << 1, depth + 1))

    def keys(self) -> Iterator[IPv4Prefix]:
        """Iterate over stored prefixes."""
        for prefix, __ in self.items():
            yield prefix

    def clear(self) -> None:
        """Remove all entries."""
        self._root = _TrieNode()
        self._size = 0

    def _descend(self, prefix: IPv4Prefix) -> Optional[_TrieNode]:
        node = self._root
        network, length = prefix.key()
        for depth in range(length):
            bit = (network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node

    def _descend_create(self, prefix: IPv4Prefix) -> _TrieNode:
        node = self._root
        network, length = prefix.key()
        for depth in range(length):
            bit = (network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        return node


_MISSING = object()
