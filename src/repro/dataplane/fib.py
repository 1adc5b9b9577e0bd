"""The Forwarding Information Base of a simulated router.

The FIB is what the Connection Manager programs when an emulated
routing daemon's RIB changes (the "Install routes" arrow of Fig. 1).
Entries map prefixes to one or more next hops; multiple next hops mean
ECMP, resolved per-flow by hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.errors import DataPlaneError
from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.netproto.trie import PrefixTrie


@dataclass(frozen=True)
class NextHop:
    """One forwarding choice: egress port and (optional) gateway IP."""

    port: int
    gateway: Optional[IPv4Address] = None

    def __str__(self) -> str:
        via = f" via {self.gateway}" if self.gateway is not None else ""
        return f"port {self.port}{via}"


@dataclass
class FIBEntry:
    """A prefix and its ECMP next-hop set."""

    prefix: IPv4Prefix
    next_hops: Tuple[NextHop, ...]

    def __post_init__(self) -> None:
        if not self.next_hops:
            raise DataPlaneError(f"FIB entry for {self.prefix} has no next hops")


def _as_prefix(prefix: "IPv4Prefix | str") -> IPv4Prefix:
    """Prefixes are immutable: one handed in is used as it is."""
    return prefix if type(prefix) is IPv4Prefix else IPv4Prefix(prefix)


class FIB:
    """Longest-prefix-match forwarding table with ECMP entries."""

    def __init__(self, owner=None) -> None:
        self._trie = PrefixTrie()
        self.installs = 0
        self.withdrawals = 0
        # Bumped on every mutation; the incremental reallocation engine
        # uses it to spot routers whose forwarding changed.
        self.version = 0
        self._owner = owner  # the Router folding version into fwd_epoch

    def _bump(self) -> None:
        """Every mutation lands here: the version moves (and with it
        the owner's ``fwd_epoch``) and the owner is registered as
        touched with its network."""
        self.version += 1
        if self._owner is not None:
            self._owner.touched()

    def install(
        self,
        prefix: "IPv4Prefix | str",
        next_hops: "Sequence[NextHop | Tuple[int, IPv4Address | None]]",
    ) -> FIBEntry:
        """Install (or replace) the entry for ``prefix``.

        ``next_hops`` entries may be :class:`NextHop` or raw
        ``(port, gateway)`` tuples.  Next hops are stored sorted by
        port so ECMP hashing is deterministic regardless of
        announcement order.
        """
        normalized: List[NextHop] = []
        for hop in next_hops:
            if isinstance(hop, NextHop):
                normalized.append(hop)
            else:
                port, gateway = hop
                if gateway is not None and type(gateway) is not IPv4Address:
                    gateway = IPv4Address(gateway)
                normalized.append(NextHop(port=port, gateway=gateway))
        if len(normalized) > 1:
            normalized.sort(key=lambda h: (h.port, int(h.gateway) if h.gateway else 0))
        entry = FIBEntry(prefix=_as_prefix(prefix), next_hops=tuple(normalized))
        self._trie.insert(entry.prefix, entry)
        self.installs += 1
        self._bump()
        return entry

    def withdraw(self, prefix: "IPv4Prefix | str") -> bool:
        """Remove the entry for ``prefix``; True when present."""
        removed = self._trie.delete(_as_prefix(prefix))
        if removed:
            self.withdrawals += 1
            self._bump()
        return removed

    def lookup(self, dst: "IPv4Address | str | int") -> Optional[FIBEntry]:
        """Longest-prefix-match lookup."""
        return self._trie.lookup_value(
            dst if type(dst) is int else int(IPv4Address(dst))
        )

    def get(self, prefix: "IPv4Prefix | str") -> Optional[FIBEntry]:
        """Exact-match lookup."""
        return self._trie.get(_as_prefix(prefix))

    def entries(self) -> List[FIBEntry]:
        """Every entry, in (network, length) order."""
        return [entry for __, entry in self._trie.items()]

    def __len__(self) -> int:
        return len(self._trie)

    def clear(self) -> None:
        """Flush the table."""
        self._trie.clear()
        self._bump()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FIB entries={len(self)}>"
