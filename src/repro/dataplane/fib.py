"""The Forwarding Information Base of a simulated router.

The FIB is what the Connection Manager programs when an emulated
routing daemon's RIB changes (the "Install routes" arrow of Fig. 1).
Entries map prefixes to one or more next hops; multiple next hops mean
ECMP, resolved per-flow by hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import DataPlaneError
from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.netproto.prefix_table import PrefixTable


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


def _normalize(hops: tuple) -> Tuple[NextHop, ...]:
    """``NextHop``s, or ``(port, gateway)`` pairs made into them, sorted
    by port (then gateway) when there are several."""
    normalized: List[NextHop] = []
    for hop in hops:
        if isinstance(hop, NextHop):
            normalized.append(hop)
        else:
            port, gateway = hop
            if gateway is not None and type(gateway) is not IPv4Address:
                gateway = IPv4Address(gateway)
            normalized.append(NextHop(port=port, gateway=gateway))
    if len(normalized) > 1:
        normalized.sort(key=lambda h: (h.port, int(h.gateway) if h.gateway else 0))
    return tuple(normalized)


class FIB:
    """Longest-prefix-match forwarding table with ECMP entries."""

    def __init__(self, owner=None) -> None:
        self._table = PrefixTable()
        # The caller's hops, as a tuple -> their normalized tuple.
        self._hop_sets: Dict[tuple, Tuple[NextHop, ...]] = {}
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

        A router installs the same next-hop set again and again (static
        routes per destination, SPF's shared first-hop sets, BGP
        multipath), so the normalized tuple is interned per FIB, keyed
        by the caller's hops snapshotted as a tuple: its ``NextHop``s
        are built once.
        """
        key = tuple(next_hops)
        try:
            hops = self._hop_sets.get(key)
        except TypeError:  # a hop given as a list
            key = tuple(hop if isinstance(hop, NextHop) else tuple(hop)
                        for hop in key)
            hops = self._hop_sets.get(key)
        if hops is None:
            hops = self._hop_sets[key] = _normalize(key)
        entry = FIBEntry(prefix=_as_prefix(prefix), next_hops=hops)
        self._table.insert(entry.prefix, entry)
        self.installs += 1
        self._bump()
        return entry

    def withdraw(self, prefix: "IPv4Prefix | str") -> bool:
        """Remove the entry for ``prefix``; True when present."""
        removed = self._table.delete(_as_prefix(prefix))
        if removed:
            self.withdrawals += 1
            self._bump()
        return removed

    def lookup(self, dst: "IPv4Address | str | int") -> Optional[FIBEntry]:
        """Longest-prefix-match lookup."""
        return self._table.lookup_value(
            int(dst) if type(dst) is IPv4Address else dst)

    def get(self, prefix: "IPv4Prefix | str") -> Optional[FIBEntry]:
        """Exact-match lookup."""
        return self._table.get(_as_prefix(prefix))

    def entries(self) -> List[FIBEntry]:
        """Every entry, in (network, length) order."""
        return [entry for __, entry in self._table.items()]

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        """Flush the table."""
        self._table.clear()
        self._bump()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FIB entries={len(self)}>"
