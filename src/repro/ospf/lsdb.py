"""The link-state database."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.netproto.addr import IPv4Address
from repro.ospf.packets import RouterLSA


class LinkStateDatabase:
    """Newest Router-LSA per advertising router."""

    def __init__(self) -> None:
        self._lsas: Dict[int, RouterLSA] = {}
        self.version = 0  # bumped on every accepted change
        self._sorted: List[RouterLSA] = []
        self._sorted_version = 0

    def consider(self, lsa: RouterLSA) -> bool:
        """Insert if newer than the stored copy; True when accepted."""
        key = lsa.originator
        current = self._lsas.get(key)
        if current is not None and not lsa.newer_than(current):
            return False
        self._lsas[key] = lsa
        self.version += 1
        return True

    def get(self, router_id: "IPv4Address | int") -> Optional[RouterLSA]:
        """The stored LSA for a router, if any."""
        return self._lsas.get(int(router_id))

    def remove(self, router_id: "IPv4Address | int") -> bool:
        """Purge a router's LSA; True when present."""
        removed = self._lsas.pop(int(router_id), None) is not None
        if removed:
            self.version += 1
        return removed

    def all_lsas(self) -> List[RouterLSA]:
        """Every LSA, ordered by advertising router for determinism.

        The list is built once per ``version`` and shared between
        callers, who must not change it.
        """
        if self._sorted_version != self.version:
            lsas = self._lsas
            self._sorted = [lsas[key] for key in sorted(lsas)]
            self._sorted_version = self.version
        return self._sorted

    def __len__(self) -> int:
        return len(self._lsas)

    def __contains__(self, router_id: "IPv4Address | int") -> bool:
        return int(router_id) in self._lsas
