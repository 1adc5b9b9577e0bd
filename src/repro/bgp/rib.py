"""BGP Routing Information Bases.

Three tables per RFC 4271 §3.2 (Figure 2 of the paper draws the RIB
box inside each emulated router):

* **Adj-RIB-In** — the routes each peer advertised, kept in one table
  per prefix (FRR's ``bgp_dest``) so that a decision reads one entry;
  :class:`AdjRIBIn` is one peer's view of it;
* **Loc-RIB** — the routes the decision process selected, possibly
  with an ECMP set per prefix (multipath);
* **Adj-RIB-Out** — one per peer, what we advertised to them (kept to
  avoid re-announcing unchanged routes).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bgp.decision import preference_key
from repro.bgp.messages import PathAttributes, RouteValues
from repro.netproto.addr import IPv4Address, IPv4Prefix


@dataclass(frozen=True, slots=True)
class RIBRoute:
    """One candidate route: a prefix, its attributes and its source.

    ``peer_name`` is empty for locally originated networks.  A daemon
    passes its :class:`~repro.bgp.messages.RouteValues` as ``values``,
    and the route's preference key is then the table's copy.
    """

    prefix: IPv4Prefix
    attributes: PathAttributes
    peer_name: str = ""
    peer_router_id: IPv4Address = field(default_factory=lambda: IPv4Address(0))
    values: InitVar[Optional[RouteValues]] = None
    #: :func:`~repro.bgp.decision.preference_key` of this route.  It
    #: depends on the frozen fields alone, so it is worked out once here
    #: instead of in every decision the route takes part in.
    preference: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self, values: Optional[RouteValues]) -> None:
        key = preference_key(self)
        object.__setattr__(self, "preference",
                           key if values is None else values.preference(key))

    @property
    def is_local(self) -> bool:
        """Whether this route was originated by the local daemon."""
        return self.peer_name == ""

    def __str__(self) -> str:
        src = self.peer_name or "local"
        return f"{self.prefix} from {src} {self.attributes}"


class AdjRIBInTable:
    """Every peer's routes, one entry per prefix.

    The entry is a list with one slot per peer, in the order the peers
    joined, holding that peer's route or None: the decision process
    reads it once and has its candidates in peer order.
    """

    def __init__(self) -> None:
        self._slots: Dict[IPv4Prefix, List[Optional[RIBRoute]]] = {}
        self._width = 0
        #: ``slots(prefix)`` -- the prefix's per-peer slots, if any.
        self.slots = self._slots.get


class AdjRIBIn:
    """Routes learned from one peer, keyed by prefix: the peer's slot in
    an :class:`AdjRIBInTable`, which it joins (a table of its own when
    none is given)."""

    def __init__(self, peer_name: str,
                 table: Optional[AdjRIBInTable] = None):
        self.peer_name = peer_name
        self._owner = table if table is not None else AdjRIBInTable()
        self._table = self._owner._slots
        for slots in self._table.values():
            slots.append(None)
        self._index = self._owner._width
        self._owner._width += 1
        self._count = 0

    def get(self, prefix: IPv4Prefix) -> Optional[RIBRoute]:
        """This peer's route for a prefix, if any."""
        slots = self._table.get(prefix)
        return None if slots is None else slots[self._index]

    def update(self, route: RIBRoute) -> None:
        """Store/replace the peer's route for a prefix."""
        slots = self._table.get(route.prefix)
        if slots is None:
            slots = self._table[route.prefix] = [None] * self._owner._width
        if slots[self._index] is None:
            self._count += 1
        slots[self._index] = route

    def withdraw(self, prefix: IPv4Prefix) -> bool:
        """Remove the peer's route; True when one existed."""
        slots = self._table.get(prefix)
        if slots is None or slots[self._index] is None:
            return False
        slots[self._index] = None
        self._count -= 1
        return True

    def prefixes(self) -> List[IPv4Prefix]:
        """All prefixes this peer advertised, sorted."""
        index = self._index
        return sorted((prefix for prefix, slots in self._table.items()
                       if slots[index] is not None), key=IPv4Prefix.key)

    def routes(self) -> List[RIBRoute]:
        """All routes, sorted by prefix."""
        return [self._table[p][self._index] for p in self.prefixes()]

    def clear(self) -> List[IPv4Prefix]:
        """Drop everything (session reset); returns the lost prefixes."""
        lost = self.prefixes()
        for prefix in lost:
            self._table[prefix][self._index] = None
        self._count = 0
        return lost

    def __len__(self) -> int:
        return self._count


class LocRIB:
    """The selected routes: per prefix, a best route and its ECMP set."""

    def __init__(self) -> None:
        self._best: Dict[IPv4Prefix, RIBRoute] = {}
        self._multipath: Dict[IPv4Prefix, Tuple[RIBRoute, ...]] = {}

    def set_selection(
        self, prefix: IPv4Prefix, best: Optional[RIBRoute],
        multipath: Iterable[RIBRoute] = (),
    ) -> bool:
        """Record the decision for a prefix; returns True on change."""
        paths = tuple(multipath)
        if best is None:
            changed = prefix in self._best
            self._best.pop(prefix, None)
            self._multipath.pop(prefix, None)
            return changed
        changed = self._best.get(prefix) != best or self._multipath.get(prefix) != paths
        self._best[prefix] = best
        self._multipath[prefix] = paths if paths else (best,)
        return changed

    def best(self, prefix: IPv4Prefix) -> Optional[RIBRoute]:
        """The single best route for a prefix."""
        return self._best.get(prefix)

    def multipath(self, prefix: IPv4Prefix) -> Tuple[RIBRoute, ...]:
        """The ECMP set for a prefix (at least the best route)."""
        return self._multipath.get(prefix, ())

    def prefixes(self) -> List[IPv4Prefix]:
        """All selected prefixes, sorted."""
        return sorted(self._best, key=IPv4Prefix.key)

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        return prefix in self._best


class AdjRIBOut:
    """What we already advertised to one peer.

    Per prefix it keeps the Loc-RIB attributes an advertisement was made
    from, not the exported copy.  Towards one peer the export adds the
    same prepends and the same next hop (next-hop-self) to every route,
    so two exports are equal exactly when their sources agree on all
    but the next hop, and that is the comparison made here.
    """

    def __init__(self, peer_name: str):
        self.peer_name = peer_name
        self._advertised: Dict[IPv4Prefix, PathAttributes] = {}

    def advertised(self, prefix: IPv4Prefix) -> Optional[PathAttributes]:
        """The attributes the last advertisement of a prefix was made
        from, if any."""
        return self._advertised.get(prefix)

    def record_announce(self, prefix: IPv4Prefix, attributes: PathAttributes) -> bool:
        """Remember an announcement; returns False if an identical one
        was already sent."""
        sent = self._advertised.get(prefix)
        if sent is not None and (sent is attributes or (
                sent.as_path == attributes.as_path
                and sent.origin == attributes.origin
                and sent.med == attributes.med
                and sent.local_pref == attributes.local_pref)):
            return False
        self._advertised[prefix] = attributes
        return True

    def record_withdraw(self, prefix: IPv4Prefix) -> bool:
        """Remember a withdrawal; returns False if nothing was advertised."""
        return self._advertised.pop(prefix, None) is not None

    def prefixes(self) -> List[IPv4Prefix]:
        """Everything currently advertised, sorted."""
        return sorted(self._advertised, key=IPv4Prefix.key)

    def clear(self) -> None:
        """Forget all advertisements (session reset)."""
        self._advertised.clear()

    def __len__(self) -> int:
        return len(self._advertised)
