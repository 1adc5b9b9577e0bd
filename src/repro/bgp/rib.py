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
from typing import Dict, List, Optional, Tuple

from repro.bgp.decision import preference_key
from repro.bgp.messages import PathAttributes, RouteValues
from repro.netproto.addr import IPv4Address, IPv4Prefix


@dataclass(frozen=True, slots=True)
class RIBRoute:
    """One candidate route: a prefix, its attributes and its source.

    ``peer_name`` is empty for locally originated networks.  A daemon
    passes its :class:`~repro.bgp.messages.RouteValues` as ``values``,
    and the route's preference and tie-break keys are then the table's
    copies, one per distinct key rather than one per route.
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
    #: Step 6 of the decision ladder, ``(int(peer_router_id),
    #: peer_name)``, worked out once here like ``preference``.
    tie_break: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self, values: Optional[RouteValues]) -> None:
        preference = preference_key(self)
        tie_break = (int(self.peer_router_id), self.peer_name)
        if values is not None:
            preference = values.decision_key(preference)
            tie_break = values.decision_key(tie_break)
        object.__setattr__(self, "preference", preference)
        object.__setattr__(self, "tie_break", tie_break)

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

    def update(self, route: RIBRoute) -> Optional[RIBRoute]:
        """Store/replace the peer's route for a prefix; returns the route
        it replaced, if any."""
        slots = self._table.get(route.prefix)
        if slots is None:
            slots = self._table[route.prefix] = [None] * self._owner._width
        index = self._index
        old = slots[index]
        if old is None:
            self._count += 1
        slots[index] = route
        return old

    def withdraw(self, prefix: IPv4Prefix) -> Optional[RIBRoute]:
        """Remove the peer's route; returns it, or None when there was
        none."""
        slots = self._table.get(prefix)
        if slots is None:
            return None
        old = slots[self._index]
        if old is not None:
            slots[self._index] = None
            self._count -= 1
        return old

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
        multipath: Tuple[RIBRoute, ...] = (),
    ) -> bool:
        """Record the decision for a prefix; returns True on change.

        ``multipath`` is kept as it is handed over."""
        if best is None:
            changed = prefix in self._best
            self._best.pop(prefix, None)
            self._multipath.pop(prefix, None)
            return changed
        old = self._best.get(prefix)
        changed = ((old is not best and old != best)
                   or self._multipath.get(prefix) != multipath)
        self._best[prefix] = best
        self._multipath[prefix] = multipath if multipath else (best,)
        return changed

    def holds(self, prefix: IPv4Prefix, old: Optional[RIBRoute],
              new: Optional[RIBRoute]) -> bool:
        """Whether the prefix's selection stays as it is, with no
        decision run, when a peer's route ``old`` gives way to ``new``
        (either may be None).

        It does when the prefix has a selection, ``old`` is not one of
        its multipath routes, and ``new`` is absent or strictly less
        preferred than the best route: a route worse than the best on
        steps 1-5 of the ladder cannot win or join the multipath set,
        and a route that was in neither leaves both as they are.  The
        multipath routes are the Adj-RIB-In's own objects, so "not one
        of them" is a test of identity.
        """
        best = self._best.get(prefix)
        if best is None:
            return False
        if old is not None:
            for route in self._multipath[prefix]:
                if route is old:
                    return False
        return new is None or new.preference > best.preference

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
