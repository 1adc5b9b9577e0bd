"""BGP Routing Information Bases.

Three tables per RFC 4271 §3.2 (Figure 2 of the paper draws the RIB
box inside each emulated router):

* **Adj-RIB-In** — one per peer, the routes that peer advertised;
* **Loc-RIB** — the routes the decision process selected, possibly
  with an ECMP set per prefix (multipath);
* **Adj-RIB-Out** — one per peer, what we advertised to them (kept to
  avoid re-announcing unchanged routes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bgp.decision import preference_key
from repro.bgp.messages import PathAttributes
from repro.netproto.addr import IPv4Address, IPv4Prefix


@dataclass(frozen=True)
class RIBRoute:
    """One candidate route: a prefix, its attributes and its source.

    ``peer_name`` is empty for locally originated networks.
    """

    prefix: IPv4Prefix
    attributes: PathAttributes
    peer_name: str = ""
    peer_router_id: IPv4Address = field(default_factory=lambda: IPv4Address(0))
    #: :func:`~repro.bgp.decision.preference_key` of this route.  It
    #: depends on the frozen fields alone, so it is worked out once here
    #: instead of in every decision the route takes part in.
    preference: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "preference", preference_key(self))

    @property
    def is_local(self) -> bool:
        """Whether this route was originated by the local daemon."""
        return self.peer_name == ""

    def __str__(self) -> str:
        src = self.peer_name or "local"
        return f"{self.prefix} from {src} {self.attributes}"


class AdjRIBIn:
    """Routes learned from one peer, keyed by prefix."""

    def __init__(self, peer_name: str):
        self.peer_name = peer_name
        self._routes: Dict[IPv4Prefix, RIBRoute] = {}
        #: ``get(prefix)`` -- this peer's route for a prefix, if any.
        #: The dict's own method: the decision process probes every
        #: peer's table for every prefix it reconsiders.
        self.get = self._routes.get

    def update(self, route: RIBRoute) -> None:
        """Store/replace the peer's route for a prefix."""
        self._routes[route.prefix] = route

    def withdraw(self, prefix: IPv4Prefix) -> bool:
        """Remove the peer's route; True when one existed."""
        return self._routes.pop(prefix, None) is not None

    def prefixes(self) -> List[IPv4Prefix]:
        """All prefixes this peer advertised, sorted."""
        return sorted(self._routes, key=IPv4Prefix.key)

    def routes(self) -> List[RIBRoute]:
        """All routes, sorted by prefix."""
        return [self._routes[p] for p in self.prefixes()]

    def clear(self) -> List[IPv4Prefix]:
        """Drop everything (session reset); returns the lost prefixes."""
        lost = self.prefixes()
        self._routes.clear()
        return lost

    def __len__(self) -> int:
        return len(self._routes)


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
    """What we already advertised to one peer."""

    def __init__(self, peer_name: str):
        self.peer_name = peer_name
        self._advertised: Dict[IPv4Prefix, PathAttributes] = {}

    def advertised(self, prefix: IPv4Prefix) -> Optional[PathAttributes]:
        """The attributes last advertised for a prefix, if any."""
        return self._advertised.get(prefix)

    def record_announce(self, prefix: IPv4Prefix, attributes: PathAttributes) -> bool:
        """Remember an announcement; returns False if identical already sent."""
        if self._advertised.get(prefix) == attributes:
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
