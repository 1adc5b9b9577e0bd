"""The BGP decision process with ECMP multipath.

The classic preference ladder (RFC 4271 §9.1, trimmed to the
attributes this library carries — everything here is eBGP):

1. highest LOCAL_PREF (absent treated as 100);
2. locally originated beats learned;
3. shortest AS_PATH;
4. lowest ORIGIN (IGP < EGP < INCOMPLETE);
5. lowest MED (absent treated as 0, compared across all paths —
   Quagga's ``bgp always-compare-med``);
6. lowest peer router id (final deterministic tie-break).

**Multipath** (Quagga/FRR ``maximum-paths``): every candidate equal to
the winner on steps 1-5 joins the ECMP set, capped at ``max_paths``.
This is what gives the fat-tree demo its ECMP fan-out: the k/2 uplink
routes tie on AS-path length and all get installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - rib imports preference_key from here
    from repro.bgp.rib import RIBRoute

DEFAULT_LOCAL_PREF = 100


@dataclass
class RouteComparison:
    """Outcome of the decision process for one prefix."""

    best: Optional[RIBRoute]
    multipath: Tuple[RIBRoute, ...]


def preference_key(route: RIBRoute) -> tuple:
    """Sort key: smaller is better (steps 1-5 of the ladder).

    Every :class:`~repro.bgp.rib.RIBRoute` carries its own as
    ``route.preference``.
    """
    attrs = route.attributes
    local_pref = attrs.local_pref if attrs.local_pref is not None else DEFAULT_LOCAL_PREF
    med = attrs.med if attrs.med is not None else 0
    return (
        -local_pref,                      # 1. highest local-pref
        0 if route.is_local else 1,       # 2. local origination wins
        len(attrs.as_path),               # 3. shortest AS path
        int(attrs.origin),                # 4. lowest origin
        med,                              # 5. lowest MED
    )


#: Step 6: deterministic final ordering inside an equal-cost group,
#: the key every :class:`~repro.bgp.rib.RIBRoute` carries as
#: ``route.tie_break``.
_tie_break = attrgetter("tie_break")


def decide(candidates: Sequence[RIBRoute], max_paths: int = 1) -> RouteComparison:
    """Run the decision process over the candidate routes for one prefix.

    Returns the best route and the ECMP multipath set (size capped at
    ``max_paths``; 1 reproduces plain single-path BGP).  ``candidates``
    is read, never copied, kept or changed.
    """
    if max_paths < 1:
        raise ValueError(f"max_paths must be >= 1, got {max_paths}")
    if not candidates:
        return RouteComparison(best=None, multipath=())
    if len(candidates) == 1:
        return RouteComparison(best=candidates[0], multipath=(candidates[0],))

    # The winners are the candidates at the minimum preference key,
    # ordered among themselves by the final tie-break (a stable sort,
    # so full ties keep candidate order).
    best_key = min([route.preference for route in candidates])
    equal_cost = [route for route in candidates if route.preference == best_key]
    if len(equal_cost) > 1:
        equal_cost.sort(key=_tie_break)
    return RouteComparison(best=equal_cost[0],
                           multipath=tuple(equal_cost[:max_paths]))
