"""Dijkstra SPF over the link-state database, with ECMP.

The twist over textbook Dijkstra: we track *all* first-hop neighbors
that lie on some shortest path to each destination, because equal-cost
multipath is the point of running an IGP in a Clos fabric.  Links are
only used when both endpoints advertise each other (the bidirectional
check real OSPF performs), so a half-dead adjacency never carries
traffic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.ospf.lsdb import LinkStateDatabase

INFINITY = float("inf")


@dataclass
class SPFResult:
    """Routes from one SPF run.

    ``prefix_routes`` maps each prefix to (total cost, set of first-hop
    neighbor router ids).  ``router_distance`` is exposed for tests.
    """

    prefix_routes: Dict[IPv4Prefix, Tuple[float, Set[int]]] = field(default_factory=dict)
    router_distance: Dict[int, float] = field(default_factory=dict)


def shortest_paths(lsdb: LinkStateDatabase, root_id: IPv4Address) -> SPFResult:
    """Compute ECMP shortest paths from ``root_id`` over the LSDB."""
    # Build the bidirectionally-confirmed adjacency map: one pass to
    # collect every advertised (router, neighbor) pair, one to keep the
    # links whose reverse pair was advertised too.
    lsas = lsdb.all_lsas()
    advertised = {
        (lsa.originator, neighbor)
        for lsa in lsas
        for neighbor, __ in lsa.neighbor_costs()
    }
    adjacency: Dict[int, List[Tuple[int, int]]] = {}
    for lsa in lsas:
        me = lsa.originator
        confirmed = [
            link for link in lsa.neighbor_costs() if (link[0], me) in advertised
        ]
        if confirmed:
            adjacency[me] = confirmed

    root = int(root_id)
    distance: Dict[int, float] = {root: 0.0}
    # first_hops[router] = set of first-hop *neighbor router ids* on
    # shortest paths from the root.
    first_hops: Dict[int, Set[int]] = {root: set()}
    heap: List[Tuple[float, int]] = [(0.0, root)]
    visited: Set[int] = set()

    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for neighbor, cost in adjacency.get(node, ()):
            candidate = dist + cost
            current = distance.get(neighbor, INFINITY)
            if candidate < current - 1e-12:
                distance[neighbor] = candidate
                if node == root:
                    first_hops[neighbor] = {neighbor}
                else:
                    first_hops[neighbor] = set(first_hops[node])
                heapq.heappush(heap, (candidate, neighbor))
            elif abs(candidate - current) <= 1e-12:
                # Equal-cost alternative: merge first hops.
                extra = {neighbor} if node == root else first_hops.get(node, set())
                first_hops.setdefault(neighbor, set()).update(extra)

    result = SPFResult(router_distance=dict(distance))
    prefix_routes = result.prefix_routes
    for lsa in lsas:
        router = lsa.originator
        # Our own prefixes are connected routes; an unreached router's
        # prefixes have no first hop.
        if router == root or router not in distance:
            continue
        hops = first_hops.get(router)
        if not hops:
            continue
        base = distance[router]
        for stub in lsa.prefixes:
            total = base + stub.cost
            existing = prefix_routes.get(stub.prefix)
            if existing is None or total < existing[0] - 1e-12:
                prefix_routes[stub.prefix] = (total, set(hops))
            elif abs(total - existing[0]) <= 1e-12:
                existing[1].update(hops)
    return result
