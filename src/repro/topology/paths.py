"""Hop-count shortest paths over a plain adjacency.

The one place a fabric graph is searched: the controller's
:class:`~repro.controllers.topology_view.TopologyView`, the static
control plane and the baseline emulator all ask these two functions, so
"which next hops are equal-cost" has one answer.  ``neighbors`` is an
insertion-ordered ``{node: (neighbour, ...)}`` mapping of an undirected
graph that names every node (an isolated one maps to an empty tuple).
A neighbour listed twice — parallel links — is walked twice: harmless to
the distances, a repeated path in the unwind.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, TypeVar

Node = TypeVar("Node", bound=Hashable)


def hop_distances(neighbors: Mapping[Node, Iterable[Node]],
                  src: Node) -> Dict[Node, int]:
    """Hop distance from ``src`` to every node it reaches, by one BFS
    (empty for a node ``neighbors`` does not name).  The labels *are*
    the predecessor DAG of the shortest paths from ``src``: u precedes
    v when they are adjacent and ``dist[u] == dist[v] - 1``."""
    dist = {src: 0} if src in neighbors else {}
    level = list(dist)
    depth = 0
    while level:
        depth += 1
        reached = []
        for node in level:
            for neighbor in neighbors[node]:
                if neighbor not in dist:
                    dist[neighbor] = depth
                    reached.append(neighbor)
        level = reached
    return dist


def shortest_paths(neighbors: Mapping[Node, Iterable[Node]],
                   dist: Mapping[Node, int],
                   src: Node, dst: Node) -> List[List[Node]]:
    """All shortest ``src`` → ``dst`` paths, sorted, unwound from
    ``dist = hop_distances(neighbors, src)`` — what
    ``sorted(nx.all_shortest_paths(...))`` gives; ``[[src]]`` for
    ``src == dst``, empty when ``dst`` is unreachable."""
    if dst not in dist:
        return []

    def unwind(node: Node) -> List[List[Node]]:
        if node == src:
            return [[node]]
        before = dist[node] - 1
        return [path + [node]
                for pred in neighbors[node] if dist[pred] == before
                for path in unwind(pred)]

    return sorted(unwind(dst))
