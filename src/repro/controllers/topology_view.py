"""The controller's view of the topology.

Real SDN controllers discover topology with LLDP; here the view is
handed to the apps by the experiment (the Hedera paper likewise
assumes the controller knows the fat-tree wiring).  The view answers
the questions TE apps ask:

* where is the host with this IP attached?
* what are the equal-cost switch-level paths between two switches?
* which port on switch A faces switch B?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.netproto.addr import IPv4Address
from repro.topology.paths import hop_distances, shortest_paths

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.network import Network


@dataclass(frozen=True)
class HostLocation:
    """Where a host hangs off the fabric."""

    host_name: str
    ip: IPv4Address
    switch_name: str
    switch_port: int


class TopologyView:
    """Immutable topology knowledge shared by controller apps."""

    def __init__(self, network: "Network"):
        self._ports: Dict[Tuple[str, str], int] = {}
        self._hosts_by_ip: Dict[int, HostLocation] = {}
        self._path_cache: Dict[Tuple[str, str], List[List[str]]] = {}
        self._links_cache: Dict[Tuple[str, str], List[tuple]] = {}
        self._hops: Dict[Tuple[str, str], Tuple[str, str]] = {}
        # Per source switch, hop distances from one BFS (see _distances).
        self._dist_cache: Dict[str, Dict[str, int]] = {}
        self.path_dag_builds = 0

        # The fabric: every switch, and each adjacent switch once
        # however many parallel links join them.
        around: Dict[str, Dict[str, None]] = {
            switch.name: {} for switch in network.switches()}
        for link in network.links:
            a, b = link.endpoints()
            if a.name in around and b.name in around:
                around[a.name][b.name] = around[b.name][a.name] = None
                self._ports[(a.name, b.name)] = link.port_a.number
                self._ports[(b.name, a.name)] = link.port_b.number
        self._neighbors: Dict[str, Tuple[str, ...]] = {
            name: tuple(peers) for name, peers in around.items()}

        for host in network.hosts():
            peer = host.uplink_port.peer()
            if peer is None or peer.node.name not in around:
                continue
            location = HostLocation(
                host_name=host.name,
                ip=host.ip,
                switch_name=peer.node.name,
                switch_port=peer.number,
            )
            self._hosts_by_ip[int(host.ip)] = location

    # -- hosts -----------------------------------------------------------------

    def locate_ip(self, ip: "IPv4Address | int | str") -> Optional[HostLocation]:
        """Where the host with this IP is attached, if known."""
        return self._hosts_by_ip.get(int(IPv4Address(ip)))

    def hosts(self) -> List[HostLocation]:
        """All known host locations, sorted by IP."""
        return [self._hosts_by_ip[key] for key in sorted(self._hosts_by_ip)]

    # -- fabric ----------------------------------------------------------------

    def switches(self) -> List[str]:
        """All switch names, sorted."""
        return sorted(self._neighbors)

    def port_toward(self, from_switch: str, to_switch: str) -> Optional[int]:
        """The port on ``from_switch`` that faces ``to_switch``."""
        return self._ports.get((from_switch, to_switch))

    def equal_cost_paths(self, src_switch: str, dst_switch: str) -> List[List[str]]:
        """All shortest switch-level paths, deterministically ordered
        (``sorted(nx.all_shortest_paths(...))``; empty when there is
        none).  Cached; the returned list is shared — read, do not
        mutate.

        Every destination's set is unwound from its source's predecessor
        DAG, which one BFS per *source* labels — not one per pair.
        """
        key = (src_switch, dst_switch)
        paths = self._path_cache.get(key)
        if paths is None:
            paths = self._path_cache[key] = shortest_paths(
                self._neighbors, self._distances(src_switch),
                src_switch, dst_switch)
        return paths

    def equal_cost_links(self, src_switch: str, dst_switch: str) -> List[tuple]:
        """The directed ``(a, b)`` hops of each path of
        :meth:`equal_cost_paths`, in the same order — what a placement
        heuristic walks once per candidate per flow.  A fabric has far
        fewer hops than paths, so every path refers to one shared tuple
        per hop."""
        key = (src_switch, dst_switch)
        links = self._links_cache.get(key)
        if links is None:
            shared = self._hops.setdefault
            links = self._links_cache[key] = [
                tuple(shared(hop, hop) for hop in zip(path, path[1:]))
                for path in self.equal_cost_paths(src_switch, dst_switch)]
        return links

    def _distances(self, src: str) -> Dict[str, int]:
        """Hop distance from ``src`` to every switch it reaches (empty
        for an unknown switch) — the predecessor DAG of its shortest
        paths.  Built on the first question about a source, never in
        set-up."""
        dist = self._dist_cache.get(src)
        if dist is None:
            self.path_dag_builds += 1
            dist = self._dist_cache[src] = hop_distances(self._neighbors, src)
        return dist

    def graph(self) -> "networkx.Graph":
        """The switch-level fabric as a networkx graph, built on demand
        — an export for tests and notebooks; nothing on the run path
        reads it."""
        import networkx as nx

        return nx.Graph(self._neighbors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TopologyView switches={len(self._neighbors)} "
            f"hosts={len(self._hosts_by_ip)}>"
        )
