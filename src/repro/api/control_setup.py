"""Automatic control-plane wiring for router topologies.

Given a realised network whose forwarding devices are routers, these
helpers do what a person configuring Quagga on every box would do:

* number every router-router link out of 172.16.0.0/12;
* install connected host routes (/32 per attached host);
* create one BGP (or OSPF) daemon per router, one session per link,
  with the right ports, addresses and AS numbers;
* originate each router's host subnets.

The fat-tree BGP demo is this wiring plus the AS map that
:class:`~repro.topology.fattree.FatTreeTopo` provides.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.bgp.daemon import BGPConfig, BGPDaemon, BGPPeerConfig
from repro.bgp.messages import RouteValues
from repro.core.errors import TopologyError
from repro.dataplane.host import Host
from repro.dataplane.router import Router
from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.ospf.daemon import OSPFConfig, OSPFDaemon, OSPFPeerConfig
from repro.ospf.packets import DecodedMessages
from repro.topology.paths import hop_distances

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.experiment import Experiment
    from repro.dataplane.link import Link
    from repro.dataplane.network import Network


def link_addresses(index: int) -> Tuple[IPv4Address, IPv4Address]:
    """Deterministic /31-style endpoint addresses for link ``index``.

    Carves 172.16.0.0/12 into pairs; supports ~500k links, far beyond
    any experiment here.
    """
    base = (172 << 24) | (16 << 16)
    offset = index * 2
    return IPv4Address(base + offset), IPv4Address(base + offset + 1)


def _router_links(network: "Network") -> List["Link"]:
    """Router-to-router links in creation order."""
    result = []
    for link in network.links:
        a, b = link.endpoints()
        if isinstance(a, Router) and isinstance(b, Router):
            result.append(link)
    return result


def _host_subnets(network: "Network") -> Dict[str, List[IPv4Prefix]]:
    """Router name -> /24 subnets of its attached hosts (deduplicated).

    Also installs connected /32 host routes and interface addresses on
    the router.
    """
    subnets: Dict[str, List[IPv4Prefix]] = {}
    for host in network.hosts():
        peer = host.uplink_port.peer()
        if peer is None or not isinstance(peer.node, Router):
            continue
        router: Router = peer.node
        router.fib.install(
            IPv4Prefix.from_network(host.ip, 32), [(peer.number, None)]
        )
        if host.gateway is not None and router.interface(peer.number) is None:
            router.set_interface(peer.number, host.gateway)
        subnet = IPv4Prefix.from_network(host.ip, 24)
        bucket = subnets.setdefault(router.name, [])
        if subnet not in bucket:
            bucket.append(subnet)
    return subnets


def _wire_router_links(exp: "Experiment", daemons: Dict[str, Any],
                       protocol: str, wanted=None):
    """Number every router-router link, address its interfaces that
    have no address, open the channel between its two daemons and
    register it with the link.  Yields ``(channel, end_a, end_b)``, an
    end being ``(router, port number, address)``.  A link
    ``wanted(node_a, node_b)`` refuses gets none of it but keeps its
    index: the others' addresses do not depend on who peers."""
    for index, link in enumerate(_router_links(exp.network)):
        node_a, node_b = link.endpoints()
        if wanted is not None and not wanted(node_a, node_b):
            continue
        addr_a, addr_b = link_addresses(index)
        end_a = (node_a, link.port_a.number, addr_a)
        end_b = (node_b, link.port_b.number, addr_b)
        for node, port, address in (end_a, end_b):
            if node.interface(port) is None:
                node.set_interface(port, address)
        channel = exp.sim.cm.open_channel(
            daemons[node_a.name], daemons[node_b.name], latency=link.delay,
            label=f"{protocol} {node_a.name}-{node_b.name}",
        )
        exp.register_link_channel(node_a.name, node_b.name, channel)
        yield channel, end_a, end_b


def setup_static_routes(
    exp: "Experiment",
    ecmp: bool = False,
) -> Dict[str, int]:
    """Proactively install deterministic shortest-path routes.

    The "static" protocol: no daemons, no control traffic — every
    router's FIB is computed at setup time from hop-count BFS over the
    router-router links, exactly as an operator pre-provisioning
    static routes would.  By default each destination gets a *single*
    next hop (the lexicographically first shortest-path neighbor), so
    forwarding is deterministic and symmetry-preserving; ``ecmp=True``
    installs all shortest-path next hops instead (hashed per flow).

    Returns routes installed per router (diagnostics only).
    """
    network = exp.network
    routers = network.routers()
    if not routers:
        raise TopologyError("setup_static_routes: the topology has no routers")
    subnets = _host_subnets(network)

    adjacency: Dict[str, List[Tuple[str, int]]] = {r.name: [] for r in routers}
    for link in _router_links(network):
        node_a, node_b = link.endpoints()
        adjacency[node_a.name].append((node_b.name, link.port_a.number))
        adjacency[node_b.name].append((node_a.name, link.port_b.number))
    for pairs in adjacency.values():
        pairs.sort()
    neighbors = {name: [peer_name for peer_name, __ in pairs]
                 for name, pairs in adjacency.items()}

    installed: Dict[str, int] = {r.name: 0 for r in routers}
    for dest in routers:
        prefixes = subnets.get(dest.name, [])
        if not prefixes:
            continue
        dist = hop_distances(neighbors, dest.name)  # rooted at the destination
        for router in routers:
            if router.name == dest.name or router.name not in dist:
                continue
            want = dist[router.name] - 1
            ports = [port for peer_name, port in adjacency[router.name]
                     if dist.get(peer_name) == want]
            if not ports:
                continue
            next_hops = [(port, None) for port in (ports if ecmp else ports[:1])]
            for prefix in prefixes:
                router.fib.install(prefix, next_hops)
                installed[router.name] += 1
    return installed


def setup_bgp_for_routers(
    exp: "Experiment",
    asn_map: "Dict[str, int] | None" = None,
    max_paths: int = 1,
    hold_time: float = 90.0,
    keepalive_interval: float = 30.0,
    advertisement_interval: float = 0.03,
    connect_delay_range: Tuple[float, float] = (0.02, 0.08),
    seed: int = 7,
) -> Dict[str, BGPDaemon]:
    """Create and wire one BGP daemon per router; returns them by name.

    ``asn_map`` assigns AS numbers (default: 65001 + router index).
    Every router-router link becomes an eBGP session (routers sharing
    an AS — e.g. the fat-tree core — simply do not peer with each
    other, as iBGP is out of scope and unnecessary on a Clos).
    """
    network = exp.network
    routers = network.routers()
    if not routers:
        raise TopologyError("setup_bgp_for_routers: the topology has no routers")
    if asn_map is None:
        asn_map = {router.name: 65001 + i for i, router in enumerate(routers)}
    rng = random.Random(seed)
    subnets = _host_subnets(network)

    # One copy of each route value for the whole experiment: every
    # daemon decodes into the same table.
    values = RouteValues()
    daemons: Dict[str, BGPDaemon] = {}
    for index, router in enumerate(routers):
        router_id = router.router_id or IPv4Address(0x0A000000 + index + 1)
        daemon = daemons[router.name] = BGPDaemon(
            router.name,
            BGPConfig(
                asn=asn_map[router.name],
                router_id=IPv4Address(router_id),
                networks=list(subnets.get(router.name, [])),
                max_paths=max_paths,
                advertisement_interval=advertisement_interval,
            ),
        )
        daemon.values = values

    # Same AS: no eBGP session (see docstring).
    for channel, end_a, end_b in _wire_router_links(
            exp, daemons, "bgp",
            wanted=lambda a, b: asn_map[a.name] != asn_map[b.name]):
        for (local, port, address), (remote, __, peer_address) in (
                (end_a, end_b), (end_b, end_a)):
            daemons[local.name].add_peer(
                BGPPeerConfig(
                    peer_name=remote.name,
                    remote_asn=asn_map[remote.name],
                    local_port=port,
                    peer_address=peer_address,
                    local_address=address,
                    hold_time=hold_time,
                    keepalive_interval=keepalive_interval,
                    connect_delay=rng.uniform(*connect_delay_range),
                ),
                channel,
            )

    for daemon in daemons.values():
        exp.sim.add_process(daemon)
    exp.bgp_daemons = daemons
    return daemons


def setup_ospf_for_routers(
    exp: "Experiment",
    hello_interval: float = 2.0,
    dead_interval: float = 8.0,
    spf_delay: float = 0.05,
    cost_map: "Dict[Tuple[str, str], int] | None" = None,
) -> Dict[str, OSPFDaemon]:
    """Create and wire one OSPF daemon per router; returns them by name.

    ``cost_map`` optionally assigns link costs by (router, router)
    pair (both orders checked); default cost is 1 everywhere.
    """
    network = exp.network
    routers = network.routers()
    if not routers:
        raise TopologyError("setup_ospf_for_routers: the topology has no routers")
    subnets = _host_subnets(network)

    # A flood is one bytes object to every neighbour: every daemon
    # decodes through one table, so each is parsed once.
    decoded = DecodedMessages()
    daemons: Dict[str, OSPFDaemon] = {}
    for index, router in enumerate(routers):
        router_id = router.router_id or IPv4Address(0x0A000000 + index + 1)
        daemon = daemons[router.name] = OSPFDaemon(
            router.name,
            OSPFConfig(
                router_id=IPv4Address(router_id),
                networks=[(s, 0) for s in subnets.get(router.name, [])],
                hello_interval=hello_interval,
                dead_interval=dead_interval,
                spf_delay=spf_delay,
            ),
        )
        daemon.decoded = decoded

    def cost_for(a: str, b: str) -> int:
        if cost_map is None:
            return 1
        return cost_map.get((a, b), cost_map.get((b, a), 1))

    for channel, end_a, end_b in _wire_router_links(exp, daemons, "ospf"):
        cost = cost_for(end_a[0].name, end_b[0].name)
        for (local, port, __), (remote, __, peer_address) in (
                (end_a, end_b), (end_b, end_a)):
            daemons[local.name].add_neighbor(
                OSPFPeerConfig(
                    peer_name=remote.name,
                    peer_router_id=daemons[remote.name].config.router_id,
                    local_port=port,
                    peer_address=peer_address,
                    cost=cost,
                ),
                channel,
            )

    for daemon in daemons.values():
        exp.sim.add_process(daemon)
    exp.ospf_daemons = daemons
    return daemons
