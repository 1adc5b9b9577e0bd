"""The simulated network: topology container and fluid-traffic engine.

:class:`Network` owns the nodes and links, tracks the set of active
fluid flows, walks the forwarding state to compute each flow's path,
and drives the max-min fair solver whenever something changes:

* a flow starts or ends;
* the control plane reprograms forwarding state (FIB installs and
  OpenFlow flow-mods invalidate routing through the Connection
  Manager).

Recomputations triggered within the same instant are coalesced into a
single event, so a burst of BGP route installs or a path-wide set of
flow-mods costs one reallocation, not one per message.

Reallocations themselves are *incremental* (PR 2): the
:class:`~repro.dataplane.realloc.ReallocEngine` caches walked paths,
re-walks only flows invalidated by epoch-tracked forwarding-state
changes, and re-solves only the affected connected components of the
flow/link sharing graph.  It owns byte accrual too: :meth:`accrue`,
:meth:`finalize_accounting` and :meth:`stop_flow` delegate to it.

The network also forwards *individual* packets (first packets of
missing flows, PACKET_OUT frames) hop by hop with per-link delays.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.core.errors import ConfigurationError, DataPlaneError, TopologyError
from repro.dataplane.flow import FluidFlow, PathResult, PathStatus
from repro.dataplane.host import Host
from repro.dataplane.realloc import ReallocEngine
from repro.dataplane.link import Link, LinkDirection
from repro.dataplane.node import ForwardingDecision, Node
from repro.dataplane.router import Router
from repro.dataplane.switch import Switch
from repro.netproto.addr import AddressError, IPv4Address

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.simulation import Simulation
    from repro.netproto.packet import Packet

MAX_HOPS = 128


class Network:
    """Topology + fluid flows + packet events."""

    def __init__(self, name: str = "net"):
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self.flows: List[FluidFlow] = []
        self._flow_ids: set = set()
        self.sim: Optional["Simulation"] = None
        self.recomputations = 0
        self.packets_forwarded = 0
        self._recompute_pending = False
        self._last_recompute = -float("inf")
        # Bumped on any topology mutation (new node/link); the realloc
        # engine answers with one full recompute, since cached walk
        # outcomes can depend on state no per-entity epoch witnesses.
        self.topo_epoch = 0
        # Name-sorted node lists by class (plus the host-by-IP index),
        # dropped when topo_epoch moves past _sorted_epoch.
        self._sorted_epoch = -1
        self._sorted: dict = {}
        # Dirt is pushed, not polled: every mutation that bumps a
        # node's fwd_epoch or a link's path/cap epoch registers its
        # owner here, and the realloc engine compares epochs only for
        # these (see ReallocEngine._scan_epochs).
        self._touched_nodes: set = set()
        self._touched_links: set = set()
        # The incremental reallocation engine (PR 2) and the switch
        # to its reference path: False marks everything dirty on every
        # recompute.  Results are identical either way; only the oracle
        # tests and bench_reallocation.py set it, on networks they build.
        self.realloc = ReallocEngine(self)
        self.incremental_realloc = True
        # Minimum spacing between reallocations, in simulated seconds.
        # 0 recomputes at every distinct change instant (exact).  A few
        # milliseconds models FIB/TCAM programming latency and lets a
        # convergence burst of route installs coalesce — large BGP
        # experiments run several times faster with ~5 ms here.
        self.recompute_min_interval = 0.0
        # Hooks fired after every reallocation; stats and tests use them.
        self.on_reallocation: List[Callable[[float], None]] = []

    # -- topology construction ------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register a node; names must be unique."""
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        node.network = self
        node._net_index = len(self.nodes)
        self.nodes[node.name] = node
        self.topo_epoch += 1
        return node

    def add_host(self, name: str, ip, gateway=None) -> Host:
        """Create and register a host."""
        host = Host(name, ip, gateway)
        self.add_node(host)
        return host

    def add_switch(self, name: str, dpid: "int | None" = None) -> Switch:
        """Create and register an OpenFlow switch."""
        switch = Switch(name, dpid=dpid)
        self.add_node(switch)
        return switch

    def add_router(self, name: str, router_id=None) -> Router:
        """Create and register a router."""
        router = Router(name, router_id=router_id)
        self.add_node(router)
        return router

    def get_node(self, name: str) -> Node:
        """Look a node up by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def add_link(
        self,
        node_a: "Node | str",
        node_b: "Node | str",
        capacity_bps: float = 1_000_000_000,
        delay: float = 0.000_05,
        port_a: "int | None" = None,
        port_b: "int | None" = None,
    ) -> Link:
        """Connect two nodes with a new link, allocating ports as needed."""
        a = self.get_node(node_a) if isinstance(node_a, str) else node_a
        b = self.get_node(node_b) if isinstance(node_b, str) else node_b
        pa = self._pick_port(a, port_a)
        pb = self._pick_port(b, port_b)
        link = Link(pa, pb, capacity_bps=capacity_bps, delay=delay)
        link.network = self
        link._net_index = len(self.links)
        self.links.append(link)
        self.topo_epoch += 1
        return link

    @staticmethod
    def _pick_port(node: Node, requested: "int | None"):
        if requested is not None:
            port = node.ports.get(requested) or node.add_port(requested)
        else:
            port = next(
                (p for p in sorted(node.ports.values(), key=lambda p: p.number)
                 if not p.connected()),
                None,
            ) or node.add_port()
        if port.connected():
            raise TopologyError(f"port {node.name}:{port.number} already wired")
        return port

    def _nodes_of(self, cls) -> list:
        """The name-sorted nodes of one class, cached until the topology
        next grows.  The list is shared: internal callers iterate,
        never mutate."""
        if self._sorted_epoch != self.topo_epoch:
            self._sorted_epoch = self.topo_epoch
            self._sorted = {}
        nodes = self._sorted.get(cls)
        if nodes is None:
            nodes = self._sorted[cls] = sorted(
                (n for n in self.nodes.values() if isinstance(n, cls)),
                key=lambda n: n.name)
        return nodes

    def hosts(self) -> List[Host]:
        """All hosts, sorted by name."""
        return list(self._nodes_of(Host))

    def switches(self) -> List[Switch]:
        """All switches, sorted by name."""
        return list(self._nodes_of(Switch))

    def routers(self) -> List[Router]:
        """All routers, sorted by name."""
        return list(self._nodes_of(Router))

    def host_by_ip(self, ip) -> Optional[Host]:
        """Find the host owning an IP, if any."""
        try:
            key = int(IPv4Address(ip))
        except AddressError:
            return None
        hosts = self._nodes_of(Host)
        by_ip = self._sorted.get("host_by_ip")
        if by_ip is None:
            by_ip = self._sorted["host_by_ip"] = {}
            for host in hosts:
                by_ip.setdefault(int(host.ip), host)
        return by_ip.get(key)

    def graph(self) -> "networkx.Graph":
        """A networkx export of the topology (for tests and notebooks;
        nothing on the run path reads it)."""
        import networkx as nx

        graph = nx.Graph()
        for name in self.nodes:
            graph.add_node(name, kind=self.nodes[name].kind)
        for link in self.links:
            a, b = link.endpoints()
            graph.add_edge(
                a.name,
                b.name,
                capacity=link.capacity_bps,
                delay=link.delay,
                port_a=link.port_a.number,
                port_b=link.port_b.number,
                up=link.up,
            )
        return graph

    # -- simulation binding ----------------------------------------------------

    def bind(self, sim: "Simulation") -> None:
        """Attach this network to a simulation (called by the sim)."""
        self.sim = sim
        self.realloc.last_accrual = sim.clock.now

    def _require_sim(self) -> "Simulation":
        if self.sim is None:
            raise DataPlaneError("network is not attached to a simulation")
        return self.sim

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._require_sim().clock.now

    # -- flows -------------------------------------------------------------------

    def add_flow(self, flow: FluidFlow) -> FluidFlow:
        """Register a flow and schedule its start/end events.  Flow ids
        key the realloc engine's caches, so an id already held (a flow
        created before another experiment restarted numbering) is a
        :class:`ConfigurationError`."""
        sim = self._require_sim()
        if flow.id in self._flow_ids:
            raise ConfigurationError(
                f"flow id {flow.id} is already registered on {self.name!r}")
        self._flow_ids.add(flow.id)
        self.flows.append(flow)
        sim.scheduler.at(flow.start_time, _start_flow, self, flow)
        if flow.end_time is not None:
            sim.scheduler.at(flow.end_time, _stop_flow, self, flow)
        return flow

    def start_flow(self, flow: FluidFlow) -> None:
        """Activate a flow now and trigger reallocation."""
        if flow.active:
            return
        flow.active = True
        self.realloc.mark_flow_dirty(flow)
        self.invalidate_routing()

    def stop_flow(self, flow: FluidFlow) -> None:
        """Deactivate a flow now and trigger reallocation: its bytes
        stop here, the rates read until the recompute do not (see
        :meth:`ReallocEngine.stop`)."""
        if flow.active:
            self.realloc.stop(flow, self.now)
            self.invalidate_routing()

    def active_flows(self) -> List[FluidFlow]:
        """Flows currently sending."""
        return [flow for flow in self.flows if flow.active]

    # -- path computation ----------------------------------------------------------

    def compute_path(self, flow: FluidFlow) -> PathResult:
        """Walk the forwarding state from src to dst for one flow."""
        node: Node = flow.src
        in_port: Optional[int] = None
        hops: List[LinkDirection] = []
        entries = []
        macs = (flow.src.mac, flow.dst.mac)
        for __ in range(MAX_HOPS):
            if not node.up:
                return PathResult(
                    PathStatus.DROPPED, hops=hops, entries=entries,
                    miss_node=node.name, detail="node down",
                )
            decision = node.forward_flow(flow.key, in_port, macs=macs)
            if decision.action == ForwardingDecision.DELIVER:
                return PathResult(PathStatus.DELIVERED, hops=hops, entries=entries)
            if decision.action == ForwardingDecision.MISS:
                return PathResult(
                    PathStatus.MISS, hops=hops, entries=entries,
                    miss_node=node.name, detail=decision.reason,
                )
            if decision.action == ForwardingDecision.NO_ROUTE:
                return PathResult(
                    PathStatus.NO_ROUTE, hops=hops, entries=entries,
                    miss_node=node.name, detail=decision.reason,
                )
            if decision.action == ForwardingDecision.DROP:
                return PathResult(
                    PathStatus.DROPPED, hops=hops, entries=entries,
                    miss_node=node.name, detail=decision.reason,
                )
            # FORWARD
            port = node.port(decision.out_port)
            if not port.connected():
                return PathResult(
                    PathStatus.DROPPED, hops=hops, entries=entries,
                    miss_node=node.name,
                    detail=f"port {port.number} not connected",
                )
            if not port.link.up:
                return PathResult(
                    PathStatus.DROPPED, hops=hops, entries=entries,
                    miss_node=node.name, detail="link down",
                    blocking_link=port.link,
                )
            direction = port.link.direction_from(port)
            hops.append(direction)
            if decision.entry is not None and isinstance(node, Switch):
                entries.append((node, decision.entry))
            peer = port.peer()
            node = peer.node
            in_port = peer.number
        return PathResult(PathStatus.LOOP, hops=hops, entries=entries,
                          detail=f"no delivery within {MAX_HOPS} hops")

    # -- failure injection -------------------------------------------------------------

    def set_node_up(self, name: str, up: bool) -> None:
        """Administratively fail/recover a whole node and reroute.

        A down node stops forwarding fluid flows and sinks packet
        events.  Callers that also want the node's cables and control
        sessions cut should use
        :meth:`repro.api.experiment.Experiment.fail_node`, which layers
        those on top of this switch-level flag.
        """
        node = self.get_node(name)
        if node.up == up:
            return
        node.up = up
        self.invalidate_routing()

    # -- reallocation ------------------------------------------------------------------

    def invalidate_routing(self) -> None:
        """Request a reallocation; requests inside the same instant (or
        the same ``recompute_min_interval`` window) coalesce."""
        sim = self._require_sim()
        if self._recompute_pending:
            return
        self._recompute_pending = True
        when = sim.clock.now
        if self.recompute_min_interval > 0:
            when = max(when, self._last_recompute + self.recompute_min_interval)
        sim.scheduler.at(when, _recompute_due, self)

    def recompute(self, now: float) -> None:
        """Recompute paths and rates at ``now``.

        The heavy lifting lives in :class:`ReallocEngine`: only flows
        whose cached path crosses a changed link/node (or that started
        or stopped) are re-walked, and only the affected connected
        components of the flow/link sharing graph are re-solved.  With
        ``incremental_realloc`` off, every recompute walks and solves
        everything — same code path, everything marked dirty.
        """
        # Close the rate segment but defer the counter work: the engine
        # seals the timeline only when rates can actually change, so
        # recompute storms with no dirt skip accrual entirely.
        self.realloc.close_segment(now)
        self.recomputations += 1
        self._last_recompute = now
        self.realloc.recompute(now, full=not self.incremental_realloc)
        for hook in self.on_reallocation:
            hook(now)

    def _report_miss(self, flow: FluidFlow, result: PathResult, now: float) -> None:
        """Raise a PACKET_IN for a table miss, at most once per (flow,
        switch, table version).

        A real switch punts every missing packet; in the fluid model
        the flow re-misses on each recompute, so a guard is needed —
        but it must reset when the switch's table changes, otherwise a
        flow that missed before the relevant entry existed could never
        trigger the controller again (e.g. the reverse direction of a
        learning-switch conversation).
        """
        switch = self.nodes.get(result.miss_node)
        if not isinstance(switch, Switch) or switch.agent is None:
            return
        version_seen = flow.reported_misses.get(switch.name)
        if version_seen is not None and version_seen >= switch.table.version:
            return
        flow.reported_misses[switch.name] = switch.table.version
        if result.hops:
            in_port = result.hops[-1].dst_port.number
        else:
            in_port = 0
        switch.agent.packet_in(in_port, flow.first_packet(), now)

    # -- byte accounting -----------------------------------------------------------------

    def accrue(self, now: float) -> None:
        """A read point: flow and flow-table entry byte counters are
        current as of ``now`` on return.  Direction, port and host
        counters need none: they read through their rate spans."""
        self.realloc.accrue(now)

    def finalize_accounting(self) -> None:
        """Materialize any active quotient state back onto concrete
        flows, then bring the byte counters current with everything
        accrued so far.  Callers reading per-flow bytes after a run (the
        scenario runner, result extraction) go through this.
        """
        self.realloc.finalize()

    def aggregate_rx_rate(self) -> float:
        """Total rate arriving at all hosts (bps) — the demo's metric."""
        return sum(host.rx_rate_bps for host in self.hosts())

    # -- packet events --------------------------------------------------------------------

    def inject_packet(self, node: "Node | str", in_port: "int | None",
                      packet: "Packet") -> None:
        """Run a packet through a node's pipeline, then across links."""
        origin = self.get_node(node) if isinstance(node, str) else node
        if not origin.up:
            return  # a failed node sinks everything
        # A switch stamps the entry the packet hits; the sealed timeline
        # stamps entries too, with earlier times, so it goes first.
        self.realloc.replay_accrual()
        outputs = origin.handle_packet(in_port, packet, self.now)
        self.transmit(origin, outputs)

    def transmit(self, origin: "Node", outputs) -> None:
        """Send (port, packet) pairs out of a node across its links.

        Also the entry point for PACKET_OUT: the switch agent resolves
        the action list to concrete ports and hands the result here.
        """
        sim = self._require_sim()
        many = len(outputs) > 1
        for port_no, out_packet in outputs:
            port = origin.ports.get(port_no)
            if port is None or not port.connected() or not port.link.up:
                continue
            to_send = copy.deepcopy(out_packet) if many else out_packet
            port.tx_packets += 1
            # Packet bytes settle on the port counters the direction's
            # rate span also feeds.
            direction = port.link.direction_from(port)
            self.realloc.credit_packet(direction, port, to_send.size)
            self.packets_forwarded += 1
            sim.scheduler.after(port.link.delay, _packet_arrives,
                                self, direction, to_send)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network {self.name!r} nodes={len(self.nodes)} links={len(self.links)} "
            f"flows={len(self.flows)}>"
        )


# -- scheduled actions ---------------------------------------------------------------
#
# Module functions taking their operands, not closures or bound methods:
# scheduling one is one CallbackEvent (docs/control_plane.md, "What a
# scheduled action costs").  Each looks its callee up when it fires, so
# a hook patched on a network after the flows were added still runs.

def _start_flow(network: Network, flow: FluidFlow) -> None:
    network.start_flow(flow)


def _stop_flow(network: Network, flow: FluidFlow) -> None:
    network.stop_flow(flow)


def _recompute_due(network: Network) -> None:
    network._recompute_pending = False
    network.recompute(network.now)


def _packet_arrives(network: Network, direction: LinkDirection,
                    packet: "Packet") -> None:
    peer_port = direction.dst_port
    peer_port.rx_packets += 1
    network.realloc.credit_packet(direction, peer_port, packet.size)
    network.inject_packet(peer_port.node, peer_port.number, packet)
