"""The Experiment facade."""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.controllers.topology_view import TopologyView
from repro.core.config import SimulationConfig
from repro.core.errors import ConfigurationError
from repro.core.simulation import RunReport, Simulation
from repro.dataplane.flow import FluidFlow
from repro.dataplane.link import Link
from repro.dataplane.network import Network
from repro.dataplane.node import reset_auto_macs
from repro.dataplane.stats import StatsCollector
from repro.dataplane.switch import reset_dpids
from repro.openflow.controller import Controller, ControllerApp
from repro.openflow.switch_agent import SwitchAgent
from repro.topology.topo import Topo
from repro.traffic.generators import TrafficSpec, cbr_udp_flows, demo_workload


# -- scheduled actions -------------------------------------------------------------
#
# What a failure injection or a switch's expiry check does when it fires.
# Module functions taking their operands, not closures: scheduling one is
# one CallbackEvent (docs/control_plane.md, "What a scheduled action
# costs"), and everything is looked up when the action fires.

def _cut(experiment: "Experiment", link: Link, channels) -> None:
    link.set_up(False)
    for channel in channels:
        channel.close()
    experiment.network.invalidate_routing()


def _replug(experiment: "Experiment", link: Link, channels) -> None:
    link.set_up(True)
    for channel in channels:
        channel.reopen()
    experiment.network.invalidate_routing()


def _node_down(experiment: "Experiment", name: str, attachments) -> None:
    experiment.network.set_node_up(name, False)
    for link, channels in attachments:
        link.set_up(False)
        for channel in channels:
            channel.close()
    experiment.network.invalidate_routing()


def _node_up(experiment: "Experiment", name: str, attachments) -> None:
    experiment.network.set_node_up(name, True)
    for link, channels in attachments:
        link.set_up(True)
        for channel in channels:
            channel.reopen()
    experiment.network.invalidate_routing()


def _degrade(experiment: "Experiment", link: Link, factor: float) -> None:
    link.set_capacity(link.nominal_capacity_bps * factor)
    experiment.network.invalidate_routing()


def _repair(experiment: "Experiment", link: Link) -> None:
    link.set_capacity(link.nominal_capacity_bps)
    experiment.network.invalidate_routing()


def _expire_entries(experiment: "Experiment", agent: SwitchAgent) -> None:
    agent.tick(experiment.sim.clock.now)


@dataclass
class ExperimentResult:
    """Everything an experiment run produced."""

    report: RunReport
    setup_wall_seconds: float
    cm_stats: Dict[str, int] = field(default_factory=dict)
    aggregate_rx_bps: float = 0.0
    mean_aggregate_rx_bps: float = 0.0
    flows_delivered: int = 0
    flows_total: int = 0
    # (time, aggregate bps) samples — the demo's closing graph.
    aggregate_series: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def total_wall_seconds(self) -> float:
        """Setup + execution wall time — the Figure 3 measurement."""
        return self.setup_wall_seconds + self.report.wall_seconds


class Experiment:
    """One Horse experiment: topology + control plane + traffic."""

    def __init__(self, name: str = "experiment",
                 config: "SimulationConfig | None" = None):
        self.name = name
        setup_start = _time.perf_counter()
        # Every process-global id counter a result could observe (flow
        # ids reach five-tuple ECMP hashes through source ports)
        # restarts, so a run does not depend on what ran before it.
        Link.reset_ids()
        FluidFlow.reset_ids()
        reset_auto_macs()
        reset_dpids()
        self.sim = Simulation(config)
        self.network = Network(name)
        self.sim.attach_network(self.network)
        self.controller: Optional[Controller] = None
        self.agents: List[SwitchAgent] = []
        self.stats: Optional[StatsCollector] = None
        self.topo: Optional[Topo] = None
        self.bgp_daemons: Dict[str, object] = {}
        self.ospf_daemons: Dict[str, object] = {}
        self.flows: List[FluidFlow] = []
        # Control channels that ride a physical link, keyed by the
        # unordered endpoint pair — failure injection cuts them
        # together with the cable.
        self._link_channels: Dict[frozenset, list] = {}
        # Endpoint-pair -> link lookup, rebuilt whenever links were
        # added since it was last used (len is the change signal: links
        # are append-only).
        self._link_lookup: "Dict[frozenset, Any] | None" = None
        self._link_lookup_count = 0
        self._setup_wall = _time.perf_counter() - setup_start

    # -- topology -----------------------------------------------------------------

    def load_topo(self, topo: Topo) -> None:
        """Realise a declarative topology onto the data plane."""
        start = _time.perf_counter()
        topo.realize(self.network)
        self.topo = topo
        self._setup_wall += _time.perf_counter() - start

    def add_host(self, name: str, ip: str, gateway: "str | None" = None):
        """Create a host directly (script-style construction)."""
        return self.network.add_host(name, ip, gateway)

    def add_switch(self, name: str):
        """Create an OpenFlow switch directly."""
        return self.network.add_switch(name)

    def add_router(self, name: str, router_id: "str | None" = None):
        """Create a router directly."""
        return self.network.add_router(name, router_id=router_id)

    def add_link(self, node_a, node_b, capacity_bps: float = 1_000_000_000,
                 delay: float = 0.000_05, port_a=None, port_b=None):
        """Create a link directly."""
        return self.network.add_link(
            node_a, node_b, capacity_bps=capacity_bps, delay=delay,
            port_a=port_a, port_b=port_b,
        )

    def topology_view(self) -> TopologyView:
        """A controller-side view of the current topology."""
        return TopologyView(self.network)

    # -- failure injection --------------------------------------------------------

    def register_link_channel(self, node_a: str, node_b: str, channel) -> None:
        """Associate a control channel with the (a, b) physical link so
        failure injection cuts both together."""
        key = frozenset((node_a, node_b))
        self._link_channels.setdefault(key, []).append(channel)

    def _find_link(self, node_a: str, node_b: str):
        links = self.network.links
        if self._link_lookup is None or self._link_lookup_count != len(links):
            lookup: Dict[frozenset, Any] = {}
            for link in links:
                key = frozenset(node.name for node in link.endpoints())
                lookup.setdefault(key, link)  # first match wins, as before
            self._link_lookup = lookup
            self._link_lookup_count = len(links)
        link = self._link_lookup.get(frozenset((node_a, node_b)))
        if link is None:
            raise ConfigurationError(
                f"no link between {node_a!r} and {node_b!r}")
        return link

    def fail_link(self, node_a: str, node_b: str,
                  at: "float | None" = None) -> None:
        """Cut the cable between two nodes (now, or at a future time).

        The data-plane link goes down, any control channels riding it
        (BGP/OSPF sessions) stop carrying bytes — the protocols then
        notice via their own hold/dead timers, exactly as in reality —
        and routing is recomputed.
        """
        link = self._find_link(node_a, node_b)
        channels = self._link_channels.get(frozenset((node_a, node_b)), [])
        if at is None:
            _cut(self, link, channels)
        else:
            self.sim.scheduler.at(at, _cut, self, link, channels)

    def restore_link(self, node_a: str, node_b: str,
                     at: "float | None" = None) -> None:
        """Replug the cable; control channels start carrying bytes
        again and the daemons' own retry/hello machinery re-converges."""
        link = self._find_link(node_a, node_b)
        channels = self._link_channels.get(frozenset((node_a, node_b)), [])
        if at is None:
            _replug(self, link, channels)
        else:
            self.sim.scheduler.at(at, _replug, self, link, channels)

    def _node_links(self, name: str):
        """(link, channels) pairs for every cable attached to a node."""
        node = self.network.get_node(name)
        result = []
        for port in sorted(node.ports.values(), key=lambda p: p.number):
            if port.link is None:
                continue
            a, b = port.link.endpoints()
            channels = self._link_channels.get(frozenset((a.name, b.name)), [])
            result.append((port.link, channels))
        return result

    def fail_node(self, name: str, at: "float | None" = None) -> None:
        """Take a whole device down (now, or at a future time).

        The node stops forwarding, every attached cable goes dark, and
        the control sessions riding those cables stop carrying bytes —
        its neighbours' protocols notice through their own hold/dead
        timers, exactly as with :meth:`fail_link`.
        """
        attachments = self._node_links(name)
        if at is None:
            _node_down(self, name, attachments)
        else:
            self.sim.scheduler.at(at, _node_down, self, name, attachments)

    def restore_node(self, name: str, at: "float | None" = None) -> None:
        """Bring a failed device back, with all its cables.

        Symmetric with :meth:`fail_node`: every attached link comes up
        and its control channels reopen, so daemons re-converge via
        their normal retry machinery.  (A link that was *also* failed
        independently comes back too — model maintenance that replaces
        the whole chassis.)
        """
        attachments = self._node_links(name)
        if at is None:
            _node_up(self, name, attachments)
        else:
            self.sim.scheduler.at(at, _node_up, self, name, attachments)

    def degrade_link(self, node_a: str, node_b: str, factor: float,
                     at: "float | None" = None,
                     until: "float | None" = None) -> None:
        """Gray failure: scale a link's capacity without cutting it.

        The cable stays up and control sessions keep flowing, but the
        fluid solver sees ``nominal * factor`` — the silent-brownout
        case that link-state protocols do not react to.  ``until``
        optionally schedules the repair back to nominal capacity.
        """
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(
                f"degrade factor must be in (0, 1], got {factor}")
        link = self._find_link(node_a, node_b)
        if at is None:
            _degrade(self, link, factor)
        else:
            self.sim.scheduler.at(at, _degrade, self, link, factor)
        if until is not None:
            self.sim.scheduler.at(until, _repair, self, link)

    # -- control plane ----------------------------------------------------------------

    def use_controller(
        self,
        apps: "Sequence[ControllerApp] | None" = None,
        controller: "Controller | None" = None,
        channel_latency: float = 0.000_2,
        expiry_check_interval: float = 1.0,
    ) -> Controller:
        """Attach an OpenFlow controller to every switch.

        Creates one :class:`SwitchAgent` per switch, opens a Connection
        Manager channel each, and registers everything as emulated
        processes.  ``apps`` are hosted on the controller.
        """
        if self.controller is not None:
            raise ConfigurationError("experiment already has a controller")
        start = _time.perf_counter()
        controller = controller or Controller(name=f"{self.name}-controller")
        for app in apps or []:
            controller.add_app(app)
        for switch in self.network.switches():
            agent = SwitchAgent(switch, matches=controller.matches)
            channel = self.sim.cm.open_channel(
                controller, agent, latency=channel_latency,
                label=f"of-{switch.name}",
            )
            agent.bind_channel(channel)
            controller.bind_channel(channel, switch.name)
            self.sim.add_process(agent)
            self.agents.append(agent)
            if expiry_check_interval > 0:
                self.sim.scheduler.periodic(
                    expiry_check_interval, _expire_entries, self, agent,
                    label=f"expiry {switch.name}",
                )
        self.sim.add_process(controller)
        self.controller = controller
        self._setup_wall += _time.perf_counter() - start
        return controller

    # -- traffic ---------------------------------------------------------------------

    def add_flow(self, src_name: str, dst_name: str, rate_bps: float,
                 start_time: float = 0.0,
                 duration: "float | None" = None, dst_port: int = 9000) -> FluidFlow:
        """Add a single CBR flow between two hosts."""
        src = self.network.get_node(src_name)
        dst = self.network.get_node(dst_name)
        flow = FluidFlow(
            src=src, dst=dst, demand_bps=rate_bps, dst_port=dst_port,
            start_time=start_time,
            end_time=None if duration is None else start_time + duration,
        )
        self.network.add_flow(flow)
        self.flows.append(flow)
        return flow

    def add_traffic(self, pairs: Sequence[Tuple[str, str]],
                    spec: "TrafficSpec | None" = None) -> List[FluidFlow]:
        """Add one CBR UDP flow per (src, dst) host pair."""
        flows = cbr_udp_flows(self.network, pairs, spec=spec,
                              seed=self.sim.config.seed)
        self.flows.extend(flows)
        return flows

    def add_demo_traffic(self, rate_bps: float = 1e9, duration: float = 10.0,
                         start_time: float = 0.0) -> List[FluidFlow]:
        """The paper's demo workload: permutation of 1 Gbps UDP flows."""
        hosts = [h.name for h in self.network.hosts()]
        flows = demo_workload(
            self.network, hosts, rate_bps=rate_bps, duration=duration,
            start_time=start_time, seed=self.sim.config.seed,
        )
        self.flows.extend(flows)
        return flows

    # -- statistics ---------------------------------------------------------------------

    def add_stats(self, interval: "float | None" = None) -> StatsCollector:
        """Attach the periodic statistics sampler."""
        chosen = interval if interval is not None else self.sim.config.stats_interval
        self.stats = StatsCollector(self.network, interval=chosen)
        self.stats.attach(self.sim)
        return self.stats

    # -- execution ----------------------------------------------------------------------

    def run(self, until: float, settle: float = 0.0,
            measure_until: "float | None" = None) -> ExperimentResult:
        """Run to ``until`` simulated seconds and summarise.

        ``settle`` (simulated seconds) excludes the convergence
        transient from the mean-throughput figure; ``measure_until``
        excludes samples after traffic has ended.
        """
        report = self.sim.run(until=until)
        delivered = sum(
            1 for flow in self.flows
            if flow.path is not None and flow.path.delivered
        )
        result = ExperimentResult(
            report=report,
            setup_wall_seconds=self._setup_wall,
            cm_stats=self.sim.cm.stats(),
            aggregate_rx_bps=self.network.aggregate_rx_rate(),
            mean_aggregate_rx_bps=(
                self.stats.mean_aggregate_bps(after=settle, before=measure_until)
                if self.stats else 0.0
            ),
            flows_delivered=delivered,
            flows_total=len(self.flows),
            aggregate_series=(
                [(s.time, s.aggregate_rx_bps) for s in self.stats.samples]
                if self.stats else []
            ),
        )
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Experiment {self.name!r} {self.network!r}>"
