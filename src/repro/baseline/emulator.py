"""The Mininet-style emulator: real-time-bound, packet-by-packet.

Runs the same declarative :class:`~repro.topology.topo.Topo` and the
same UDP workloads as the Horse side, but the way an emulator must:

* :meth:`PacketLevelEmulator.setup` pays per-element creation costs
  (namespace/veth/bridge equivalents) as real scaled sleeps;
* :meth:`PacketLevelEmulator.run_udp_workload` forwards every packet
  of every flow hop-by-hop through a DES (genuine CPU work), *and*
  occupies the experiment's real-time duration (scaled sleep) —
  emulation cannot fast-forward quiet periods, which is exactly the
  drawback the paper's hybrid design removes.

Forwarding state is a per-flow ECMP path (hash over equal-cost
shortest paths, same hash family as the Horse data plane), installed
before traffic starts — i.e. the baseline gets its control plane for
free, a deliberately *generous* simplification.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.baseline.engine import PacketEngine
from repro.core.errors import TopologyError
from repro.netproto.hashing import ecmp_hash
from repro.topology.paths import hop_distances, shortest_paths
from repro.topology.topo import Topo


@dataclass
class SetupCosts:
    """Per-element emulation setup costs, in (unscaled) seconds.

    Defaults are in the range reported for Mininet on commodity
    hardware: a network namespace + shell per host, an OVS bridge per
    switch, a veth pair + attachment per link, plus fixed controller
    start-up.
    """

    per_host: float = 0.08
    per_switch: float = 0.30
    per_link: float = 0.05
    per_host_teardown: float = 0.02
    per_switch_teardown: float = 0.05
    controller: float = 0.5

    def setup_total(self, hosts: int, switches: int, links: int) -> float:
        """Total modelled setup seconds for a topology."""
        return (
            self.controller
            + hosts * self.per_host
            + switches * self.per_switch
            + links * self.per_link
        )

    def teardown_total(self, hosts: int, switches: int) -> float:
        """Total modelled teardown seconds."""
        return hosts * self.per_host_teardown + switches * self.per_switch_teardown


@dataclass
class EmulationReport:
    """What one baseline run cost."""

    wall_seconds: float = 0.0        # actually measured (scaled sleeps + CPU)
    modeled_seconds: float = 0.0     # unscaled estimate (what Mininet would take)
    setup_wall_seconds: float = 0.0
    packets_sent: int = 0
    packets_delivered: int = 0
    events_processed: int = 0
    host_rx_bytes: Dict[str, float] = field(default_factory=dict)


class PacketLevelEmulator:
    """A real-time, per-packet emulator for one topology."""

    def __init__(
        self,
        topo: Topo,
        time_scale: float = 1.0,
        costs: "SetupCosts | None" = None,
        packet_size_bytes: int = 1500,
        seed: int = 42,
    ):
        if time_scale < 0:
            raise TopologyError("time_scale must be non-negative")
        self.topo = topo
        self.time_scale = time_scale
        self.costs = costs or SetupCosts()
        self.packet_size_bytes = packet_size_bytes
        self.seed = seed
        self.engine = PacketEngine()
        self.is_set_up = False
        self.setup_wall_seconds = 0.0
        self.modeled_setup_seconds = 0.0
        # Forwarding state: (switch, flow id) -> next node name.
        self._next_hop: Dict[Tuple[str, int], str] = {}
        self._host_edge: Dict[str, str] = {}
        # The emulated network: node -> {neighbour: link delay}.
        self._delays: Dict[str, Dict[str, float]] = {}
        self._host_rx_bytes: Dict[str, float] = {}
        self._host_rx_packets: Dict[str, int] = {}
        self._delivered = 0
        self._sent = 0

    # -- lifecycle ---------------------------------------------------------------

    def setup(self) -> float:
        """Create the topology, paying per-element costs; returns wall s."""
        start = _time.perf_counter()
        host_names = self.topo.hosts()
        device_names = list(self.topo.switch_specs)
        self._sleep(self.costs.controller)
        for name in host_names:
            self._delays[name] = {}
            self._sleep(self.costs.per_host)
        for name in device_names:
            self._delays[name] = {}
            self._sleep(self.costs.per_switch)
        for link in self.topo.link_specs:
            self._delays[link.node_a][link.node_b] = link.delay
            self._delays[link.node_b][link.node_a] = link.delay
            self._sleep(self.costs.per_link)
        for host in host_names:
            if self._delays[host]:
                self._host_edge[host] = next(iter(self._delays[host]))
        self.modeled_setup_seconds = self.costs.setup_total(
            len(host_names), len(device_names), len(self.topo.link_specs)
        )
        self.is_set_up = True
        self.setup_wall_seconds = _time.perf_counter() - start
        return self.setup_wall_seconds

    def teardown(self) -> float:
        """Tear the emulated network down (namespace/bridge deletion)."""
        start = _time.perf_counter()
        total = self.costs.teardown_total(
            len(self.topo.hosts()), len(self.topo.switch_specs)
        )
        self._sleep(total)
        self.is_set_up = False
        return _time.perf_counter() - start

    def _sleep(self, unscaled_seconds: float) -> None:
        if self.time_scale > 0 and unscaled_seconds > 0:
            _time.sleep(unscaled_seconds * self.time_scale)

    # -- routing ------------------------------------------------------------------

    def install_ecmp_paths(
        self, pairs: Sequence[Tuple[str, str]], hash_seed: int = 0
    ) -> None:
        """Pick an ECMP shortest path per flow and install next hops.

        Same hash family as the Horse data plane, so path choices are
        statistically comparable between the two tools.
        """
        devices = self.topo.switch_specs
        fabric = {name: tuple(peer for peer in around if peer in devices)
                  for name, around in self._delays.items() if name in devices}
        dist_cache: Dict[str, Dict[str, int]] = {}
        path_cache: Dict[Tuple[str, str], List[List[str]]] = {}
        for flow_id, (src, dst) in enumerate(pairs):
            src_edge = self._host_edge.get(src)
            dst_edge = self._host_edge.get(dst)
            if src_edge is None or dst_edge is None:
                raise TopologyError(f"host {src!r} or {dst!r} is not attached")
            key = (src_edge, dst_edge)
            paths = path_cache.get(key)
            if paths is None:
                if src_edge not in dist_cache:
                    dist_cache[src_edge] = hop_distances(fabric, src_edge)
                paths = path_cache[key] = shortest_paths(
                    fabric, dist_cache[src_edge], src_edge, dst_edge)
                if not paths:
                    raise TopologyError(
                        f"no path from {src!r} to {dst!r} through the "
                        f"switches")
            index = ecmp_hash(
                five_tuple_hash_from_id(flow_id, hash_seed), len(paths)
            )
            path = paths[index]
            for position, switch in enumerate(path):
                if position + 1 < len(path):
                    self._next_hop[(switch, flow_id)] = path[position + 1]
                else:
                    self._next_hop[(switch, flow_id)] = dst

    # -- traffic -------------------------------------------------------------------

    def run_udp_workload(
        self,
        pairs: Sequence[Tuple[str, str]],
        duration: float,
        packets_per_second: float = 20.0,
    ) -> EmulationReport:
        """Send CBR UDP packet trains for every pair; returns the report.

        The run costs real wall time twice over, as emulation does:
        the per-packet event processing (CPU) and the experiment's
        real-time duration (scaled sleep for whatever the CPU time did
        not already cover).
        """
        if not self.is_set_up:
            raise TopologyError("setup() must run before traffic")
        start = _time.perf_counter()
        self.engine.reset()
        self._delivered = 0
        self._sent = 0
        self._host_rx_bytes = {}
        self._host_rx_packets = {}
        self.install_ecmp_paths(pairs, hash_seed=self.seed)

        interval = 1.0 / packets_per_second
        rng = random.Random(self.seed)
        for flow_id, (src, dst) in enumerate(pairs):
            offset = rng.uniform(0, interval)  # desynchronise senders
            self._schedule_train(flow_id, src, dst, offset, interval, duration)

        self.engine.run()
        cpu_seconds = _time.perf_counter() - start
        # Emulation runs in real time: if event processing finished
        # early, the experiment still occupies the remaining wall time.
        remaining = duration * self.time_scale - cpu_seconds
        if remaining > 0:
            _time.sleep(remaining)
        wall = _time.perf_counter() - start
        modeled = max(duration, cpu_seconds / max(self.time_scale, 1e-9)
                      if self.time_scale > 0 else duration)
        return EmulationReport(
            wall_seconds=wall,
            modeled_seconds=modeled,
            setup_wall_seconds=self.setup_wall_seconds,
            packets_sent=self._sent,
            packets_delivered=self._delivered,
            events_processed=self.engine.events_processed,
            host_rx_bytes=dict(self._host_rx_bytes),
        )

    def _schedule_train(self, flow_id: int, src: str, dst: str,
                        offset: float, interval: float, duration: float) -> None:
        edge = self._host_edge[src]
        count = int(duration / interval)

        def send(packet_index: int) -> None:
            self._sent += 1
            self._forward(flow_id, edge, dst)
            next_index = packet_index + 1
            if next_index < count:
                self.engine.schedule_after(interval, lambda: send(next_index))

        self.engine.schedule(offset, lambda: send(0))

    def _forward(self, flow_id: int, node: str, dst: str) -> None:
        """One hop of packet forwarding; reschedules itself per hop."""
        if node == dst:
            self._delivered += 1
            self._host_rx_bytes[dst] = (
                self._host_rx_bytes.get(dst, 0.0) + self.packet_size_bytes
            )
            self._host_rx_packets[dst] = self._host_rx_packets.get(dst, 0) + 1
            return
        next_node = self._next_hop.get((node, flow_id))
        if next_node is None:
            return  # no route: the packet dies here
        delay = self._delays[node][next_node]
        self.engine.schedule_after(
            delay, lambda: self._forward(flow_id, next_node, dst)
        )

    # -- measurements ------------------------------------------------------------------

    def host_rx_rate_bps(self, host: str, duration: float) -> float:
        """Average receive rate of one host over the run."""
        return self._host_rx_bytes.get(host, 0.0) * 8.0 / max(duration, 1e-9)


def five_tuple_hash_from_id(flow_id: int, seed: int) -> int:
    """Hash a synthetic flow id with the shared FNV mix (keeps baseline
    path choice in the same hash family as the data plane)."""
    from repro.netproto.hashing import _fnv1a

    return _fnv1a((flow_id,), seed=seed)
