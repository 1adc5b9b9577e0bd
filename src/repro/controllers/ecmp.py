"""SDN 5-tuple ECMP — TE scheme (iii) of the demonstration.

Reactive equal-cost multipath: the first packet of a flow misses at
its ingress edge switch and arrives as a PACKET_IN.  The app hashes
the flow's full five-tuple (IP src, IP dst, protocol, transport src,
transport dst — the paper's exact field list) over the equal-cost
paths toward the destination's edge switch, then installs exact-match
entries along the *entire* chosen path so no further switch misses.

Control-plane activity is therefore concentrated at the start of the
experiment (all demo flows begin at t=0), which is the behaviour the
paper contrasts with Hedera's periodic polling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.controllers.topology_view import TopologyView
from repro.netproto.hashing import ecmp_hash, five_tuple_hash
from repro.netproto.packet import FiveTuple, Packet, PacketDecodeError
from repro.openflow.actions import ActionOutput
from repro.openflow.controller import ControllerApp, Datapath
from repro.openflow.match import Match
from repro.openflow.messages import FlowRemoved, PacketIn


class FiveTupleEcmpApp(ControllerApp):
    """Reactive five-tuple ECMP with path-wide installation."""

    name = "ecmp-5tuple"

    def __init__(self, topology: TopologyView, priority: int = 300,
                 hash_seed: int = 0, idle_timeout: int = 0):
        super().__init__()
        self.topology = topology
        self.priority = priority
        self.hash_seed = hash_seed
        self.idle_timeout = idle_timeout
        self.flows_placed = 0
        self.entries_installed = 0
        # flow -> switch-level path, for tests and for Hedera reuse.
        self.placements: Dict[FiveTuple, List[str]] = {}

    def on_packet_in(self, dp: Datapath, message: PacketIn) -> None:
        try:
            packet = Packet.decode(message.data)
        except PacketDecodeError:
            return  # not a frame we can route
        flow = packet.five_tuple()
        if flow is None:
            return  # non-IP traffic is not our business
        if flow in self.placements:
            return  # already placed; a second miss raced the installs
        src_loc = self.topology.locate_ip(flow.src_ip)
        dst_loc = self.topology.locate_ip(flow.dst_ip)
        if src_loc is None or dst_loc is None:
            return
        path = self.select_path(flow, src_loc.switch_name, dst_loc.switch_name)
        if path is None:
            return
        self.install_path(flow, path, dst_loc.switch_port)
        self.placements[flow] = path
        self.flows_placed += 1

    def on_flow_removed(self, dp: Datapath, message: FlowRemoved) -> None:
        """Entries of a flow are gone: forget where it was placed, so
        its next miss is placed afresh instead of being taken for a
        miss that raced the installs."""
        flow = message.match.five_tuple()
        if flow is not None:
            self.forget_flow(flow)

    def forget_flow(self, flow: FiveTuple) -> None:
        """Drop everything remembered about ``flow``'s placement."""
        self.placements.pop(flow, None)

    def stats(self) -> Dict[str, int]:
        return {
            "flows_placed": self.flows_placed,
            "entries_installed": self.entries_installed,
            "path_dag_builds": self.topology.path_dag_builds,
        }

    def select_path(self, flow: FiveTuple, src_switch: str,
                    dst_switch: str) -> Optional[List[str]]:
        """Hash the five-tuple over the equal-cost path set."""
        paths = self.topology.equal_cost_paths(src_switch, dst_switch)
        if not paths:
            return None
        index = ecmp_hash(five_tuple_hash(flow, seed=self.hash_seed), len(paths))
        return paths[index]

    def install_path(self, flow: FiveTuple, path: List[str],
                     last_hop_port: int,
                     priority: "int | None" = None) -> None:
        """Install exact-match entries on every switch of the path (at
        the app's ECMP priority unless told otherwise)."""
        match = Match.exact_five_tuple(flow)
        for position, switch_name in enumerate(path):
            dp = self.controller.datapath_by_name(switch_name)
            if dp is None:
                continue
            if position + 1 < len(path):
                out_port = self.topology.port_toward(switch_name, path[position + 1])
            else:
                out_port = last_hop_port
            if out_port is None:
                continue
            self.entries_installed += 1
            dp.flow_mod(
                match=match,
                actions=[ActionOutput(out_port)],
                priority=self.priority if priority is None else priority,
                idle_timeout=self.idle_timeout,
            )
