"""The simulated OpenFlow switch.

Forwarding is entirely table-driven: a fluid flow (or packet event)
is matched against the flow table and follows the entry's OUTPUT
action.  A table miss becomes a :class:`ForwardingDecision.miss`, which
the network turns into a PACKET_IN via the attached switch agent —
that is how reactive controllers (learning switch, 5-tuple ECMP)
get to see traffic.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.dataplane.flowtable import FlowTable
from repro.dataplane.node import ForwardingDecision, Node
from repro.openflow.actions import ActionGroup, ActionOutput
from repro.openflow.constants import PortNo
from repro.openflow.groups import GroupTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netproto.packet import FiveTuple, Packet

_dpid_counter = itertools.count(1)


def reset_dpids() -> None:
    """Restart auto-dpid allocation (scenario-run determinism)."""
    global _dpid_counter
    _dpid_counter = itertools.count(1)


class Switch(Node):
    """An OpenFlow switch model."""

    kind = "switch"

    def __init__(self, name: str, dpid: "int | None" = None, num_ports: int = 0):
        super().__init__(name)
        self.dpid = dpid if dpid is not None else next(_dpid_counter)
        self.table = FlowTable(owner=self)
        self.groups = GroupTable(owner=self)
        self._agent = None  # set by SwitchAgent.attach()
        for __ in range(num_ports):
            self.add_port()

    @property
    def fwd_epoch(self) -> int:
        """Node epoch folded with the flow/group table versions: every
        flow-mod, group-mod or expiry shows up as a change here."""
        return self._fwd_epoch + self.table.version + self.groups.version

    @property
    def agent(self):
        """The attached switch agent (controller connection), if any."""
        return self._agent

    @agent.setter
    def agent(self, value) -> None:
        if value is not self._agent:
            self._agent = value
            # Attaching/detaching a controller changes what a table
            # miss means (MISS vs DROP), i.e. the forwarding outcome.
            self.bump_fwd_epoch()

    def forward_flow(self, flow_key: "FiveTuple", in_port: "int | None",
                     macs=None):
        """Match the flow table; miss -> controller (if an agent is attached)."""
        dl_src, dl_dst = macs if macs is not None else (None, None)
        entry = self.table.match_five_tuple(
            flow_key, in_port=in_port, dl_src=dl_src, dl_dst=dl_dst
        )
        if entry is None:
            if self.agent is not None:
                return ForwardingDecision.miss("table miss")
            return ForwardingDecision.drop("table miss, no controller")
        out_ports = entry.output_ports()
        if not out_ports:
            group_decision = self._resolve_group_flow(entry, flow_key)
            if group_decision is not None:
                return group_decision
            return ForwardingDecision.drop("entry drops")
        first = out_ports[0]
        if first == PortNo.CONTROLLER:
            return ForwardingDecision.miss("entry punts to controller")
        if first == PortNo.IN_PORT:
            first = in_port if in_port is not None else 0
        if first not in self.ports:
            return ForwardingDecision.drop(f"no such port {first}")
        return ForwardingDecision.forward(first, entry=entry)

    def _resolve_group_flow(self, entry, flow_key: "FiveTuple"):
        """Resolve an ActionGroup entry to a concrete egress (or None)."""
        group_actions = [a for a in entry.actions if isinstance(a, ActionGroup)]
        if not group_actions:
            return None
        group = self.groups.get(group_actions[0].group_id)
        if group is None:
            return ForwardingDecision.drop(
                f"entry references missing group {group_actions[0].group_id}"
            )
        # Per-switch seed: same anti-polarisation property as routers.
        bucket = group.select_bucket(flow_key, seed=self.dpid)
        if bucket is None:
            return ForwardingDecision.drop("group has no buckets")
        for action in bucket.actions:
            if isinstance(action, ActionOutput) and action.port in self.ports:
                return ForwardingDecision.forward(action.port, entry=entry)
        return ForwardingDecision.drop("group bucket has no usable output")

    def handle_packet(
        self, in_port: "int | None", packet: "Packet", now: float
    ) -> List[Tuple[int, "Packet"]]:
        """Pipeline for individual packets (first packets, PACKET_OUT)."""
        entry = self.table.match_packet(packet, in_port=in_port)
        if entry is None:
            if self.agent is not None:
                self.agent.packet_in(in_port if in_port is not None else 0, packet, now)
            return []
        entry.last_used_at = now
        outputs: List[Tuple[int, "Packet"]] = []
        for port_no in entry.output_ports():
            outputs.extend(self._resolve_output(port_no, in_port, packet, now))
        if not outputs:
            flow_key = packet.five_tuple()
            if flow_key is not None:
                decision = self._resolve_group_flow(entry, flow_key)
                if decision is not None and decision.out_port is not None:
                    outputs.append((decision.out_port, packet))
        return outputs

    def flood_ports(self, in_port: "int | None") -> List[int]:
        """Every connected port except the ingress one."""
        return [
            number
            for number, port in sorted(self.ports.items())
            if port.connected() and number != in_port
        ]

    def _resolve_output(
        self, port_no: int, in_port: "int | None", packet: "Packet", now: float
    ) -> List[Tuple[int, "Packet"]]:
        if port_no == PortNo.FLOOD or port_no == PortNo.ALL:
            return [(number, packet) for number in self.flood_ports(in_port)]
        if port_no == PortNo.CONTROLLER:
            if self.agent is not None:
                self.agent.packet_in(in_port if in_port is not None else 0, packet, now)
            return []
        if port_no == PortNo.IN_PORT and in_port is not None:
            return [(in_port, packet)]
        if port_no in self.ports:
            return [(port_no, packet)]
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.name} dpid={self.dpid} entries={len(self.table)}>"
