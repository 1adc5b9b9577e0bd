"""End hosts: traffic sources and sinks.

A host has a single port, an IPv4 address and a MAC.  It terminates
fluid flows addressed to its IP (that is what the demo's "aggregated
rate of all flows arriving at the hosts" graph measures) and consumes
packet events addressed to it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.core.errors import TopologyError
from repro.dataplane.node import ForwardingDecision, Node
from repro.netproto.addr import IPv4Address, MACAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netproto.packet import FiveTuple, Packet


class Host(Node):
    """A server: one port, one IP, traffic source/sink."""

    kind = "host"

    def __init__(
        self,
        name: str,
        ip: "IPv4Address | str",
        gateway: "IPv4Address | str | None" = None,
    ):
        super().__init__(name)
        self.ip = IPv4Address(ip)
        self.gateway = IPv4Address(gateway) if gateway is not None else None
        self.add_port(1)
        self.received_packets: List["Packet"] = []

    @property
    def rx_rate_bps(self) -> float:
        """The summed rate of the flows arriving here (bps), as of the
        last reallocation — derived on read by the network's realloc
        engine; 0 off a network."""
        network = self.network
        return 0.0 if network is None else network.realloc.derived(self)[0]

    @property
    def tx_rate_bps(self) -> float:
        """The summed rate of the flows sent from here (bps), like
        :attr:`rx_rate_bps`."""
        network = self.network
        return 0.0 if network is None else network.realloc.derived(self)[1]

    @property
    def rx_bytes(self) -> float:
        """The bytes of the flows arriving here, as of the last accrual
        — read through the host's rate span by the network's realloc
        engine; 0 off a network."""
        network = self.network
        return 0.0 if network is None else network.realloc.counter(self, "rx")

    @property
    def tx_bytes(self) -> float:
        """The bytes of the flows sent from here, like :attr:`rx_bytes`."""
        network = self.network
        return 0.0 if network is None else network.realloc.counter(self, "tx")

    @property
    def mac(self) -> MACAddress:
        """The MAC of the host's single port."""
        return self.ports[1].mac

    @property
    def uplink_port(self):
        """The single attachment port."""
        return self.ports[1]

    def forward_flow(self, flow_key: "FiveTuple", in_port: "int | None",
                     macs=None):
        """Hosts deliver traffic addressed to them, drop the rest.

        A flow *originating* here (in_port None) goes out of the single
        port.
        """
        if in_port is None:
            return ForwardingDecision.forward(1)
        if flow_key.dst_ip == self.ip:
            return ForwardingDecision.deliver()
        return ForwardingDecision.drop(f"{self.name} is not {flow_key.dst_ip}")

    def handle_packet(
        self, in_port: "int | None", packet: "Packet", now: float
    ) -> List[Tuple[int, "Packet"]]:
        """Consume packets addressed to this host (unicast or broadcast)."""
        if in_port is None:
            return [(1, packet)]
        addressed_to_us = (
            packet.eth.dst == self.mac
            or packet.eth.dst.is_broadcast()
            or (packet.ip is not None and packet.ip.dst == self.ip)
        )
        if addressed_to_us:
            self.received_packets.append(packet)
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} ip={self.ip}>"
