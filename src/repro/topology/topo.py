"""Declarative topology descriptions (Mininet's ``Topo`` idiom).

A :class:`Topo` only *describes* the network.  Realisation onto a
simulated :class:`~repro.dataplane.network.Network` (or onto the
baseline emulator, which has its own realiser) happens elsewhere, so
one description drives both tools in the Figure 3 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.errors import TopologyError
from repro.netproto.addr import IPv4Address

GBPS = 1_000_000_000


@dataclass
class HostSpec:
    """A host to create."""

    name: str
    ip: str
    gateway: Optional[str] = None


@dataclass
class SwitchSpec:
    """A forwarding device to create: OpenFlow switch or router."""

    name: str
    kind: str = "switch"  # "switch" | "router"
    router_id: Optional[str] = None


@dataclass
class LinkSpec:
    """A link to create."""

    node_a: str
    node_b: str
    capacity_bps: float = GBPS
    delay: float = 0.000_05
    port_a: Optional[int] = None
    port_b: Optional[int] = None


class Topo:
    """An ordered collection of host/switch/link specifications."""

    def __init__(self, name: str = "topo"):
        self.name = name
        self.host_specs: Dict[str, HostSpec] = {}
        self.switch_specs: Dict[str, SwitchSpec] = {}
        self.link_specs: List[LinkSpec] = []

    # -- construction -----------------------------------------------------------

    def add_host(self, name: str, ip: str, gateway: "str | None" = None) -> str:
        """Describe a host; returns its name for chaining into links."""
        self._check_new(name)
        IPv4Address(ip)  # validate early
        self.host_specs[name] = HostSpec(name=name, ip=ip, gateway=gateway)
        return name

    def add_switch(self, name: str) -> str:
        """Describe an OpenFlow switch."""
        self._check_new(name)
        self.switch_specs[name] = SwitchSpec(name=name, kind="switch")
        return name

    def add_router(self, name: str, router_id: "str | None" = None) -> str:
        """Describe a router."""
        self._check_new(name)
        self.switch_specs[name] = SwitchSpec(
            name=name, kind="router", router_id=router_id
        )
        return name

    def add_link(
        self,
        node_a: str,
        node_b: str,
        capacity_bps: float = GBPS,
        delay: float = 0.000_05,
        port_a: "int | None" = None,
        port_b: "int | None" = None,
    ) -> LinkSpec:
        """Describe a link between two declared nodes."""
        for node in (node_a, node_b):
            if node not in self.host_specs and node not in self.switch_specs:
                raise TopologyError(f"link references unknown node {node!r}")
        spec = LinkSpec(
            node_a=node_a, node_b=node_b, capacity_bps=capacity_bps,
            delay=delay, port_a=port_a, port_b=port_b,
        )
        self.link_specs.append(spec)
        return spec

    def _check_new(self, name: str) -> None:
        if name in self.host_specs or name in self.switch_specs:
            raise TopologyError(f"duplicate node name {name!r}")

    # -- queries ------------------------------------------------------------------

    def hosts(self) -> List[str]:
        """Declared host names, in insertion order."""
        return list(self.host_specs)

    def switches(self) -> List[str]:
        """Declared switch names (kind == switch), in insertion order."""
        return [s.name for s in self.switch_specs.values() if s.kind == "switch"]

    def routers(self) -> List[str]:
        """Declared router names, in insertion order."""
        return [s.name for s in self.switch_specs.values() if s.kind == "router"]

    def node_count(self) -> int:
        """Total declared nodes."""
        return len(self.host_specs) + len(self.switch_specs)

    # -- realisation ---------------------------------------------------------------

    def realize(self, network) -> None:
        """Create every described element on a simulated Network."""
        for host in self.host_specs.values():
            network.add_host(host.name, host.ip, host.gateway)
        for switch in self.switch_specs.values():
            if switch.kind == "router":
                network.add_router(switch.name, router_id=switch.router_id)
            else:
                network.add_switch(switch.name)
        for link in self.link_specs:
            network.add_link(
                link.node_a, link.node_b,
                capacity_bps=link.capacity_bps, delay=link.delay,
                port_a=link.port_a, port_b=link.port_b,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Topo {self.name!r} hosts={len(self.host_specs)} "
            f"devices={len(self.switch_specs)} links={len(self.link_specs)}>"
        )
