"""The simulated router data plane.

A router forwards by longest-prefix match in its FIB.  Multiple next
hops on the winning entry mean ECMP; the paper's BGP demo resolves
ECMP by hashing IP source and destination, which is what
:meth:`Router.pick_next_hop` does.  Each router derives its own hash
seed from its name so parallel paths do not polarise (every router
picking the same index for every flow), while staying deterministic
across runs.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.dataplane.fib import FIB, FIBEntry, NextHop
from repro.dataplane.node import ForwardingDecision, Node
from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.netproto.hashing import ecmp_hash, two_tuple_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netproto.packet import FiveTuple, Packet


class Router(Node):
    """An IP router with an ECMP-capable FIB."""

    kind = "router"

    def __init__(self, name: str, router_id: "IPv4Address | str | None" = None):
        super().__init__(name)
        self.router_id = IPv4Address(router_id) if router_id is not None else None
        self.fib = FIB(owner=self)
        # Per-router hash seed: deterministic, but different per device.
        self.hash_seed = zlib.crc32(name.encode())
        self.interface_addrs: dict[int, IPv4Address] = {}
        # Int-set mirror of interface_addrs for O(1) "is it mine?"
        # checks on the forwarding hot path.
        self._interface_ints: set[int] = set()

    @property
    def fwd_epoch(self) -> int:
        """Node epoch folded with the FIB version: any route install or
        withdrawal invalidates cached paths through this router."""
        return self._fwd_epoch + self.fib.version

    def set_interface(self, port_no: int, address: "IPv4Address | str",
                      prefix: "IPv4Prefix | str | None" = None) -> None:
        """Assign an IP to a port; optionally install the connected route."""
        addr = IPv4Address(address)
        self.interface_addrs[port_no] = addr
        self._interface_ints.add(int(addr))
        self.bump_fwd_epoch()  # the deliver-to-self set changed
        if prefix is not None:
            self.fib.install(prefix, [NextHop(port=port_no, gateway=None)])

    def interface(self, port_no: int) -> Optional[IPv4Address]:
        """The IP configured on a port, if any."""
        return self.interface_addrs.get(port_no)

    def pick_next_hop(self, flow_key: "FiveTuple", entry: FIBEntry) -> NextHop:
        """ECMP selection by hash of (src IP, dst IP) — the BGP demo's rule."""
        if len(entry.next_hops) == 1:
            return entry.next_hops[0]
        key = two_tuple_hash(flow_key.src_ip, flow_key.dst_ip, seed=self.hash_seed)
        return entry.next_hops[ecmp_hash(key, len(entry.next_hops))]

    def forward_flow(self, flow_key: "FiveTuple", in_port: "int | None",
                     macs=None):
        """LPM lookup + ECMP choice (MACs are irrelevant at L3)."""
        # Deliver to self? Routers terminate traffic addressed to one of
        # their interfaces (control-plane traffic is not fluid, but the
        # guard keeps behaviour sane).
        if int(flow_key.dst_ip) in self._interface_ints:
            return ForwardingDecision.deliver()
        entry = self.fib.lookup(flow_key.dst_ip)
        if entry is None:
            return ForwardingDecision.no_route(f"no route to {flow_key.dst_ip}")
        hop = self.pick_next_hop(flow_key, entry)
        if hop.port not in self.ports:
            return ForwardingDecision.drop(f"route points at missing port {hop.port}")
        if in_port is not None and hop.port == in_port:
            # Sending a flow back out of its ingress port means the
            # routing state is looping; report a drop rather than
            # ping-ponging forever.
            return ForwardingDecision.drop("next hop equals ingress port")
        return ForwardingDecision.forward(hop.port)

    def handle_packet(
        self, in_port: "int | None", packet: "Packet", now: float
    ) -> List[Tuple[int, "Packet"]]:
        """Packet-event forwarding: LPM + TTL decrement."""
        if packet.ip is None:
            return []
        if int(packet.ip.dst) in self._interface_ints:
            return []  # terminated locally
        if packet.ip.ttl <= 1:
            return []  # TTL exceeded
        entry = self.fib.lookup(packet.ip.dst)
        if entry is None:
            return []
        flow_key = packet.five_tuple()
        if flow_key is None:
            return []
        hop = self.pick_next_hop(flow_key, entry)
        if hop.port not in self.ports:
            return []
        packet.ip.ttl -= 1
        return [(hop.port, packet)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Router {self.name} routes={len(self.fib)}>"
