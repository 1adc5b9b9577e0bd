"""Base node and port models.

Every device in the simulated topology — host, switch, router — is a
:class:`Node` with numbered :class:`Port` objects.  Subclasses override
the two forwarding hooks:

* :meth:`Node.forward_flow` — fluid-path computation: given a flow's
  five-tuple arriving on a port, decide the egress port(s);
* :meth:`Node.handle_packet` — individual packet events (control-plane
  first packets, PACKET_OUT frames).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.errors import TopologyError
from repro.netproto.addr import MACAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.link import Link
    from repro.dataplane.network import Network
    from repro.netproto.packet import FiveTuple, Packet

_MAC_BASE = 0x0200_0000_0001
_mac_counter = itertools.count(_MAC_BASE)


def next_auto_mac() -> MACAddress:
    """Allocate a locally administered MAC address."""
    return MACAddress(next(_mac_counter))


def reset_auto_macs() -> None:
    """Restart MAC allocation from the base address.

    Every :class:`~repro.api.experiment.Experiment` calls this before
    building its network so its MACs — and anything derived from
    them — do not depend on how many networks were built earlier in
    the process.
    """
    global _mac_counter
    _mac_counter = itertools.count(_MAC_BASE)


class Port:
    """A numbered attachment point on a node."""

    __slots__ = ("node", "number", "mac", "link", "rx_packets",
                 "tx_packets")

    def __init__(self, node: "Node", number: int, mac: "MACAddress | None" = None):
        self.node = node
        self.number = number
        self.mac = mac or next_auto_mac()
        self.link: Optional["Link"] = None
        self.rx_packets = 0
        self.tx_packets = 0

    @property
    def rx_bytes(self) -> float:
        """Bytes received here: what the link's direction into this
        port carried, plus packets — 0 while unwired."""
        link = self.link
        return 0.0 if link is None else link.direction_from(
            link.other_port(self)).counter("rx")

    @property
    def tx_bytes(self) -> float:
        """Bytes sent from here, like :attr:`rx_bytes`."""
        link = self.link
        return 0.0 if link is None else link.direction_from(
            self).counter("tx")

    def peer(self) -> Optional["Port"]:
        """The port at the far end of the attached link, if any."""
        if self.link is None:
            return None
        return self.link.other_port(self)

    def connected(self) -> bool:
        """Whether a link is attached."""
        return self.link is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.node.name}:{self.number}>"


class Node:
    """Base class for every simulated device."""

    kind = "node"

    def __init__(self, name: str):
        if not name:
            raise TopologyError("node needs a non-empty name")
        self.name = name
        self.ports: Dict[int, Port] = {}
        self.network: Optional["Network"] = None
        self._net_index = -1  # insertion position in the network
        # Version epoch of this node's forwarding behaviour; bumped on
        # any mutation that could change a forward_flow() outcome.  The
        # incremental reallocation engine compares epochs to decide
        # which cached flow paths to re-walk.  Every site that moves
        # fwd_epoch (here, in subclasses, in the tables they own) also
        # calls touched(), so the engine need not poll every node.
        self._fwd_epoch = 0
        # Administrative state: a down node neither forwards fluid
        # flows nor processes packet events (node failure injection).
        self._up = True
        self._next_port = 1

    @property
    def up(self) -> bool:
        """Administrative state (node failure injection)."""
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        if value != self._up:
            self._up = value
            self._fwd_epoch += 1
            self.touched()

    @property
    def fwd_epoch(self) -> int:
        """Monotonic version of this node's forwarding state.

        Subclasses fold in their table versions (flow table, groups,
        FIB) so any mutation is visible as a change of this number.
        """
        return self._fwd_epoch

    def bump_fwd_epoch(self) -> None:
        """Record an out-of-band forwarding-state change."""
        self._fwd_epoch += 1
        self.touched()

    def touched(self) -> None:
        """Register with the attached network that ``fwd_epoch`` moved.

        A node not attached yet registers nothing: attaching bumps
        ``Network.topo_epoch``, which forces a full recompute anyway.
        """
        network = self.network
        if network is not None:
            network._touched_nodes.add(self)
            network.realloc.epoch_notifications += 1

    def add_port(self, number: "int | None" = None) -> Port:
        """Create a new port; auto-numbers when ``number`` is None."""
        if number is None:
            while self._next_port in self.ports:
                self._next_port += 1
            number = self._next_port
            self._next_port += 1
        if number in self.ports:
            raise TopologyError(f"{self.name} already has port {number}")
        port = Port(self, number)
        self.ports[number] = port
        return port

    def port(self, number: int) -> Port:
        """Look up a port by number."""
        try:
            return self.ports[number]
        except KeyError:
            raise TopologyError(f"{self.name} has no port {number}") from None

    def neighbors(self) -> List[Tuple[Port, "Node"]]:
        """(local port, peer node) pairs for every connected port."""
        result = []
        for port in sorted(self.ports.values(), key=lambda p: p.number):
            peer = port.peer()
            if peer is not None:
                result.append((port, peer.node))
        return result

    # -- forwarding hooks ----------------------------------------------------

    def forward_flow(self, flow_key: "FiveTuple", in_port: "int | None",
                     macs=None):
        """Decide the egress for a fluid flow.

        ``macs`` is the (src MAC, dst MAC) pair the flow's frames
        carry, supplied by the walk so switches can evaluate L2
        matches.  Returns a :class:`ForwardingDecision`.  Base nodes
        cannot forward anything.
        """
        return ForwardingDecision.drop("base node cannot forward")

    def handle_packet(
        self, in_port: "int | None", packet: "Packet", now: float
    ) -> List[Tuple[int, "Packet"]]:
        """Process an individual packet event.

        Returns (out_port_number, packet) pairs to transmit.  Base
        nodes sink everything.
        """
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ports={len(self.ports)}>"


class ForwardingDecision:
    """Outcome of one hop of fluid-path computation."""

    __slots__ = ("action", "out_port", "reason", "entry")

    FORWARD = "forward"
    DELIVER = "deliver"
    DROP = "drop"
    MISS = "miss"  # OpenFlow table miss -> PACKET_IN opportunity
    NO_ROUTE = "no_route"  # router FIB had no matching entry

    def __init__(self, action: str, out_port: "int | None" = None,
                 reason: str = "", entry=None):
        self.action = action
        self.out_port = out_port
        self.reason = reason
        self.entry = entry  # matched FlowEntry, for counter accrual

    @classmethod
    def forward(cls, out_port: int, entry=None) -> "ForwardingDecision":
        return cls(cls.FORWARD, out_port=out_port, entry=entry)

    @classmethod
    def deliver(cls) -> "ForwardingDecision":
        return cls(cls.DELIVER)

    @classmethod
    def drop(cls, reason: str) -> "ForwardingDecision":
        return cls(cls.DROP, reason=reason)

    @classmethod
    def miss(cls, reason: str = "table miss") -> "ForwardingDecision":
        return cls(cls.MISS, reason=reason)

    @classmethod
    def no_route(cls, reason: str) -> "ForwardingDecision":
        return cls(cls.NO_ROUTE, reason=reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" port={self.out_port}" if self.out_port is not None else ""
        return f"<Decision {self.action}{extra} {self.reason}>"
