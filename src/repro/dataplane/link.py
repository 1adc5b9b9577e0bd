"""Links: capacity, delay, directionality and counters.

A :class:`Link` is the bidirectional cable between two ports.  The
fluid solver and the counters work on :class:`LinkDirection` — each
link exposes two, one per direction — because congestion is inherently
directional (a fat-tree uplink can saturate upstream while idle
downstream).
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, TYPE_CHECKING

from repro.core.errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.network import Network
    from repro.dataplane.node import Node, Port

GBPS = 1_000_000_000
MBPS = 1_000_000


def _checked_capacity(capacity_bps: float) -> float:
    """``capacity_bps`` as a float, which must be finite and positive:
    a NaN link would never be contended, an infinite one never full."""
    value = float(capacity_bps)
    if not (math.isfinite(value) and value > 0):
        raise TopologyError(
            f"link capacity must be finite and positive: {capacity_bps}")
    return value


class LinkDirection:
    """One direction of a link: src port -> dst port."""

    __slots__ = ("link", "src_port", "dst_port")

    def __init__(self, link: "Link", src_port: "Port", dst_port: "Port"):
        self.link = link
        self.src_port = src_port
        self.dst_port = dst_port

    @property
    def current_load_bps(self) -> float:
        """The summed rate of the flows crossing this direction (bps),
        as of the last reallocation — derived on read by the network's
        realloc engine; 0 off a network."""
        network = self.link.network
        return 0.0 if network is None else network.realloc.derived(self)

    @property
    def bytes_carried(self) -> float:
        """The bytes the flows crossing this direction carried, as of
        the last accrual — read through its rate span by the network's
        realloc engine; 0 off a network."""
        return self.counter("carried")

    def counter(self, slot: str) -> float:
        """Byte counter ``slot`` (``carried``, or ``tx``/``rx`` of the
        source/destination port) of this direction's rate span."""
        network = self.link.network
        return 0.0 if network is None else network.realloc.counter(self, slot)

    @property
    def capacity_bps(self) -> float:
        """Capacity of this direction in bits per second."""
        return self.link.capacity_bps

    @property
    def delay(self) -> float:
        """Propagation delay in seconds."""
        return self.link.delay

    @property
    def up(self) -> bool:
        """Whether the parent link is up."""
        return self.link.up

    def key(self) -> tuple:
        """Hashable identity used by the fluid solver."""
        return (self.link.id, self.src_port is self.link.port_a)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LinkDirection {self.src_port.node.name}:{self.src_port.number} -> "
            f"{self.dst_port.node.name}:{self.dst_port.number}>"
        )


class Link:
    """A bidirectional point-to-point link between two node ports."""

    _ids = itertools.count(1)

    def __init__(
        self,
        port_a: "Port",
        port_b: "Port",
        capacity_bps: float = GBPS,
        delay: float = 0.000_05,
    ):
        if delay < 0:
            raise TopologyError(f"link delay must be non-negative: {delay}")
        self.id = next(self._ids)
        self.port_a = port_a
        self.port_b = port_b
        self._capacity_bps = _checked_capacity(capacity_bps)
        # The as-built capacity; gray-failure injection degrades
        # capacity_bps and restores it back to this.
        self.nominal_capacity_bps = self._capacity_bps
        self.delay = float(delay)
        self._up = True
        # Version epochs for the incremental reallocation engine:
        # path_epoch changes when the link's reachability flips (up or
        # down — cached paths crossing or blocked by it are stale),
        # cap_epoch when the capacity the solver sees changes (paths
        # stay valid but rates must be re-solved).  Both setters also
        # register the link as touched on its network (set, with the
        # insertion position, by Network.add_link).
        self.path_epoch = 0
        self.cap_epoch = 0
        self.network: Optional["Network"] = None
        self._net_index = -1
        self.forward = LinkDirection(self, port_a, port_b)
        self.reverse = LinkDirection(self, port_b, port_a)
        port_a.link = self
        port_b.link = self

    @property
    def up(self) -> bool:
        """Administrative/operational state of the cable."""
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        if value != self._up:
            self._up = value
            self.path_epoch += 1
            self._touched()

    @property
    def capacity_bps(self) -> float:
        """Live capacity in bits per second (both directions)."""
        return self._capacity_bps

    @capacity_bps.setter
    def capacity_bps(self, value: float) -> None:
        value = _checked_capacity(value)
        if value != self._capacity_bps:
            self._capacity_bps = value
            self.cap_epoch += 1
            self._touched()

    def _touched(self) -> None:
        network = self.network
        if network is not None:
            network._touched_links.add(self)
            network.realloc.epoch_notifications += 1

    def direction_from(self, port: "Port") -> LinkDirection:
        """The direction whose source is ``port``."""
        if port is self.port_a:
            return self.forward
        if port is self.port_b:
            return self.reverse
        raise TopologyError(f"port {port!r} is not on link {self.id}")

    def other_port(self, port: "Port") -> "Port":
        """The opposite end of the cable."""
        if port is self.port_a:
            return self.port_b
        if port is self.port_b:
            return self.port_a
        raise TopologyError(f"port {port!r} is not on link {self.id}")

    def endpoints(self) -> tuple:
        """(node_a, node_b) convenience accessor."""
        return (self.port_a.node, self.port_b.node)

    def set_up(self, up: bool) -> None:
        """Administratively raise/fail the link (failure injection)."""
        self.up = up

    def set_capacity(self, capacity_bps: float) -> None:
        """Change the live capacity (gray-failure injection).

        The link stays up but carries less: the max-min solver sees the
        degraded figure on the next reallocation.  ``nominal_capacity_bps``
        is untouched, so the degradation can be undone exactly.
        """
        self.capacity_bps = capacity_bps

    @classmethod
    def reset_ids(cls) -> None:
        """Restart link numbering (run determinism; see
        :func:`repro.dataplane.node.reset_auto_macs`)."""
        cls._ids = itertools.count(1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        a = f"{self.port_a.node.name}:{self.port_a.number}"
        b = f"{self.port_b.node.name}:{self.port_b.number}"
        state = "up" if self.up else "DOWN"
        return f"<Link {self.id} {a}<->{b} {self.capacity_bps / GBPS:.1f}Gbps {state}>"
