"""Fluid flows and their computed paths.

A :class:`FluidFlow` is the unit of data-plane traffic: a desired rate
(demand) between two hosts, carried along whatever path the current
forwarding state produces.  The *actual* rate is assigned by the
max-min fair solver and integrated into delivered bytes whenever the
network's time advances.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.netproto.addr import IPv4Address
from repro.netproto.packet import (
    FiveTuple,
    IPPROTO_UDP,
    Packet,
    make_udp_packet,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.flowtable import FlowEntry
    from repro.dataplane.host import Host
    from repro.dataplane.link import Link, LinkDirection
    from repro.dataplane.switch import Switch


class PathStatus(enum.Enum):
    """Outcome of walking the forwarding state for a flow."""

    DELIVERED = "delivered"  # a complete src -> dst path exists
    MISS = "miss"            # an OpenFlow table miss interrupted the walk
    NO_ROUTE = "no_route"    # a router had no matching FIB entry
    DROPPED = "dropped"      # an entry or host explicitly dropped it
    LOOP = "loop"            # forwarding state loops


@dataclass
class PathResult:
    """A computed forwarding path and everything met along the way."""

    status: PathStatus
    hops: List["LinkDirection"] = field(default_factory=list)
    entries: List[Tuple["Switch", "FlowEntry"]] = field(default_factory=list)
    miss_node: Optional[str] = None
    detail: str = ""
    # The down link that stopped the walk, when the walk was stopped by
    # one.  It is not in ``hops`` (the flow never crossed it) but the
    # incremental reallocation engine must re-walk this flow when that
    # link changes state, so it is part of the walk's dependency set.
    blocking_link: Optional["Link"] = None

    @property
    def delivered(self) -> bool:
        return self.status is PathStatus.DELIVERED

    def node_names(self) -> List[str]:
        """The sequence of node names along the path (src first)."""
        if not self.hops:
            return []
        names = [self.hops[0].src_port.node.name]
        names.extend(hop.dst_port.node.name for hop in self.hops)
        return names


class FluidFlow:
    """A constant-demand fluid flow between two hosts."""

    _ids = itertools.count(1)

    @classmethod
    def reset_ids(cls) -> None:
        """Restart flow numbering (scenario-run determinism).

        Flow ids leak into auto-chosen source ports (40000 + id) and
        therefore into five-tuple ECMP hashes, so every
        :class:`~repro.api.experiment.Experiment` restarts numbering.
        """
        cls._ids = itertools.count(1)

    def __init__(
        self,
        src: "Host",
        dst: "Host",
        demand_bps: float,
        src_port: "int | None" = None,
        dst_port: int = 9000,
        protocol: int = IPPROTO_UDP,
        start_time: float = 0.0,
        end_time: "float | None" = None,
    ):
        if demand_bps <= 0:
            raise ValueError(f"flow demand must be positive: {demand_bps}")
        self.id = next(self._ids)
        self.src = src
        self.dst = dst
        self.demand_bps = float(demand_bps)
        self.start_time = float(start_time)
        self.end_time = float(end_time) if end_time is not None else None
        chosen_src_port = src_port if src_port is not None else 40000 + self.id
        self.key = FiveTuple(
            src_ip=src.ip,
            dst_ip=dst.ip,
            protocol=protocol,
            src_port=chosen_src_port,
            dst_port=dst_port,
        )
        self.active = False
        self.rate_bps = 0.0
        self.delivered_bytes = 0.0
        self.path: Optional[PathResult] = None
        # Dedup guard: switch name -> flow-table version at the last
        # PACKET_IN we triggered there (see Network._report_miss).
        self.reported_misses: dict = {}

    @property
    def name(self) -> str:
        """Short printable identity."""
        return f"flow{self.id}[{self.src.name}->{self.dst.name}]"

    def first_packet(self, payload: bytes = b"", size: int = 1500) -> Packet:
        """Materialise the flow's first packet (for PACKET_IN).

        ARP is elided: the frame is addressed to the destination host's
        MAC directly, as if resolution already happened.
        """
        return make_udp_packet(
            src_mac=self.src.mac,
            dst_mac=self.dst.mac,
            src_ip=self.key.src_ip,
            dst_ip=self.key.dst_ip,
            src_port=self.key.src_port,
            dst_port=self.key.dst_port,
            payload=payload,
            size=size,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "idle"
        return (
            f"<FluidFlow {self.name} demand={self.demand_bps / 1e9:.3f}Gbps "
            f"rate={self.rate_bps / 1e9:.3f}Gbps {state}>"
        )
