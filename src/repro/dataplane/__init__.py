"""The simulated data plane.

Figure 2's lower half: a discrete-event model of the network topology
(hosts, OpenFlow switches, routers, links) carrying traffic as *fluid
flows* — a flow is a rate on a path, not a stream of packets.  Rates
are max-min fair across links (bottleneck filling), recomputed when
flows start/stop or the control plane reprograms forwarding state.

Individual packets still exist for the cases that need them: the first
packet of a flow that misses in an OpenFlow table (it becomes a
PACKET_IN), and frames injected by PACKET_OUT.  Those are forwarded
hop-by-hop as events.
"""

from repro.dataplane.link import Link, LinkDirection
from repro.dataplane.node import Node, Port
from repro.dataplane.host import Host
from repro.dataplane.fib import FIB, FIBEntry, NextHop
from repro.dataplane.flowtable import FlowTable, FlowEntry
from repro.dataplane.switch import Switch
from repro.dataplane.router import Router
from repro.dataplane.flow import FluidFlow, PathResult, PathStatus
from repro.dataplane.fluid import validate_allocation
from repro.dataplane.solver import KERNEL_CHOICES
from repro.dataplane.network import Network
from repro.dataplane.stats import StatsCollector, Sample

__all__ = [
    "Link",
    "LinkDirection",
    "Node",
    "Port",
    "Host",
    "FIB",
    "FIBEntry",
    "NextHop",
    "FlowTable",
    "FlowEntry",
    "Switch",
    "Router",
    "FluidFlow",
    "PathResult",
    "PathStatus",
    "validate_allocation",
    "KERNEL_CHOICES",
    "Network",
    "StatsCollector",
    "Sample",
]
