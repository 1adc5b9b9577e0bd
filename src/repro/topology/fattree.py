"""The k-ary fat-tree of Al-Fares et al. (SIGCOMM 2008).

The demonstration's topology: k pods, each with k/2 edge and k/2
aggregation switches; (k/2)² core switches; k²/4 hosts per pod
(k³/4 total).  All links have the same capacity (1 Gbps in the demo).

Addressing follows the paper: host i on edge switch e of pod p gets
``10.p.e.(i+2)``.  For the BGP variant (``device="router"``) every
switch becomes a router with its own AS number, RFC 7938-style:

* every edge and aggregation router gets a per-device AS;
* core routers share one AS (they never need to distinguish paths
  among themselves);
* edge routers originate their host subnet ``10.p.e.0/24``.

The class also exposes the structural metadata experiments need:
layers, host subnets, and AS numbers.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.errors import TopologyError
from repro.topology.topo import GBPS, Topo


class FatTreeTopo(Topo):
    """A k-ary fat-tree description."""

    CORE_ASN = 65000

    def __init__(
        self,
        k: int = 4,
        capacity_bps: float = GBPS,
        delay: float = 0.000_05,
        device: str = "switch",
    ):
        if k < 2 or k % 2:
            raise TopologyError(f"fat-tree k must be even and >= 2, got {k}")
        if device not in ("switch", "router"):
            raise TopologyError(f"device must be 'switch' or 'router', got {device!r}")
        super().__init__(name=f"fattree-k{k}-{device}")
        self.k = k
        self.device = device
        half = k // 2

        self.core_switches: List[str] = []
        self.agg_switches: List[str] = []
        self.edge_switches: List[str] = []
        self.asn: Dict[str, int] = {}
        self.host_subnet: Dict[str, str] = {}  # edge switch -> originated /24

        # Core layer: (k/2)^2 switches in k/2 groups of k/2.  Core (g, i)
        # gets address 10.k.g+1.i+1 per the Al-Fares addressing scheme.
        for group in range(half):
            for index in range(half):
                name = f"c{group}_{index}"
                self._add_device(name, router_id=f"10.{k}.{group + 1}.{index + 1}")
                self.core_switches.append(name)
                self.asn[name] = self.CORE_ASN

        # Pods.
        next_asn = 65001
        for pod in range(k):
            pod_aggs: List[str] = []
            pod_edges: List[str] = []
            for index in range(half):
                agg = f"a{pod}_{index}"
                self._add_device(agg, router_id=f"10.{pod}.{half + index}.1")
                self.agg_switches.append(agg)
                pod_aggs.append(agg)
                self.asn[agg] = next_asn
                next_asn += 1
            for index in range(half):
                edge = f"e{pod}_{index}"
                self._add_device(edge, router_id=f"10.{pod}.{index}.1")
                self.edge_switches.append(edge)
                pod_edges.append(edge)
                self.asn[edge] = next_asn
                next_asn += 1
                self.host_subnet[edge] = f"10.{pod}.{index}.0/24"

            # Hosts: k/2 per edge switch.
            for edge_index, edge in enumerate(pod_edges):
                for host_index in range(half):
                    host = f"h{pod}_{edge_index}_{host_index}"
                    ip = f"10.{pod}.{edge_index}.{host_index + 2}"
                    gateway = f"10.{pod}.{edge_index}.1"
                    self.add_host(host, ip, gateway)
                    self.add_link(host, edge,
                                  capacity_bps=capacity_bps, delay=delay)

            # Edge <-> aggregation full bipartite mesh within the pod.
            for edge in pod_edges:
                for agg in pod_aggs:
                    self.add_link(edge, agg,
                                  capacity_bps=capacity_bps, delay=delay)

            # Aggregation <-> core: agg j connects to core group j.
            for agg_index, agg in enumerate(pod_aggs):
                for core_index in range(half):
                    core = f"c{agg_index}_{core_index}"
                    self.add_link(agg, core,
                                  capacity_bps=capacity_bps, delay=delay)

    def _add_device(self, name: str, router_id: str) -> None:
        if self.device == "router":
            self.add_router(name, router_id=router_id)
        else:
            self.add_switch(name)

    # -- structural queries -------------------------------------------------------

    @property
    def num_hosts(self) -> int:
        """k^3 / 4."""
        return self.k ** 3 // 4

    @property
    def num_switches(self) -> int:
        """5k^2 / 4 (core + agg + edge)."""
        return 5 * self.k ** 2 // 4

    def layer_of(self, name: str) -> str:
        """'core', 'agg', 'edge' or 'host'."""
        if name in self.host_specs:
            return "host"
        prefix = name[0]
        return {"c": "core", "a": "agg", "e": "edge"}.get(prefix, "unknown")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FatTreeTopo k={self.k} device={self.device} "
            f"hosts={self.num_hosts} switches={self.num_switches}>"
        )
