"""Assorted topology builders.

The paper notes Horse "is not restricted to DCs and can also be used
for other types of networks, e.g., Wide Area Networks" — these
builders cover the common shapes used by the examples, tests and
ablation benches.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.errors import ConfigurationError, TopologyError
from repro.topology.topo import GBPS, Topo


def linear_topo(
    num_switches: int,
    hosts_per_switch: int = 1,
    capacity_bps: float = GBPS,
    delay: float = 0.000_05,
) -> Topo:
    """A chain: s0 - s1 - ... with hosts hanging off each switch."""
    if num_switches < 1:
        raise TopologyError("need at least one switch")
    topo = Topo(name=f"linear-{num_switches}x{hosts_per_switch}")
    for index in range(num_switches):
        topo.add_switch(f"s{index}")
        for host_index in range(hosts_per_switch):
            name = f"h{index}_{host_index}"
            topo.add_host(name, f"10.0.{index}.{host_index + 10}")
            topo.add_link(name, f"s{index}", capacity_bps=capacity_bps, delay=delay)
    for index in range(num_switches - 1):
        topo.add_link(f"s{index}", f"s{index + 1}",
                      capacity_bps=capacity_bps, delay=delay)
    return topo


def star_topo(
    num_hosts: int, capacity_bps: float = GBPS, delay: float = 0.000_05
) -> Topo:
    """One switch, many hosts."""
    if num_hosts < 1:
        raise TopologyError("need at least one host")
    topo = Topo(name=f"star-{num_hosts}")
    topo.add_switch("s0")
    for index in range(num_hosts):
        name = f"h{index}"
        topo.add_host(name, f"10.0.0.{index + 10}")
        topo.add_link(name, "s0", capacity_bps=capacity_bps, delay=delay)
    return topo


def tree_topo(
    depth: int = 2,
    fanout: int = 2,
    capacity_bps: float = GBPS,
    delay: float = 0.000_05,
) -> Topo:
    """A complete switch tree with hosts at the leaves (Mininet's
    ``tree,depth,fanout``)."""
    if depth < 1 or fanout < 1:
        raise TopologyError("depth and fanout must be >= 1")
    topo = Topo(name=f"tree-d{depth}f{fanout}")
    counter = {"switch": 0, "host": 0}

    def build(level: int) -> str:
        node_id = counter["switch"]
        counter["switch"] += 1
        name = f"s{node_id}"
        topo.add_switch(name)
        for __ in range(fanout):
            if level + 1 < depth:
                child = build(level + 1)
            else:
                host_id = counter["host"]
                counter["host"] += 1
                child = f"h{host_id}"
                topo.add_host(child, f"10.0.{host_id // 250}.{host_id % 250 + 2}")
            topo.add_link(child, name, capacity_bps=capacity_bps, delay=delay)
        return name

    build(0)
    return topo


def leaf_spine_topo(
    num_spines: int = 2,
    num_leaves: int = 4,
    hosts_per_leaf: int = 4,
    capacity_bps: float = GBPS,
    delay: float = 0.000_05,
    device: str = "switch",
) -> Topo:
    """A two-tier Clos: every leaf connects to every spine.

    ``device="router"`` builds the same fabric out of routers (hosts
    get leaf gateways), suited to the static/BGP/OSPF control planes.
    """
    if num_spines < 1 or num_leaves < 1:
        raise TopologyError("need at least one spine and one leaf")
    if device not in ("switch", "router"):
        raise TopologyError(f"unknown leaf-spine device kind {device!r}")
    routers = device == "router"
    topo = Topo(name=f"leafspine-{num_spines}x{num_leaves}")

    def add_device(name: str) -> None:
        if routers:
            topo.add_router(name)
        else:
            topo.add_switch(name)

    for spine in range(num_spines):
        add_device(f"spine{spine}")
    for leaf in range(num_leaves):
        add_device(f"leaf{leaf}")
        for spine in range(num_spines):
            topo.add_link(f"leaf{leaf}", f"spine{spine}",
                          capacity_bps=capacity_bps, delay=delay)
        for host_index in range(hosts_per_leaf):
            name = f"h{leaf}_{host_index}"
            topo.add_host(name, f"10.{leaf}.0.{host_index + 10}",
                          gateway=f"10.{leaf}.0.1" if routers else None)
            topo.add_link(name, f"leaf{leaf}",
                          capacity_bps=capacity_bps, delay=delay)
    return topo


# (name, name, delay-ms) edges of a small continental WAN, loosely
# modelled on the Abilene/Internet2 research backbone.
_WAN_EDGES: List[Tuple[str, str, float]] = [
    ("seattle", "sunnyvale", 13.0),
    ("seattle", "denver", 20.0),
    ("sunnyvale", "losangeles", 6.0),
    ("sunnyvale", "denver", 15.0),
    ("losangeles", "houston", 20.0),
    ("denver", "kansascity", 8.0),
    ("kansascity", "houston", 10.0),
    ("kansascity", "indianapolis", 7.0),
    ("houston", "atlanta", 12.0),
    ("indianapolis", "chicago", 3.0),
    ("indianapolis", "atlanta", 9.0),
    ("chicago", "newyork", 12.0),
    ("atlanta", "washington", 8.0),
    ("newyork", "washington", 3.0),
]


def wan_topo(
    capacity_bps: float = 10 * GBPS, hosts_per_city: int = 1
) -> Topo:
    """A small WAN of routers with realistic propagation delays.

    Each city is a router with ``hosts_per_city`` hosts; suited to the
    BGP and OSPF examples (one AS per city for eBGP experiments).
    """
    topo = Topo(name="wan-abilene")
    cities = sorted({name for edge in _WAN_EDGES for name in edge[:2]})
    for index, city in enumerate(cities):
        topo.add_router(city, router_id=f"10.25{index // 250}.{index % 250}.1")
        for host_index in range(hosts_per_city):
            name = f"h_{city}" if hosts_per_city == 1 else f"h_{city}_{host_index}"
            topo.add_host(name, f"10.{index}.0.{host_index + 10}",
                          gateway=f"10.{index}.0.1")
            topo.add_link(name, city, capacity_bps=capacity_bps, delay=0.000_01)
    for a, b, delay_ms in _WAN_EDGES:
        topo.add_link(a, b, capacity_bps=capacity_bps, delay=delay_ms / 1000.0)
    return topo


def jellyfish_topo(
    num_switches: int = 20,
    ports_per_switch: int = 4,
    hosts_per_switch: int = 1,
    capacity_bps: float = GBPS,
    delay: float = 0.000_05,
    seed: int = 42,
) -> Topo:
    """A Jellyfish: a random regular graph of switches (SIGCOMM'12).

    Each switch reserves ``hosts_per_switch`` ports for hosts and uses
    the remaining ``ports_per_switch`` for the random fabric.  Built
    with networkx's random regular graph for a guaranteed simple
    ``ports_per_switch``-regular topology; deterministic per seed.
    """
    try:
        import networkx as nx
    except ImportError as exc:
        raise ConfigurationError(
            "the jellyfish topology needs networkx, which is not "
            "installed: install the 'jellyfish' extra "
            "(repro[jellyfish])") from exc

    if num_switches < ports_per_switch + 1:
        raise TopologyError(
            f"need more than {ports_per_switch} switches for degree "
            f"{ports_per_switch}"
        )
    if (num_switches * ports_per_switch) % 2:
        raise TopologyError("switches x fabric-ports must be even")
    graph = nx.random_regular_graph(ports_per_switch, num_switches, seed=seed)
    topo = Topo(name=f"jellyfish-{num_switches}x{ports_per_switch}")
    for index in range(num_switches):
        topo.add_switch(f"s{index}")
        for host_index in range(hosts_per_switch):
            name = f"h{index}_{host_index}"
            topo.add_host(name, f"10.{index // 250}.{index % 250}.{host_index + 2}")
            topo.add_link(name, f"s{index}",
                          capacity_bps=capacity_bps, delay=delay)
    for a, b in sorted(graph.edges()):
        topo.add_link(f"s{a}", f"s{b}", capacity_bps=capacity_bps, delay=delay)
    return topo
