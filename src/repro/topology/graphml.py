"""GraphML topology importer (topology-zoo style files).

Loads a GraphML graph — the format the Internet Topology Zoo and most
academic topology datasets publish — into a :class:`Topo`: every
graph node becomes a router (optionally a switch), every edge a link,
and ``hosts_per_node`` hosts hang off each router with per-router /24
subnets and gateways, so the imported fabric is immediately usable
with the static/BGP/OSPF control planes and symmetry detection.

Only the stdlib XML parser is used; no schema validation beyond what
the import needs.  Namespaced and namespace-free documents both load
(tags are matched by local name).  Link capacity is taken from the
first of the ``LinkSpeedRaw`` / ``bandwidth`` / ``capacity_bps`` /
``capacity`` edge attributes that parses as a finite positive number, else
``default_capacity_bps``.  Node names come from the ``label``
attribute when present (sanitized to the identifier-ish charset the
rest of the stack expects), else the GraphML node id; collisions get
numeric suffixes deterministically.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.errors import TopologyError
from repro.topology.topo import GBPS, Topo

#: Edge attributes consulted for link capacity, in priority order.
_CAPACITY_ATTRS = ("LinkSpeedRaw", "bandwidth", "capacity_bps", "capacity")


def _local(tag: str) -> str:
    """Tag name with any ``{namespace}`` prefix stripped."""
    return tag.rsplit("}", 1)[-1]


def _sanitize(name: str) -> str:
    cleaned = "".join(ch if ch.isalnum() else "_" for ch in name.strip())
    cleaned = cleaned.strip("_")
    return cleaned or "node"


def parse_graphml(text: str) -> Tuple[str, List[str], List[Tuple[str, str, Optional[float]]]]:
    """Parse GraphML text into (graph name, node names, edges).

    Edges are ``(node_a, node_b, capacity_bps_or_None)`` with
    endpoints already translated to the sanitized, deduplicated node
    names.  Node order and edge order follow document order, so the
    resulting topology is deterministic for a given file.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise TopologyError(f"not parseable as GraphML: {exc}") from None
    if _local(root.tag) != "graphml":
        raise TopologyError(
            f"not a GraphML document (root element {_local(root.tag)!r})")

    # <key id="d33" for="node" attr.name="label"/> declarations.
    attr_names: Dict[str, str] = {}
    for element in root.iter():
        if _local(element.tag) == "key":
            key_id = element.get("id")
            name = element.get("attr.name")
            if key_id and name:
                attr_names[key_id] = name

    graph = next((el for el in root.iter() if _local(el.tag) == "graph"), None)
    if graph is None:
        raise TopologyError("GraphML document has no <graph> element")
    graph_name = graph.get("id") or "graphml"

    def data_attrs(element) -> Dict[str, str]:
        out = {}
        for child in element:
            if _local(child.tag) == "data":
                name = attr_names.get(child.get("key", ""), child.get("key"))
                if name is not None and child.text is not None:
                    out[name] = child.text
        return out

    names: List[str] = []
    by_id: Dict[str, str] = {}
    used: Dict[str, int] = {}
    for element in graph:
        if _local(element.tag) != "node":
            continue
        node_id = element.get("id")
        if node_id is None:
            raise TopologyError("GraphML node without an id")
        label = data_attrs(element).get("label") or node_id
        name = _sanitize(label)
        count = used.get(name, 0)
        used[name] = count + 1
        if count:
            name = f"{name}_{count + 1}"
        by_id[node_id] = name
        names.append(name)
    if not names:
        raise TopologyError("GraphML graph has no nodes")

    edges: List[Tuple[str, str, Optional[float]]] = []
    for element in graph:
        if _local(element.tag) != "edge":
            continue
        source = element.get("source")
        target = element.get("target")
        if source not in by_id or target not in by_id:
            raise TopologyError(
                f"GraphML edge references unknown node "
                f"{source!r} or {target!r}")
        if source == target:
            continue  # self-loops carry no forwarding meaning here
        capacity: Optional[float] = None
        attrs = data_attrs(element)
        for attr in _CAPACITY_ATTRS:
            raw = attrs.get(attr)
            if raw is None:
                continue
            try:
                value = float(raw)
            except ValueError:
                continue
            if math.isfinite(value) and value > 0:
                capacity = value
                break
        edges.append((by_id[source], by_id[target], capacity))
    return graph_name, names, edges


def graphml_topo(
    path: str,
    hosts_per_node: int = 1,
    default_capacity_bps: float = GBPS,
    delay: float = 0.000_05,
    device: str = "router",
) -> Topo:
    """Build a :class:`Topo` from a GraphML file on disk.

    Registered as the ``graphml`` topology recipe kind, so a scenario
    spec can point straight at a topology-zoo file::

        {"kind": "graphml", "params": {"path": "tests/data/ring4.graphml"}}
    """
    if hosts_per_node < 0:
        raise TopologyError("hosts_per_node must be >= 0")
    if device not in ("router", "switch"):
        raise TopologyError(f"unknown graphml device kind {device!r}")
    file_path = Path(path)
    try:
        text = file_path.read_text()
    except OSError as exc:
        raise TopologyError(f"cannot read GraphML file {path!r}: {exc}") from None
    graph_name, names, edges = parse_graphml(text)

    topo = Topo(name=f"graphml-{_sanitize(graph_name).lower()}")
    for index, name in enumerate(names):
        if device == "router":
            topo.add_router(name)
        else:
            topo.add_switch(name)
        subnet = f"10.{index >> 8}.{index & 255}"
        for host_index in range(hosts_per_node):
            host = f"h_{name}_{host_index}"
            topo.add_host(
                host, f"{subnet}.{host_index + 2}",
                gateway=f"{subnet}.1" if device == "router" else None)
            topo.add_link(host, name,
                          capacity_bps=default_capacity_bps, delay=delay)
    for node_a, node_b, capacity in edges:
        topo.add_link(node_a, node_b,
                      capacity_bps=capacity or default_capacity_bps,
                      delay=delay)
    return topo
