"""Structural symmetry detection: color refinement over a ``Topo``.

:meth:`SymmetryMap.from_topo` partitions the declared nodes (and
links) of a topology into *structural automorphism classes* by
color refinement — the 1-dimensional Weisfeiler-Leman algorithm:

1. every node starts with a *seed color* — its role (host / switch /
   router) plus any *pin* attached to it (see below);
2. every link starts with a seed color of (capacity, delay) plus its
   pin;
3. rounds alternate: a node's new color is its old color joined with
   the multiset of (incident link color, peer color) pairs; a link's
   new color is its old color joined with the unordered pair of
   endpoint colors.  Rounds repeat until neither partition refines.

At the fixpoint the partition is *equitable*: two nodes share a class
only if they see identical color-degree profiles, the necessary
condition for an automorphism to map one onto the other.  1-WL can
fail to *split* nodes that no automorphism relates (regular-graph
corner cases), which is why the runtime quotient layer re-checks
value uniformity on every class before trusting it — the map is a
candidate partition, and every consumer treats it conservatively.

**Pins** keep the partition honest about the experiment, not just the
graph: a node or link that an injection (or explicit traffic
endpoint) targets gets the injection's *shape* — kind, timing,
magnitude, everything except the target names — folded into its seed
color.  Two links degraded by the same SRLG injection at the same
instants keep identical seeds (the shared-risk group stays one
class), while a link singled out by a lone ``link-fail`` is split
from its untouched siblings before the simulation even starts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.topology.topo import Topo


def _canon(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=str)


class Pins:
    """Seed-color annotations for injection/traffic target sites."""

    def __init__(self) -> None:
        self.node_pins: Dict[str, List[str]] = {}
        self.link_pins: Dict[Tuple[str, str], List[str]] = {}

    def pin_node(self, name: str, signature: str) -> None:
        self.node_pins.setdefault(name, []).append(signature)

    def pin_link(self, node_a: str, node_b: str, signature: str) -> None:
        key = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
        self.link_pins.setdefault(key, []).append(signature)

    def node_seed(self, name: str) -> Tuple[str, ...]:
        return tuple(sorted(self.node_pins.get(name, ())))

    def link_seed(self, node_a: str, node_b: str) -> Tuple[str, ...]:
        key = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
        return tuple(sorted(self.link_pins.get(key, ())))


#: Injection parameters that name concrete targets.  They are stripped
#: from the pin signature so that symmetric targets of one correlated
#: family (an SRLG, a partition group) keep identical seeds.
_TARGET_FIELDS = ("node_a", "node_b", "node", "group", "pairs")


def injection_pins(injections: Iterable[Any]) -> Pins:
    """Pins for every node/link a list of injections touches.

    The pin signature is the injection's serialized form minus its
    target names — its kind, schedule and magnitude.  Identically
    shaped injections therefore pin their targets identically.  The
    fields are read off the dataclass directly (no ``to_dict`` deep
    copy) and a shape is serialized once however many targets share
    it: an SRLG sweep is thousands of injections in a few hundred
    shapes.
    """
    pins = Pins()
    fields_of: Dict[type, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}
    signatures: Dict[Any, str] = {}
    for injection in injections:
        cls = type(injection)
        if cls not in fields_of:
            names = tuple(f.name for f in dataclasses.fields(cls))
            fields_of[cls] = (names, tuple(
                name for name in names if name not in _TARGET_FIELDS))
        names, shape_names = fields_of[cls]
        values = tuple(getattr(injection, name) for name in shape_names)
        # 1, 1.0 and True hash alike but serialize apart: key on types.
        key = (cls, values, tuple(map(type, values)))
        try:
            signature = signatures.get(key)
        except TypeError:       # an unhashable (list-valued) shape field
            key = signature = None
        if signature is None:
            signature = _canon(dict(zip(shape_names, values),
                                    kind=injection.kind))
            if key is not None:
                signatures[key] = signature
        if "node_a" in names and "node_b" in names:
            pins.pin_link(injection.node_a, injection.node_b, signature)
        node = getattr(injection, "node", None)
        if node:
            pins.pin_node(node, signature)
        for name in getattr(injection, "group", None) or ():
            pins.pin_node(name, signature)
        for pair in getattr(injection, "pairs", None) or ():
            for name in pair:
                pins.pin_node(name, signature)
    return pins


class SymmetryMap:
    """The detected class partition of one topology's nodes and links."""

    def __init__(
        self,
        topo_name: str,
        classes: List[List[str]],
        link_classes: List[int],
        link_class_count: int,
    ) -> None:
        self.topo_name = topo_name
        #: Node classes: each a sorted member-name list; classes are
        #: ordered by their smallest member, so ids are canonical.
        self.classes = classes
        self.class_of: Dict[str, int] = {}
        for class_id, members in enumerate(classes):
            for name in members:
                self.class_of[name] = class_id
        #: Per-link class id, aligned with ``topo.link_specs`` (which
        #: is also the creation order of ``Network.links``).
        self.link_classes = link_classes
        self.link_class_count = link_class_count

    # -- construction -----------------------------------------------------

    @classmethod
    def from_topo(cls, topo: Topo, pins: Optional[Pins] = None) -> "SymmetryMap":
        pins = pins or Pins()
        names: List[str] = list(topo.host_specs) + list(topo.switch_specs)
        roles: Dict[str, str] = {name: "host" for name in topo.host_specs}
        for spec in topo.switch_specs.values():
            roles[spec.name] = spec.kind

        links = topo.link_specs
        node_index = {name: i for i, name in enumerate(names)}
        ends = [(node_index[link.node_a], node_index[link.node_b])
                for link in links]
        incident: List[List[Tuple[int, int]]] = [[] for __ in names]
        for index, (a, b) in enumerate(ends):
            incident[a].append((index, b))
            incident[b].append((index, a))

        def node_profiles(node_color, link_color):
            # The multiset of (old link color, old peer color) pairs.
            return [tuple(sorted((link_color[e], node_color[peer])
                                 for e, peer in pairs))
                    for pairs in incident]

        def link_profiles(new_node):
            # The unordered pair of *new* endpoint colors.
            return [tuple(sorted((new_node[a], new_node[b])))
                    for a, b in ends]

        node_color, link_color = refine(
            [(roles[name], pins.node_seed(name)) for name in names],
            [(link.capacity_bps, link.delay,
              pins.link_seed(link.node_a, link.node_b))
             for link in links],
            node_profiles, link_profiles)

        # Canonicalize: classes ordered by their smallest member name.
        classes = sorted((sorted(names[i] for i in group)
                          for group in color_groups(node_color)),
                         key=lambda members: members[0])
        ordered = color_groups(link_color)
        link_classes = [0] * len(links)
        for class_id, idxs in enumerate(ordered):
            for index in idxs:
                link_classes[index] = class_id

        return cls(
            topo_name=topo.name,
            classes=classes,
            link_classes=link_classes,
            link_class_count=len(ordered),
        )

    # -- queries ----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.class_of)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def node_compression(self) -> float:
        """Concrete nodes per class (1.0 = no symmetry found)."""
        if not self.classes:
            return 1.0
        return self.node_count / len(self.classes)

    def link_compression(self) -> float:
        if not self.link_classes:
            return 1.0
        return len(self.link_classes) / max(1, self.link_class_count)

    def digest(self) -> str:
        """Canonical digest of the whole partition — the cross-process
        determinism pin: same recipe, same digest, any process."""
        payload = {
            "classes": self.classes,
            "link_classes": self.link_classes,
        }
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def describe(self, max_members: int = 6) -> str:
        """Human-readable class table for the CLI."""
        lines = [
            f"topology {self.topo_name!r}: {self.node_count} nodes -> "
            f"{self.class_count} classes "
            f"(compression {self.node_compression():.2f}x), "
            f"{len(self.link_classes)} links -> "
            f"{self.link_class_count} classes "
            f"(compression {self.link_compression():.2f}x)",
            f"digest {self.digest()}",
        ]
        for class_id, members in enumerate(self.classes):
            shown = ", ".join(members[:max_members])
            more = ("" if len(members) <= max_members
                    else f", ... +{len(members) - max_members}")
            lines.append(
                f"  class {class_id:>3} ({len(members):>4} nodes): "
                f"{shown}{more}")
        return "\n".join(lines)


def symmetry_map_for_spec(spec: Any) -> SymmetryMap:
    """The map a scenario's runner would use: the spec's topology with
    every injection target pinned."""
    topo = spec.topology.build()
    return SymmetryMap.from_topo(topo, pins=injection_pins(spec.injections))


# -- helpers --------------------------------------------------------------


def refine(
    seeds_a: Sequence[Any],
    seeds_b: Sequence[Any],
    profiles_a: Callable[[List[int], List[int]], Sequence[Any]],
    profiles_b: Callable[[List[int]], Sequence[Any]],
) -> Tuple[List[int], List[int]]:
    """Joint color refinement of two partitions to their fixpoint:
    nodes against links here, flows against link directions in
    :mod:`repro.symmetry.quotient`.  Returns the (A, B) colors.

    Seeds are interned to dense ints.  Each round an A element's color
    joins ``profiles_a(old A, old B)[i]``, then a B element's joins
    ``profiles_b(new A)[j]``; colors only split, so the rounds stop
    when neither class count grows.
    """
    colors_a, colors_b = _intern(seeds_a), _intern(seeds_b)
    while True:
        new_a = _intern(zip(colors_a, profiles_a(colors_a, colors_b)))
        new_b = _intern(zip(colors_b, profiles_b(new_a)))
        # Colors are dense, so max() + 1 is the class count.
        stable = (max(new_a, default=0) == max(colors_a, default=0)
                  and max(new_b, default=0) == max(colors_b, default=0))
        colors_a, colors_b = new_a, new_b
        if stable:
            return colors_a, colors_b


def color_groups(colors: Sequence[int]) -> List[List[int]]:
    """Positions grouped by color, each group ascending, groups ordered
    by smallest position (canonical for canonically ordered inputs)."""
    groups: Dict[int, List[int]] = {}
    for pos, color in enumerate(colors):
        groups.setdefault(color, []).append(pos)
    return sorted(groups.values(), key=lambda group: group[0])


def _intern(signatures: Iterable[Any]) -> List[int]:
    """Relabel arbitrary hashable signatures as dense ints, first
    occurrence order (deterministic for deterministic input order)."""
    table: Dict[Any, int] = {}
    out: List[int] = []
    for sig in signatures:
        color = table.get(sig)
        if color is None:
            color = len(table)
            table[sig] = color
        out.append(color)
    return out

