"""The runtime quotient layer: class-level solves and accrual.

:class:`QuotientState` rides the incremental reallocation engine
(:class:`~repro.dataplane.realloc.ReallocEngine`).  After every
concrete recompute it re-partitions the *delivered* flows and the link
directions they cross by joint color refinement (1-WL over the
flow/direction incidence structure, seeded with demands, current
rates, delivered bytes, capacities and the topology-level
:class:`~repro.symmetry.refine.SymmetryMap` classes), with the
:func:`~repro.symmetry.refine.refine` loop the map is built by.  At the WL
fixpoint the partition is *equitable*: all members of a flow class
cross the same multiset of direction classes, and every member link
of a direction class is crossed by the same per-class flow counts.

While the partition holds, a reallocation whose only dirt is
class-closed capacity change (every affected direction class uniform
at its new capacity — e.g. an SRLG degrading a whole pod tier) takes
the **fast path**: a class-level connected-component walk plus one
call of the engine's instance builder and scalar kernel,
:func:`repro.dataplane.solver.solve_rows`, on the *folded* rows — one
per flow class, keyed by direction class, each entry carrying how
many member flows cross the representative.  A class holds only its
shared rate and delivered bytes; demand and capacity are read off its
first member.  Byte accrual runs per *class* accumulator.

Anything else — a flow starting, a forwarding-state or reachability
change, a capacity change that splits a class — **materializes** the
class values back onto the concrete flows
(copy-on-write refinement: the quotient dissolves, the existing
concrete engine handles the event exactly as it would without
symmetry, and the next rebuild re-compresses whatever symmetry is
left, with the divergent region falling into singleton classes).  A
flow stopping materializes at the stop itself, not at the recompute
that follows it (:meth:`ReallocEngine.stop`): the stop splits its
class, and with the recompute held back (``recompute_min_interval``)
class accrual would keep crediting the stopped member until then.
Those concrete recomputes run whichever kernel the engine's one rule
picks (the arrays mirror when the network is big enough to repay it
and numpy is installed; the first mirror binds it): the quotient drops
the mirror when it takes over, since class-level rate and capacity
changes never reach it, and the engine re-interns it from the cached
walks after a materialize.

Bit-for-bit contract
--------------------

The fast path reproduces the concrete engine's floating-point results
exactly, not approximately:

* the kernel performs on a representative link's ``frozen_load`` the
  *same sequential additions* the all-ones instance performs on every
  member link — one two-operand ``+= rate`` per crossing member
  flow, in non-decreasing water-level order (runs of
  equal addends commute, so per-event batching is exact); a plain
  ``count * rate`` multiplication would **not** be (``fl(k*v)`` is
  not ``k`` sequential adds);
* class components are solved per component, exactly as the concrete
  engine solves per concrete component — a WL class component is a
  union of isomorphically-behaving concrete components, so one
  representative trajectory equals each member's solo trajectory;
* class accrual applies the identical ``rate * dt / 8.0`` expression
  once per class to an accumulator equal to every member's
  ``delivered_bytes`` (equality of the bases is part of the seed
  colors, so it is checked, not assumed).

Host, port and direction byte counters lag while the quotient holds:
their rate spans close when it activates, and a materialize credits
them each member flow's bytes earned since, then reopens the spans, so
``finalize_accounting()`` leaves them current.  Flow-table
``byte_count`` and ``last_used_at`` are never maintained on the fast
path; the quotient therefore only activates for protocols without
flow-table timeout or stats coupling ("none", "static") — the runner
gates this.  A rebuild also refuses to
activate when some flow crosses two links of the same direction class
(ring-like quotients), where per-event batching is not provably
exact; those scenarios simply run concrete.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.dataplane.solver import solve_rows
from repro.obs.spans import span
from repro.symmetry.refine import color_groups, refine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.link import Link, LinkDirection
    from repro.dataplane.realloc import ReallocEngine
    from repro.symmetry.refine import SymmetryMap


class _FlowClass:
    """One class of interchangeable delivered flows."""

    __slots__ = ("flows", "rate", "delivered", "qlinks")

    def __init__(self, flows, rate, delivered) -> None:
        self.flows = flows          # FluidFlow objects, fid order
        self.rate = rate
        self.delivered = delivered  # the shared delivered_bytes value
        # (dir class index, members-per-representative-link) pairs in
        # path order.
        self.qlinks: List[Tuple[int, int]] = []


class _DirClass:
    """One class of interchangeable link directions."""

    __slots__ = ("dirs", "member_fclasses")

    def __init__(self, dirs) -> None:
        self.dirs = dirs            # LinkDirection members, canonical order
        self.member_fclasses: List[int] = []


class QuotientState:
    """Class partition + class-level rates/bytes, owned by the engine."""

    def __init__(self, engine: "ReallocEngine",
                 symmetry_map: "Optional[SymmetryMap]" = None) -> None:
        self.engine = engine
        self.symmetry_map = symmetry_map
        self.active = False
        self.reason: Optional[str] = "not built yet"
        self.flow_classes: List[_FlowClass] = []
        self.dir_classes: List[_DirClass] = []
        self._dir_class_of: Dict[int, int] = {}  # id(direction) -> class
        self._flow_class_of: Dict[int, _FlowClass] = {}  # flow id -> class
        # Counters / snapshot for diagnostics.
        self.rebuilds = 0
        self.fast_recomputes = 0
        self.materializations = 0
        self.class_components_solved = 0
        self.class_solves = 0
        self._snapshot: Dict[str, Any] = {}
        # id(Link) -> topology-level link class (creation order aligns
        # Network.links with SymmetryMap.link_classes).
        self._link_class: Dict[int, int] = {}
        if symmetry_map is not None:
            links = engine.network.links
            if len(links) == len(symmetry_map.link_classes):
                self._link_class = {
                    id(link): symmetry_map.link_classes[i]
                    for i, link in enumerate(links)
                }

    # -- partition maintenance --------------------------------------------

    def deactivate(self, reason: str) -> None:
        self.active = False
        self.reason = reason
        self.flow_classes = []
        self.dir_classes = []
        self._dir_class_of = {}
        self._flow_class_of = {}

    def rate_of(self, flow) -> float:
        """The rate loads and host rates read for ``flow`` while the
        quotient holds: its class's (the member flows' own ``rate_bps``
        lag until a materialize writes it back)."""
        fc = self._flow_class_of.get(flow.id)
        return flow.rate_bps if fc is None else fc.rate

    def rebuild(self, now: float) -> None:
        """Re-refine from the engine's cached walks (after a concrete
        recompute, when every value is concrete and consistent)."""
        with span("quotient.rebuild") as sp:
            self._rebuild(now)
            sp.set(active=self.active,
                   flow_classes=len(self.flow_classes))

    def _rebuild(self, now: float) -> None:
        self.rebuilds += 1
        engine = self.engine
        # The delivered_bytes seed colours are read off the flow
        # objects, which lag the sealed accrual timeline.
        engine.replay_accrual()
        cache = engine._cache
        dir_flows = engine._dir_flows

        fids = [fid for fid in sorted(cache) if cache[fid].dirs]
        if not fids:
            self.deactivate("no delivered flows")
            return
        dirs = sorted(dir_flows, key=lambda d: d.key())
        fid_pos = {fid: i for i, fid in enumerate(fids)}
        dir_pos = {id(d): j for j, d in enumerate(dirs)}

        node_class = (self.symmetry_map.class_of
                      if self.symmetry_map is not None else {})
        link_class = self._link_class

        fseeds = []
        for fid in fids:
            flow = cache[fid].flow
            fseeds.append((
                flow.demand_bps, flow.rate_bps, flow.delivered_bytes,
                node_class.get(flow.src.name, -1),
                node_class.get(flow.dst.name, -1),
            ))
        dseeds = []
        for d in dirs:
            dseeds.append((
                d.capacity_bps,
                node_class.get(d.src_port.node.name, -1),
                node_class.get(d.dst_port.node.name, -1),
                link_class.get(id(d.link), -1),
            ))
        paths = [[dir_pos[id(d)] for d in cache[fid].dirs] for fid in fids]
        members = [sorted(fid_pos[fid] for fid in dir_flows[d]) for d in dirs]

        def flow_profiles(fcolor, dcolor):
            # A flow's ordered *old* direction-color sequence.
            return [tuple(dcolor[j] for j in path) for path in paths]

        def dir_profiles(new_f):
            # The counts of a direction's crossing flows' *new* colors.
            return [tuple(sorted(Counter(new_f[i] for i in crossing).items()))
                    for crossing in members]

        fcolor, dcolor = refine(fseeds, dseeds, flow_profiles, dir_profiles)
        # Canonical classes: flow classes ordered by smallest fid,
        # direction classes by smallest direction key.
        fgroups = color_groups(fcolor)
        dgroups = color_groups(dcolor)

        dir_classes: List[_DirClass] = []
        dir_class_of: Dict[int, int] = {}
        for group in dgroups:
            dc = _DirClass([dirs[j] for j in group])
            for j in group:
                dir_class_of[id(dirs[j])] = len(dir_classes)
            dir_classes.append(dc)

        flow_classes: List[_FlowClass] = []
        fclass_of_pos: Dict[int, int] = {}
        for group in fgroups:
            rep_flow = cache[fids[group[0]]].flow
            fc = _FlowClass([cache[fids[i]].flow for i in group],
                            rep_flow.rate_bps, rep_flow.delivered_bytes)
            for i in group:
                fclass_of_pos[i] = len(flow_classes)
            flow_classes.append(fc)

        # Per-representative-link crossing counts, path-ordered qlinks,
        # and the multi-crossing guard.
        rep_counts: List[Counter] = []
        for dc in dir_classes:
            counts = Counter(fclass_of_pos[i]
                             for i in members[dir_pos[id(dc.dirs[0])]])
            rep_counts.append(counts)
            dc.member_fclasses = sorted(counts)

        for group, fc in zip(fgroups, flow_classes):
            seq = [dir_class_of[id(d)]
                   for d in cache[fids[group[0]]].dirs]
            if len(set(seq)) != len(seq):
                self.deactivate("a flow crosses one direction class twice")
                return
            fci = fclass_of_pos[group[0]]
            fc.qlinks = [(dci, rep_counts[dci].get(fci, 0)) for dci in seq]

        # Equitability double-check (conservative belt and braces): the
        # total (flow class, dir class) incidence must spread evenly
        # over the dir class's member links.
        totals = Counter((fclass_of_pos[i], dir_class_of[id(dirs[j])])
                         for i, path in enumerate(paths) for j in path)
        for (fci, dci), total in totals.items():
            expected = rep_counts[dci].get(fci, 0) * len(dir_classes[dci].dirs)
            if total != expected:
                self.deactivate("partition is not equitable")
                return

        self.flow_classes = flow_classes
        self.dir_classes = dir_classes
        self._dir_class_of = dir_class_of
        self._flow_class_of = {flow.id: fc for fc in flow_classes
                               for flow in fc.flows}
        # Class-level rate and capacity changes never reach the arrays
        # mirror; the engine re-interns it after materialize().  They
        # never reach a rate span either: the spans close here and the
        # members' bytes are credited at the materialize.
        engine._drop_mirror()
        engine.close_spans(now)
        self.active = True
        self.reason = None
        self._snapshot = {
            "flows": len(fids),
            "flow_classes": len(flow_classes),
            "dirs": len(dirs),
            "dir_classes": len(dir_classes),
            "flow_compression": len(fids) / len(flow_classes),
            "dir_compression": len(dirs) / len(dir_classes),
        }

    def materialize(self) -> None:
        """Write class values back onto concrete flows and drop to
        concrete mode (no-op when already concrete)."""
        if not self.active:
            return
        self.materializations += 1
        with span("quotient.materialize"):
            self._materialize()

    def _materialize(self) -> None:
        engine = self.engine
        credit = engine.credit_flow
        for fc in self.flow_classes:
            rate = fc.rate
            delivered = fc.delivered
            for flow in fc.flows:
                flow.rate_bps = rate
                # What the flow earned while the quotient held goes to
                # the counters its spans would have fed.
                earned = delivered - flow.delivered_bytes
                flow.delivered_bytes = delivered
                if earned:
                    credit(flow, earned)
        # Loads and host rates need nothing: read from here on, they
        # derive from the rates just written, which equal the class
        # rates they derived from while the quotient held.
        self.active = False
        self.reason = "materialized"
        engine.reopen_spans()

    # -- the fast path -----------------------------------------------------

    def try_fast_cap_update(self, cap_dirty_links: "List[Link]") -> bool:
        """Handle a capacity-only reallocation at class level.

        Returns False (caller materializes and runs concrete) unless
        every affected direction class is capacity-uniform after the
        change — the class-closure check that keeps the partition
        honest when an injection breaks symmetry.
        """
        affected = set()
        for link in cap_dirty_links:
            for direction in (link.forward, link.reverse):
                dci = self._dir_class_of.get(id(direction))
                if dci is not None:
                    affected.add(dci)
        for dci in affected:
            dc = self.dir_classes[dci]
            cap = dc.dirs[0].capacity_bps
            for direction in dc.dirs:
                if direction.capacity_bps != cap:
                    return False

        # Class-level connected components seeded by the dirty classes
        # (the quotient of the concrete engine's component walk).
        visited = set()
        components: List[List[int]] = []
        for start in sorted(affected):
            if start in visited:
                continue
            visited.add(start)
            comp = set()
            stack = [start]
            while stack:
                dci = stack.pop()
                for fci in self.dir_classes[dci].member_fclasses:
                    if fci in comp:
                        continue
                    comp.add(fci)
                    for other, __ in self.flow_classes[fci].qlinks:
                        if other not in visited:
                            visited.add(other)
                            stack.append(other)
            if comp:
                components.append(sorted(comp))

        with span("quotient.fast_cap", components=len(components)):
            for comp in components:
                self._solve_class_component(comp)

        self.fast_recomputes += 1
        return True

    def _solve_class_component(self, comp: List[int]) -> None:
        """Solve one class component with the engine's instance builder
        (classes in canonical order, direction classes interned in
        first-appearance path order).  Demands and capacities are read
        off the first member: the seed colors make them uniform per
        class, and the closure check keeps capacities so."""
        self.class_components_solved += 1
        self.class_solves += len(comp)
        fcs = [self.flow_classes[fci] for fci in comp]
        dir_classes = self.dir_classes
        rates = solve_rows(
            (fc.flows[0].demand_bps,
             [(dci, dir_classes[dci].dirs[0].capacity_bps, count)
              for dci, count in fc.qlinks])
            for fc in fcs)
        for fc, rate in zip(fcs, rates):
            fc.rate = rate

    # -- class-level byte accrual ------------------------------------------

    def accrue(self, dt: float, now: float) -> None:
        """One accrual step per class — the same ``rate * dt / 8.0``
        float expression every member flow would apply to an identical
        accumulator.  (Host, port and direction counters are credited
        at materialize; flow-table counters are not maintained, and the
        runner only activates the quotient where nothing reads them.)
        """
        for fc in self.flow_classes:
            rate = fc.rate
            if rate <= 0:
                continue
            fc.delivered += rate * dt / 8.0

    # -- diagnostics --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        smap = self.symmetry_map
        out: Dict[str, Any] = {
            "active": self.active,
            "reason": self.reason,
            "rebuilds": self.rebuilds,
            "fast_recomputes": self.fast_recomputes,
            "materializations": self.materializations,
            "class_components_solved": self.class_components_solved,
            "class_solves": self.class_solves,
        }
        if smap is not None:
            out["node_classes"] = smap.class_count
            out["node_compression"] = smap.node_compression()
        out.update(self._snapshot)
        return out

