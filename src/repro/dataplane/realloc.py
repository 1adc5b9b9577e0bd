"""Incremental fluid reallocation: dirty-flow tracking + scoped solves.

Pre-PR-2, every reallocation re-walked the forwarding path of *every*
active flow and re-solved the *global* max-min allocation — O(flows ×
hops) + O(rounds × links × flows) per flow start/stop, route install or
failure injection.  This module makes the hot path incremental:

**Path caching with epoch invalidation.**  Every node exposes a
monotonic ``fwd_epoch`` (folding in flow-table, group-table and FIB
versions plus up/down state) and every link a ``path_epoch`` /
``cap_epoch`` pair.  The engine caches each flow's walked path together
with a reverse dependency index (node → flows whose walk visited it,
link → flows whose walk crossed or was blocked by it).  Every mutation
that bumps an epoch also registers its owner as *touched* on the
network, so a recompute compares epochs only for those — O(what
changed), not O(nodes + links) — and re-walks only the flows reachable
from a changed entity, plus flows that explicitly started or stopped.
The epochs and the seen-epoch maps remain the definition of "changed"
(a notification without an epoch change is a no-op) and what a full
recompute resynchronises.

**Scoped re-solve.**  Only *contended* directions couple flows: a
direction whose offered load — the summed demand of the flows crossing
it, each once — stays under ``capacity · (1 − CONTENTION_MARGIN)`` can
never be a bottleneck (its saturation key stays above the smallest
unfrozen demand on it at every step of the filling, so it never wins a
pop), and an instance without it has the same solution float for float.
The engine keeps one flag per crossed direction and partitions and
solves the flow/direction graph through flagged directions only.  The
seeds of a recompute are the old and new hops of every re-walked flow
and both directions of every capacity-changed link; each seed is
re-classified from scratch (no other flag can have moved), and the
flows to re-solve are the re-walked delivered ones plus every flow on a
seed that is or was contended.  Those are partitioned into connected
components through contended directions and each component is solved
over its contended directions; a flow that reaches no contended
direction takes its demand without a kernel call, and every other rate
is spliced through unchanged.  A change therefore costs its ripple, not
its connected component.

**Loads and host rates are derived on read.**  A direction's
``current_load_bps`` and a host's ``rx_rate_bps`` / ``tx_rate_bps`` are
pure functions of the cached walks and their rates, so no recompute
writes them: :meth:`ReallocEngine.derived` sums one on first read (over
every flow on it, in flow-id order — the adds a rebuild of everything
makes) and caches it.  A recompute drops what it may have moved — the
directions a seed or a re-assigned flow crosses, the hosts of re-walked
or re-assigned flows — and a full recompute drops everything.  Two
changes of a flow's rate happen outside a recompute, and both settle
the affected values first so a read keeps seeing the last recompute's
snapshot: ``Network.stop_flow`` (that flow's directions and hosts) and
:meth:`ReallocEngine.forget` (all of them).

All of that is one delta path, the same Python adds for both kernels.
What the kernel decides is who solves a contended component and how
bytes accrue: the struct-of-arrays mirror (:mod:`repro.dataplane.arrays`)
when numpy imports and the network has registered ``ARRAYS_MIN_FLOWS``
flows or more, the scalar kernel of :mod:`repro.dataplane.solver` and
the per-flow accrual below that size, without numpy or when
``kernel="heap"`` forces it.

A symmetry quotient's class-level updates move capacities without
classifying anything, so the engine forgets its flags whenever one
happens and re-derives them all at the concrete recompute that follows
the hand-back (as after ``forget()``).  They move class rates too, so
they drop every derived value, and while the quotient holds a
derivation reads each flow's class rate.

A *full* recompute runs through the same classify-partition-solve code
with every active flow marked dirty and no flag known, so the
incremental path is bit-for-bit identical to a from-scratch recompute:
a component's solve is a pure function of the component instance (flows
in id order, contended directions in first-appearance order), and any
change to an instance re-solves it.

Topology growth (new nodes/links) bumps ``Network.topo_epoch`` and
falls back to one full recompute — cables appearing mid-run invalidate
walk outcomes that no per-entity epoch witnesses (a previously
unconnected port, say).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple, Union, TYPE_CHECKING

from repro.dataplane import arrays as _arrays
from repro.dataplane import solver as _solver
from repro.dataplane.flow import FluidFlow, PathStatus
from repro.dataplane.host import Host
from repro.dataplane.solver import EPSILON
from repro.obs.spans import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.link import LinkDirection
    from repro.dataplane.network import Network


#: Sort key: a node's or link's position in its network's insertion order.
_net_index = attrgetter("_net_index")
#: A flow's rate as a concrete derivation reads it.
_rate_bps = attrgetter("rate_bps")


class _CachedWalk:
    """One flow's cached walk result and its dependency footprint."""

    __slots__ = ("flow", "result", "delivered", "node_deps", "link_deps",
                 "dirs")

    def __init__(self, flow: FluidFlow, result) -> None:
        self.flow = flow
        self.result = result
        self.delivered: bool = result.delivered
        node_deps = {flow.src.name}
        for hop in result.hops:
            node_deps.add(hop.dst_port.node.name)
        link_deps = {hop.link.id for hop in result.hops}
        if result.blocking_link is not None:
            link_deps.add(result.blocking_link.id)
        self.node_deps = node_deps
        self.link_deps = link_deps
        # Directions only matter for delivered flows: undelivered flows
        # carry no rate and constrain nobody.
        self.dirs: List["LinkDirection"] = (
            list(result.hops) if result.delivered else []
        )

    def same_row(self, other: Optional["_CachedWalk"]) -> bool:
        """Whether *other* delivered over exactly these directions and
        flow-table entries (the entries by identity: each carries its
        own counters) — the mirror row the walk interns is unchanged."""
        if other is None or not other.delivered or other.dirs != self.dirs:
            return False
        mine, theirs = self.result.entries, other.result.entries
        return len(mine) == len(theirs) and all(
            a is b for (__, a), (__, b) in zip(mine, theirs))


def _accrue_scalar(flows: List[FluidFlow], segments: List[tuple]) -> None:
    """Integrate ``flows``' rates over ``(dt, now)`` segments, object by
    object: what the sealed timeline replays in bulk, in the same visit
    order (flow id, hops and entries in path order)."""
    for dt, seg_now in segments:
        for flow in flows:
            if (not flow.active or flow.path is None
                    or not flow.path.delivered):
                continue
            if flow.rate_bps <= 0:
                continue
            transferred = flow.rate_bps * dt / 8.0  # bits -> bytes
            flow.delivered_bytes += transferred
            flow.src.tx_bytes += transferred
            flow.dst.rx_bytes += transferred
            for hop in flow.path.hops:
                hop.bytes_carried += transferred
                hop.src_port.tx_bytes += transferred
                hop.dst_port.rx_bytes += transferred
            for __, entry in flow.path.entries:
                entry.byte_count += transferred
                entry.last_used_at = seg_now


class ReallocEngine:
    """Owns the dirty-set logic and the scoped max-min re-solve."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        # Requested solver kernel: "auto" or "heap" (see
        # effective_kernel for the rule).
        self._kernel = "auto"
        # The persisted struct-of-arrays mirror (created lazily by the
        # first recompute that runs the arrays kernel without one).
        self._arrays: Optional[_arrays.ArraysState] = None
        self._cache: Dict[int, _CachedWalk] = {}
        self._node_flows: Dict[str, Set[int]] = {}
        self._link_flows: Dict[int, Set[int]] = {}
        self._dir_flows: Dict["LinkDirection", Set[int]] = {}
        # Values derived on read (see derived()): a direction's load, a
        # host's (rx, tx); an entry lives until a change drops it.
        self._derived: Dict[object, Union[float, Tuple[float, float]]] = {}
        # The directions that couple flows (offered load can reach
        # capacity); None while no flag is known.
        self._contended: Optional[Set["LinkDirection"]] = None
        self._seen_node_epoch: Dict[str, int] = {}
        self._seen_link_path_epoch: Dict[int, int] = {}
        self._seen_link_cap_epoch: Dict[int, int] = {}
        self._seen_topo_epoch: Optional[int] = None
        # Flows whose activation changed since the last recompute.
        self._pending: Dict[int, FluidFlow] = {}
        # Optional symmetry quotient layer (see repro.symmetry.quotient).
        self.quotient = None
        # Cached walks that did not deliver, kept by _index/_unindex so
        # all_delivered() need not scan the flows.
        self.undelivered = 0
        # Counters for benchmarks and tests.
        self.full_recomputes = 0
        self.incremental_recomputes = 0
        self.flows_walked = 0
        self.components_solved = 0
        self.flows_solved = 0
        self.flows_unconstrained = 0
        self.rates_changed = 0
        self.accrual_segments = 0
        self.accrual_replays = 0
        self.epoch_notifications = 0
        self.entities_scanned = 0

    @property
    def kernel(self) -> str:
        """The requested solver kernel (``"auto"`` or ``"heap"``)."""
        return self._kernel

    @kernel.setter
    def kernel(self, name: str) -> None:
        self._kernel = _solver.check_kernel(name)

    def effective_kernel(self) -> str:
        """The kernel concrete recomputes run: ``arrays`` when numpy
        imports and the network has registered at least
        ``ARRAYS_MIN_FLOWS`` flows, ``heap`` below that, without numpy
        or when forced.  Flows are only ever added, so a run chooses
        once or crosses heap → arrays once, never back."""
        if (self._kernel == "heap" or not _arrays.HAVE_NUMPY
                or len(self.network.flows) < _arrays.ARRAYS_MIN_FLOWS):
            return "heap"
        return "arrays"

    def enable_quotient(self, symmetry_map=None) -> None:
        """Attach the symmetry quotient layer (SimulationConfig.symmetry)."""
        from repro.symmetry.quotient import QuotientState

        self.quotient = QuotientState(self, symmetry_map)

    # -- mutation notifications -------------------------------------------

    def mark_flow_dirty(self, flow: FluidFlow) -> None:
        """A flow started or stopped; re-walk it next recompute."""
        self._pending[flow.id] = flow

    def forget(self) -> None:
        """Drop all cached state (next recompute is full)."""
        if self.quotient is not None:
            self.quotient.materialize()
        # Reads until that recompute see what they saw before: every
        # value is derived while the index still holds it.
        for direction in self._dir_flows:
            self.derived(direction)
        for host in self.network._nodes_of(Host):
            self.derived(host)
        # Flows keep their rates until that recompute; with the mirror
        # gone seal_accrual integrates them object by object meanwhile.
        self._clear_cache()
        self._seen_topo_epoch = None
        self._pending.clear()

    def _clear_cache(self) -> None:
        if self._arrays is not None:
            # Until the next mirror the scalar accrual integrates what
            # the cache holds now (forget() keeps the rates).
            self._drop_mirror()
            self.network._accruing = self._accruing()
        self._cache.clear()
        self._node_flows.clear()
        self._link_flows.clear()
        self._dir_flows.clear()
        self._contended = None
        self.undelivered = 0

    # -- derived on read ----------------------------------------------------

    def derived(self, owner: "Union[LinkDirection, Host]"):
        """``owner``'s load when it is a direction, its ``(rx, tx)``
        rates when it is a host — summed on first read and cached until
        a change drops it.

        The sum is the one a rebuild of everything makes: every flow on
        ``owner`` in flow-id order (a twice-crossed hop added twice, the
        undelivered flows at a host skipped), each at its class rate
        while a symmetry quotient holds.  A host forwards nothing, so
        the walks that visited it (the node index) are the flows it
        sends, and those that ended at it.
        """
        value = self._derived.get(owner)
        if value is not None:
            return value
        quotient = self.quotient
        rate_of = (quotient.rate_of if quotient is not None and quotient.active
                   else _rate_bps)
        cache = self._cache
        if isinstance(owner, Host):
            rx = tx = 0.0
            for fid in sorted(self._node_flows.get(owner.name, ())):
                entry = cache[fid]
                if entry.delivered:
                    flow = entry.flow
                    if flow.dst is owner:
                        rx += rate_of(flow)
                    if flow.src is owner:
                        tx += rate_of(flow)
            value = (rx, tx)
        else:
            value = 0.0
            for fid in sorted(self._dir_flows.get(owner, ())):
                entry = cache[fid]
                rate = rate_of(entry.flow)
                for hop in entry.dirs:
                    if hop is owner:
                        value += rate
        self._derived[owner] = value
        return value

    def settle(self, flow: FluidFlow) -> None:
        """Derive ``flow``'s directions and endpoint hosts now:
        ``Network.stop_flow`` zeroes its rate before the recompute that
        evicts it, and reads until then see the rates from before."""
        entry = self._cache.get(flow.id)
        if entry is not None:
            for direction in entry.dirs:
                self.derived(direction)
        self.derived(flow.src)
        self.derived(flow.dst)

    def _drop_mirror(self) -> None:
        """Discard the struct-of-arrays mirror (the next arrays-kernel
        recompute interns a fresh one).  Sealed segments read its rows,
        so they are replayed first."""
        self.replay_accrual()
        self._arrays = None

    def _accruing(self) -> List[FluidFlow]:
        """The delivered cached flows with a positive rate, in flow-id
        order: what the scalar accrual visits."""
        flows = []
        for fid in sorted(self._cache):
            entry = self._cache[fid]
            if entry.delivered and entry.flow.rate_bps > 0:
                flows.append(entry.flow)
        return flows

    def all_delivered(self) -> bool:
        """Whether some flow is running and every running flow's walk
        delivered — the cache holds exactly the active flows after a
        recompute, and ``flow.path`` is only ever assigned from it."""
        return bool(self._cache) and not self.undelivered

    # -- the sealed accrual timeline ---------------------------------------

    def seal_accrual(self, segments: List[tuple]) -> None:
        """Close the elapsed ``(dt, now)`` segments against the current
        rates and incidence: sealed on the mirror for a later vectorized
        replay, or — no mirror: numpy is missing, the ``heap`` kernel is
        forced, or :meth:`forget` dropped it — applied here by the
        scalar loop, the accrual of the scalar kernel."""
        state = self._arrays
        if state is None:
            _accrue_scalar(self.network._accruing, segments)
            return
        state.seal(segments)
        self.accrual_segments += len(segments)
        if len(state.sealed) >= _arrays.SEGMENT_BOUND:
            self.replay_accrual()

    def replay_accrual(self) -> None:
        """Bring the byte counters current with the sealed timeline."""
        state = self._arrays
        if state is not None and state.sealed:
            with span("realloc.accrue", segments=len(state.sealed)):
                state.replay()
            self.accrual_replays += 1

    # -- the recompute ----------------------------------------------------

    def recompute(self, now: float, full: bool = False) -> None:
        """Refresh paths and rates; called by :meth:`Network.recompute`."""
        with span("realloc.recompute", full=full) as sp:
            self._recompute(now, full)
            sp.set(flows_walked=self.flows_walked,
                   components_solved=self.components_solved)

    def _recompute(self, now: float, full: bool) -> None:
        net = self.network
        if self._seen_topo_epoch != net.topo_epoch:
            self._seen_topo_epoch = net.topo_epoch
            full = True

        # Any path below here may change flow rates or incidence, so
        # the pending accrual segments are sealed against the *old*
        # state first.  The one exception — an incremental recompute
        # that finds no dirt at all — returns early below, leaving them
        # pending: that is the rate-epoch short-circuit for recompute
        # storms.
        if full or self.quotient is not None:
            net._seal_accrual()

        cap_dirty_links: List = []
        if full:
            if self.quotient is not None:
                self.quotient.materialize()
            self.full_recomputes += 1
            self._clear_cache()
            dirty = {flow.id: flow for flow in net.flows if flow.active}
            # Resync: every epoch is seen, nothing is left touched.
            for name, node in net.nodes.items():
                self._seen_node_epoch[name] = node.fwd_epoch
            for link in net.links:
                self._seen_link_path_epoch[link.id] = link.path_epoch
                self._seen_link_cap_epoch[link.id] = link.cap_epoch
            net._touched_nodes.clear()
            net._touched_links.clear()
        else:
            self.incremental_recomputes += 1
            dirty, cap_dirty_links = self._scan_epochs()
            quotient = self.quotient
            if quotient is not None and quotient.active:
                # Class-closed capacity-only dirt is handled entirely at
                # class level; anything else materializes first so the
                # concrete path below sees consistent concrete state.
                if not dirty and quotient.try_fast_cap_update(cap_dirty_links):
                    # Capacities moved and no direction was classified:
                    # the concrete recompute that follows the
                    # materialize re-derives every flag.  Class rates
                    # moved, so every derived value goes.
                    self._contended = None
                    self._derived.clear()
                    self._pending.clear()
                    return
                quotient.materialize()
            elif quotient is None and not dirty and not cap_dirty_links:
                # Nothing changed: no walk, no solve, no rate change —
                # and nothing to seal (rates are unchanged, so pending
                # segments stay mergeable).
                self._pending.clear()
                return
            net._seal_accrual()
        self._pending.clear()

        # Keep the struct-of-arrays mirror in lockstep with the cache
        # (created lazily — after every full recompute or forget(),
        # empty; after a kernel switch or a quotient materialize,
        # bulk-interning surviving walks — and dropped when the kernel
        # switches away so it cannot go stale).
        effective = self.effective_kernel()
        if effective == "arrays":
            state = self._arrays
            if state is None:
                state = self._arrays = _arrays.ArraysState()
                for fid, cached in self._cache.items():
                    if cached.delivered:
                        state.intern_flow(fid, cached.flow, cached.dirs,
                                          cached.result.entries)
        else:
            state = None
            self._drop_mirror()

        # Re-walk dirty flows (in id order, for deterministic PACKET_IN
        # ordering), collecting the seed directions of the re-solve and
        # the flows it starts from.
        seed_dirs: Set["LinkDirection"] = set()
        starts: Set[int] = set()
        for fid in sorted(dirty):
            flow = dirty[fid]
            old = self._cache.pop(fid, None)
            if old is not None:
                self._unindex(fid, old)
                seed_dirs.update(old.dirs)
            if not flow.active:
                if state is not None:
                    state.drop_flow(fid)
                continue  # stopped: rate already zeroed by the network
            result = net.compute_path(flow)
            flow.path = result
            self.flows_walked += 1
            if result.status is PathStatus.MISS:
                net._report_miss(flow, result, now)
            entry = _CachedWalk(flow, result)
            self._cache[fid] = entry
            self._index(fid, entry)
            if entry.delivered:
                # A re-walk that changed nothing keeps its frozen row.
                if state is not None and not entry.same_row(old):
                    state.intern_flow(fid, flow, entry.dirs, result.entries)
                seed_dirs.update(entry.dirs)
                starts.add(fid)
            else:
                if state is not None:
                    state.drop_flow(fid)
                self._assign((flow,), (0.0,))
        for link in cap_dirty_links:
            seed_dirs.add(link.forward)
            seed_dirs.add(link.reverse)
            if state is not None:
                state.patch_capacity(link)

        # Which directions couple flows: every seed is re-classified
        # from scratch, and a seed that is or was contended may have
        # changed the instance of every flow on it, so those flows are
        # re-solved beside the re-walked ones.  No other flag can have
        # moved — an unseeded direction kept its flows, their demands
        # and its capacity.  With no flag known (after a clear, or a
        # class-level update, which classifies nothing) every flag is
        # re-derived and every seed counts as having been contended.
        contended = self._contended
        if contended is None:
            contended = self._contended = {
                direction for direction in self._dir_flows
                if self._offered_over(direction)}
            hot = seed_dirs
        else:
            hot = []
            for direction in seed_dirs:
                was = direction in contended
                is_over = self._offered_over(direction)
                if is_over != was:
                    (contended.add if is_over else contended.discard)(
                        direction)
                if is_over or was:
                    hot.append(direction)
        for direction in hot:
            starts.update(self._dir_flows.get(direction, ()))

        # Partition the flows to re-solve into connected components of
        # the flow/direction sharing graph through contended directions
        # only, and solve each over those directions.  A flow that
        # reaches none is the kernel's zero-link row and is assigned
        # what the kernel returns for it without a call.
        cache, dir_flows = self._cache, self._dir_flows
        components: List[List[int]] = []
        free: List[FluidFlow] = []
        placed: Set[int] = set()
        for start in sorted(starts):
            if start in placed:
                continue
            comp = {start}
            reached: Set["LinkDirection"] = set()
            stack = [start]
            while stack:
                for direction in cache[stack.pop()].dirs:
                    if direction in contended and direction not in reached:
                        reached.add(direction)
                        for fid in dir_flows[direction]:
                            if fid not in comp:
                                comp.add(fid)
                                stack.append(fid)
            placed.update(comp)
            if reached:
                components.append(sorted(comp))
            else:
                free.append(cache[start].flow)
        self.flows_unconstrained += len(free)
        rates = [flow.demand_bps if flow.demand_bps > EPSILON else 0.0
                 for flow in free]
        self._assign(free, rates)
        if state is not None:
            for flow, rate in zip(free, rates):
                state.set_rate(flow.id, rate)
        if components:
            with span("realloc.solve", components=len(components),
                      kernel=effective) as sp:
                if state is not None:
                    over = state.links.mask(contended)
                solved = self.flows_solved
                for comp in components:
                    self.components_solved += 1
                    self.flows_solved += len(comp)
                    entries = [cache[fid] for fid in comp]
                    if state is None:
                        rates = self._solve_component(entries, contended)
                    else:
                        rates = state.solve_component(comp, over)
                    self._assign([entry.flow for entry in entries], rates)
                sp.set(flows=self.flows_solved - solved)

        # Drop the derived values this recompute may have moved: the
        # load of every seed and of every direction a re-assigned flow
        # crosses (an uncontended direction is shared by flows of
        # several components and by flows nobody re-solved), the rates
        # of every host of a re-walked or re-assigned flow — all of
        # them after a full recompute, whose index starts from nothing.
        derived = self._derived
        if full:
            derived.clear()
        elif derived:
            for direction in seed_dirs:
                derived.pop(direction, None)
            moved = list(dirty.values())
            for fid in placed:
                entry = cache[fid]
                moved.append(entry.flow)
                for direction in entry.dirs:
                    derived.pop(direction, None)
            for flow in moved:
                derived.pop(flow.src, None)
                derived.pop(flow.dst, None)
        if state is None:
            net._accruing = self._accruing()

        if self.quotient is not None:
            self.quotient.rebuild(now)

    # -- internals --------------------------------------------------------

    def _scan_epochs(self):
        """Incremental dirt detection: pending flows + epoch changes.

        Returns (dirty flows by id, capacity-dirty links); updates the
        seen-epoch maps as it goes.  Only entities whose mutation
        points registered them as touched are compared, in the order a
        poll of everything would meet them (node insertion order, then
        ``net.links`` order).
        """
        net = self.network
        dirty = dict(self._pending)
        cap_dirty_links: List = []
        if net._touched_nodes:
            nodes = sorted(net._touched_nodes, key=_net_index)
            net._touched_nodes.clear()
            self.entities_scanned += len(nodes)
            for node in nodes:
                name = node.name
                epoch = node.fwd_epoch
                if self._seen_node_epoch.get(name) != epoch:
                    self._seen_node_epoch[name] = epoch
                    for fid in self._node_flows.get(name, ()):
                        if fid not in dirty:
                            dirty[fid] = self._cache[fid].flow
        if net._touched_links:
            links = sorted(net._touched_links, key=_net_index)
            net._touched_links.clear()
            self.entities_scanned += len(links)
            for link in links:
                path_epoch = link.path_epoch
                if self._seen_link_path_epoch.get(link.id) != path_epoch:
                    self._seen_link_path_epoch[link.id] = path_epoch
                    for fid in self._link_flows.get(link.id, ()):
                        if fid not in dirty:
                            dirty[fid] = self._cache[fid].flow
                cap_epoch = link.cap_epoch
                if self._seen_link_cap_epoch.get(link.id) != cap_epoch:
                    self._seen_link_cap_epoch[link.id] = cap_epoch
                    cap_dirty_links.append(link)
        return dirty, cap_dirty_links

    def _index(self, fid: int, entry: _CachedWalk) -> None:
        if not entry.delivered:
            self.undelivered += 1
        for name in entry.node_deps:
            self._node_flows.setdefault(name, set()).add(fid)
        for link_id in entry.link_deps:
            self._link_flows.setdefault(link_id, set()).add(fid)
        for direction in entry.dirs:
            self._dir_flows.setdefault(direction, set()).add(fid)

    def _unindex(self, fid: int, entry: _CachedWalk) -> None:
        if not entry.delivered:
            self.undelivered -= 1
        for name in entry.node_deps:
            flows = self._node_flows.get(name)
            if flows is not None:
                flows.discard(fid)
        for link_id in entry.link_deps:
            flows = self._link_flows.get(link_id)
            if flows is not None:
                flows.discard(fid)
        for direction in entry.dirs:
            flows = self._dir_flows.get(direction)
            if flows is not None:
                flows.discard(fid)
                if not flows:
                    del self._dir_flows[direction]

    def _offered_over(self, direction: "LinkDirection") -> bool:
        """Whether the demand offered to ``direction`` — each flow
        crossing it once, in flow-id order — exceeds its capacity less
        the contention margin."""
        cache = self._cache
        offered = 0.0
        for fid in sorted(self._dir_flows.get(direction, ())):
            offered += cache[fid].flow.demand_bps
        return offered > direction.capacity_bps * (
            1.0 - _arrays.CONTENTION_MARGIN)

    def _assign(self, flows, rates) -> None:
        """Write ``rates`` onto ``flows``, counting the ones that moved."""
        for flow, rate in zip(flows, rates):
            if flow.rate_bps != rate:
                flow.rate_bps = rate
                self.rates_changed += 1

    def _solve_component(self, entries: List[_CachedWalk],
                         contended: Set["LinkDirection"]) -> List[float]:
        """Max-min solve one component with the scalar kernel; returns
        the rates of *entries* (the members' cached walks, id order).

        The instance is built deterministically: flows in id order,
        the *contended* directions interned in first-appearance order
        along those flows' cached paths (an uncontended one never wins
        a pop; the rest keep their relative order, so the heap
        tie-breaks see what they would with every direction present).
        """
        return _solver.solve_rows(
            (entry.flow.demand_bps,
             [(direction, direction.capacity_bps, 1)
              for direction in entry.dirs if direction in contended])
            for entry in entries)

    @property
    def stats(self) -> dict:
        """Counters for benchmarks and tests."""
        stats = {
            "cached_paths": len(self._cache),
            "full_recomputes": self.full_recomputes,
            "incremental_recomputes": self.incremental_recomputes,
            "flows_walked": self.flows_walked,
            "components_solved": self.components_solved,
            "flows_solved": self.flows_solved,
            "flows_unconstrained": self.flows_unconstrained,
            "rates_changed": self.rates_changed,
            "accrual_segments": self.accrual_segments,
            "accrual_replays": self.accrual_replays,
            "epoch_notifications": self.epoch_notifications,
            "entities_scanned": self.entities_scanned,
            "undelivered": self.undelivered,
            "kernel": self.effective_kernel(),
        }
        if self._arrays is not None:
            stats["arrays"] = self._arrays.stats
        return stats
