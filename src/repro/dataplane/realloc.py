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
makes) and caches it.  A recompute re-derives what it moved — the
directions and hosts of every flow whose walk or rate changed (any
other sum adds the same rates in the same order as before) — and a
full recompute everything.  A change of a flow's rate outside a
recompute, :meth:`ReallocEngine.stop`, derives that flow's directions
and hosts first, so a read keeps seeing the last recompute's snapshot;
the recompute that evicts the flow drops them.

**The engine owns the rate timeline.**  Every recompute, stop, sample
and read point ends a rate segment; pending segments are sealed before
rates or incidence change, and a read point replays the sealed ones
into flows' ``delivered_bytes`` and flow-table entry counters, which
fingerprints and Hedera's polls read.  A stop is one call
(:meth:`ReallocEngine.stop`).

**The other byte counters are read through rate spans.**  A direction's ``bytes_carried`` and its ports' ``tx_bytes`` /
``rx_bytes``, and a host's ``rx_bytes`` / ``tx_bytes``, are one span per
owner: the value the derivation sums, the time it took that value, and
the bytes settled before.  The end of a recompute re-sums every owner it
moved and closes the span of each whose sum changed; a stop does the
same for the stopped flow's owners at the stop.  A read returns
``settled + value · (last accrual − since) / 8`` (:meth:`counter`), so a
counter is a function of the rate history alone, one multiply per
constant-rate span, whoever reads it when — and nothing is written out
at read points.

A symmetry quotient's class-level updates move capacities without
classifying anything, so the engine forgets its flags whenever one
happens and re-derives them all at the concrete recompute that follows
the hand-back (as after ``forget()``).  They move class rates too, so
they drop every derived value, and while the quotient holds a
derivation reads each flow's class rate.  Spans close when a quotient
activates; a materialize credits each member flow's bytes earned since
and reopens them.

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

from array import array
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
    """Integrate ``flows``' rates into their own and their flow-table
    entries' counters over ``(dt, now)`` segments, object by object:
    what the sealed timeline replays in bulk, in the same visit order
    (flow id, entries in path order)."""
    for dt, seg_now in segments:
        for flow in flows:
            if (not flow.active or flow.path is None
                    or not flow.path.delivered):
                continue
            if flow.rate_bps <= 0:
                continue
            transferred = flow.rate_bps * dt / 8.0  # bits -> bytes
            flow.delivered_bytes += transferred
            for __, entry in flow.path.entries:
                entry.byte_count += transferred
                entry.last_used_at = seg_now


class _DirectionSpan(array):
    """A direction's byte counters as a rate span: ``[since, load,
    carried, port tx, port rx]`` — at any time ``t`` until the load next
    moves, ``bytes_carried``, the source port's ``tx_bytes`` and the
    destination port's ``rx_bytes`` are their settled bytes plus
    ``load · (t − since) / 8``.  Plain doubles: one object per owner."""

    __slots__ = ()
    SLOTS = {"carried": 2, "tx": 3, "rx": 4}

    def __new__(cls, since: float) -> "_DirectionSpan":
        return super().__new__(cls, "d", (since, 0.0, 0.0, 0.0, 0.0))

    def read(self, slot: int, now: float) -> float:
        return self[slot] + self[1] * (now - self[0]) / 8.0

    def move(self, load: float, now: float) -> None:
        """Take ``load`` from ``now`` on; a span whose load moves closes
        there first."""
        if load != self[1]:
            moved = self[1] * (now - self[0]) / 8.0
            self[2] += moved
            self[3] += moved
            self[4] += moved
            self[0] = now
            self[1] = load


class _HostSpan(array):
    """A host's byte counters as a rate span: ``[since, rx rate, tx
    rate, rx, tx]``, like :class:`_DirectionSpan`'s."""

    __slots__ = ()
    SLOTS = {"rx": 3, "tx": 4}

    def __new__(cls, since: float) -> "_HostSpan":
        return super().__new__(cls, "d", (since, 0.0, 0.0, 0.0, 0.0))

    def read(self, slot: int, now: float) -> float:
        return self[slot] + self[slot - 2] * (now - self[0]) / 8.0

    def move(self, rates: Tuple[float, float], now: float) -> None:
        rx, tx = rates
        if rx != self[1] or tx != self[2]:
            self[3] = self.read(3, now)
            self[4] = self.read(4, now)
            self[0] = now
            self[1] = rx
            self[2] = tx


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
        # Their byte counters, one rate span per owner (see respan()).
        self._spans: Dict[object, Union[_DirectionSpan, _HostSpan]] = {}
        # The rate timeline: where the last segment ended, and the
        # (dt, now) segments elapsed since the last seal.
        self.last_accrual = 0.0
        self._segments: List[tuple] = []
        # What the scalar accrual visits when there is no mirror (see
        # _refresh_accruing()).
        self._accruing: List[FluidFlow] = []
        # The directions and hosts of the flows stopped at _stopped_at,
        # whose spans close there (see stop()).
        self._stopped: set = set()
        self._stopped_at: Optional[float] = None
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
        """The kernel concrete recomputes run: ``arrays`` from
        ``ARRAYS_MIN_FLOWS`` registered flows on when numpy imports (the
        count is read first: a smaller network never imports it),
        ``heap`` otherwise or when forced.  Flows are only ever added,
        so a run chooses once or crosses heap → arrays once, never back."""
        if (self._kernel == "heap"
                or len(self.network.flows) < _arrays.ARRAYS_MIN_FLOWS
                or not _arrays.numpy_bound()):
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
        """Drop all cached state at the next recompute, which is full.
        Until then every read, stop and accrual sees what it saw before."""
        self._seen_topo_epoch = None

    # -- derived on read ----------------------------------------------------

    def derived(self, owner: "Union[LinkDirection, Host]"):
        """``owner``'s load when it is a direction, its ``(rx, tx)``
        rates when it is a host — summed on first read and cached until
        a change drops it, each flow at its class rate while a symmetry
        quotient holds."""
        value = self._derived.get(owner)
        if value is None:
            quotient = self.quotient
            value = self._derived[owner] = self._sum(
                owner, quotient.rate_of
                if quotient is not None and quotient.active else _rate_bps)
        return value

    def _sum(self, owner: "Union[LinkDirection, Host]", rate_of):
        """The sum a rebuild of everything makes, of the rates
        ``rate_of`` reads: every flow on ``owner`` in flow-id order (a
        twice-crossed hop added twice, the undelivered flows at a host
        skipped).  A host forwards nothing, so the walks that visited
        it (the node index) are the flows it sends, and those that
        ended at it."""
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
            return (rx, tx)
        value = 0.0
        for fid in sorted(self._dir_flows.get(owner, ())):
            entry = cache[fid]
            rate = rate_of(entry.flow)
            value += rate
            crossings = entry.dirs.count(owner)
            while crossings > 1:
                value += rate
                crossings -= 1
        return value

    def stop(self, flow: FluidFlow, now: float) -> None:
        """Stop ``flow`` at ``now``, before the recompute that evicts
        it: close the segment, materialize an active quotient (the stop
        splits its class), seal, then derive the flow's directions and
        endpoint hosts, so reads until the recompute see the rates from
        before, and zero its rate.  Their spans close at ``now``; the
        flows stopped at one instant close together, at the next thing
        that reads or moves a span (:meth:`_close_stopped`): removing
        rates from a sum can only lower it, so one close at the end
        equals a close per stop."""
        self.close_segment(now)
        if self.quotient is not None:
            self.quotient.materialize()
        self._seal()
        if now != self._stopped_at:
            self._close_stopped()
        entry = self._cache.get(flow.id)
        owners = [flow.src, flow.dst]
        if entry is not None:
            owners += entry.dirs
        for owner in owners:
            self.derived(owner)
        self._stopped.update(owners)
        self._stopped_at = now
        flow.active = False
        flow.rate_bps = 0.0
        if self._arrays is not None:
            # Segments sealed from here on add exactly 0 for this flow.
            self._arrays.set_rate(flow.id, 0.0)
        self.mark_flow_dirty(flow)

    def _close_stopped(self) -> None:
        """Re-sum the stopped flows' directions and hosts and close the
        spans that moved, at the stop."""
        if self._stopped:
            owners, self._stopped = self._stopped, set()
            self.respan(owners, self._stopped_at)

    # -- byte counters from rate spans --------------------------------------

    def respan(self, owners, now: float, derived=None) -> None:
        """Re-sum ``owners`` at their flows' rates now, storing each sum
        in ``derived`` when given; an owner whose sum moved closes its
        span at ``now`` and opens the next at the new value.  While a
        quotient holds the spans stay closed (see :meth:`close_spans`)."""
        quotient = self.quotient
        if quotient is not None and quotient.active:
            return
        for owner in owners:
            value = self._sum(owner, _rate_bps)
            if derived is not None:
                derived[owner] = value
            self._span(owner, now).move(value, now)

    def _span(self, owner, since: float) -> Union[_DirectionSpan, _HostSpan]:
        """``owner``'s span; a new one at zero from ``since`` if it has
        none."""
        span = self._spans.get(owner)
        if span is None:
            span = self._spans[owner] = (
                _HostSpan(since) if isinstance(owner, Host)
                else _DirectionSpan(since))
        return span

    def _owners(self) -> set:
        """Every direction and host a span or a cached walk names."""
        owners = set(self._spans)
        owners.update(self._dir_flows)
        for entry in self._cache.values():
            owners.add(entry.flow.src)
            owners.add(entry.flow.dst)
        return owners

    def close_spans(self, now: float) -> None:
        """A quotient takes over: settle every span at ``now`` and hold
        it at zero until :meth:`reopen_spans`."""
        for owner, span in self._spans.items():
            span.move((0.0, 0.0) if isinstance(owner, Host) else 0.0, now)

    def reopen_spans(self) -> None:
        """The quotient materialized: the scalar accrual visits the
        concrete rates again, and every owner's span restarts from them
        where class accrual stopped."""
        self._refresh_accruing()
        self.respan(self._owners(), self.last_accrual)

    def counter(self, owner: "Union[LinkDirection, Host]",
                slot: str) -> float:
        """``owner``'s byte counter ``slot`` (a ``SLOTS`` key of its
        span) as of the last segment's end."""
        self._close_stopped()
        span = self._spans.get(owner)
        if span is None:
            return 0.0
        return span.read(span.SLOTS[slot], self.last_accrual)

    def credit_packet(self, direction: "LinkDirection", port,
                      size: int) -> None:
        """A packet's bytes, sent from ``direction``'s source port or
        received at its destination port (``port``), on that port's
        settled counter."""
        self._close_stopped()
        end = "tx" if port is direction.src_port else "rx"
        self._span(direction, 0.0)[_DirectionSpan.SLOTS[end]] += size

    def credit_flow(self, flow: FluidFlow, earned: float) -> None:
        """What ``flow`` earned while a symmetry quotient held, on the
        settled counters its spans would have fed: its hosts', its
        directions' and their ports'."""
        self._close_stopped()
        self._span(flow.src, 0.0)[_HostSpan.SLOTS["tx"]] += earned
        self._span(flow.dst, 0.0)[_HostSpan.SLOTS["rx"]] += earned
        for hop in flow.path.hops:
            span = self._span(hop, 0.0)
            for slot in _DirectionSpan.SLOTS.values():
                span[slot] += earned

    def _drop_mirror(self) -> None:
        """Discard the struct-of-arrays mirror (the next arrays-kernel
        recompute interns a fresh one).  Sealed segments read its rows,
        so they are replayed first."""
        self.replay_accrual()
        self._arrays = None

    def _refresh_accruing(self) -> None:
        """List the delivered cached flows with a positive rate, in
        flow-id order: what the scalar accrual visits."""
        cache = self._cache
        self._accruing = [cache[fid].flow for fid in sorted(cache)
                          if cache[fid].delivered
                          and cache[fid].flow.rate_bps > 0]

    def all_delivered(self) -> bool:
        """Whether some flow is running and every running flow's walk
        delivered — the cache holds exactly the active flows after a
        recompute, and ``flow.path`` is only ever assigned from it."""
        return bool(self._cache) and not self.undelivered

    # -- the rate timeline -------------------------------------------------

    def close_segment(self, now: float) -> None:
        """End the rate segment at ``now`` without bringing any counter
        current — all an observer of *rates* (the stats sampler) needs.
        While a quotient holds, its class accumulators take it at once."""
        dt = now - self.last_accrual
        if dt <= 0:
            return
        self.last_accrual = now
        quotient = self.quotient
        if quotient is not None and quotient.active:
            quotient.accrue(dt, now)
            return
        self._segments.append((dt, now))

    def _seal(self) -> None:
        """Close the pending segments of flow and entry bytes against
        the current rates and incidence (callers are about to change one
        or the other): sealed on the mirror for a later vectorized
        replay, or — no mirror: numpy is missing, the ``heap`` kernel is
        forced, or a full recompute dropped it — applied here by the
        scalar loop, the accrual of the scalar kernel."""
        segments = self._segments
        if not segments:
            return
        self._segments = []
        state = self._arrays
        if state is None:
            _accrue_scalar(self._accruing, segments)
            return
        state.seal(segments)
        self.accrual_segments += len(segments)
        if len(state.sealed) >= _arrays.SEGMENT_BOUND:
            self.replay_accrual()

    def accrue(self, now: float) -> None:
        """A read point: close the segment at ``now``, seal it and
        replay everything sealed into flow and entry counters."""
        self.close_segment(now)
        self._seal()
        self.replay_accrual()

    def finalize(self) -> None:
        """Materialize any active quotient, then bring every counter
        current."""
        if self.quotient is not None:
            self.quotient.materialize()
        self.accrue(self.last_accrual)

    def replay_accrual(self) -> None:
        """Bring flow and entry counters current with the sealed
        timeline."""
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
        self._close_stopped()
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
            self._seal()

        cap_dirty_links: List = []
        if full:
            if self.quotient is not None:
                self.quotient.materialize()
            self.full_recomputes += 1
            self._drop_mirror()
            self._cache.clear()
            self._node_flows.clear()
            self._link_flows.clear()
            self._dir_flows.clear()
            self._contended = None
            self.undelivered = 0
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
            self._seal()
        self._pending.clear()

        # Keep the struct-of-arrays mirror in lockstep with the cache
        # (created lazily — after every full recompute,
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
        # the flows it starts from — and the directions and hosts whose
        # sums this recompute moves: those of every flow whose walk or
        # rate changes.  A stopped flow's were re-summed at its stop;
        # only their derived values, kept from before it, are left to
        # drop.
        seed_dirs: Set["LinkDirection"] = set()
        starts: Set[int] = set()
        moved: set = set()
        stopped: list = []
        for fid in sorted(dirty):
            flow = dirty[fid]
            old = self._cache.pop(fid, None)
            if old is not None:
                self._unindex(fid, old)
                seed_dirs.update(old.dirs)
            if not flow.active:
                if state is not None:
                    state.drop_flow(fid)
                stopped += (flow.src, flow.dst, *(old.dirs if old else ()))
                continue  # stopped: rate already zeroed by the network
            result = net.compute_path(flow)
            flow.path = result
            self.flows_walked += 1
            if result.status is PathStatus.MISS:
                net._report_miss(flow, result, now)
            entry = _CachedWalk(flow, result)
            self._cache[fid] = entry
            self._index(fid, entry)
            if (old is None or old.delivered != entry.delivered
                    or old.dirs != entry.dirs):
                moved.update(entry.dirs)
                moved.update(old.dirs if old else ())
                moved.add(flow.src)
                moved.add(flow.dst)
            if entry.delivered:
                # A re-walk that changed nothing keeps its frozen row.
                if state is not None and not entry.same_row(old):
                    state.intern_flow(fid, flow, entry.dirs, result.entries)
                seed_dirs.update(entry.dirs)
                starts.add(fid)
            else:
                if state is not None:
                    state.drop_flow(fid)
                self._assign((flow,), (0.0,), moved)
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
        self._assign(free, rates, moved)
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
                    self._assign([entry.flow for entry in entries], rates,
                                 moved)
                sp.set(flows=self.flows_solved - solved)

        if state is None:
            self._refresh_accruing()
        quotient = self.quotient
        if quotient is not None:
            # One that takes over closes every span at the rates that
            # held until now.
            quotient.rebuild(now)

        # Re-derive what moved and close the span of each that did — all
        # of it after a full recompute, whose index starts from nothing.
        # Under a quotient they are derived on read, from its class rates.
        derived = self._derived
        if full:
            derived.clear()
            moved = self._owners()
        else:
            for owner in stopped:
                derived.pop(owner, None)
        if quotient is not None and quotient.active:
            for owner in moved:
                derived.pop(owner, None)
        else:
            self.respan(moved, now, derived)

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

    def _assign(self, flows, rates, moved: set) -> None:
        """Write ``rates`` onto ``flows``, counting the ones that moved
        and adding their directions and hosts to ``moved``."""
        cache = self._cache
        for flow, rate in zip(flows, rates):
            if flow.rate_bps != rate:
                flow.rate_bps = rate
                self.rates_changed += 1
                moved.update(cache[flow.id].dirs)
                moved.add(flow.src)
                moved.add(flow.dst)

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
