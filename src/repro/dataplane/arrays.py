"""Struct-of-arrays fluid state and the vectorized max-min kernel.

The scalar solver path costs O(flows × hops) of *Python* per
recompute: `_solve_component` rebuilds a dense instance object by
object, `bottleneck_filling` walks it event by event, and
``Network.accrue`` visits every accruing flow per event.  This module
replaces all three with numpy state:

* :class:`FlowArrays` / :class:`LinkArrays` — interned
  struct-of-arrays mirrors of the cached walks: per-flow demand, rate
  and host slots; a padded path→direction incidence matrix (the CSR
  expansion is derived per solve); per-direction capacities.
* :class:`ArraysState` — the slotted container the
  :class:`~repro.dataplane.realloc.ReallocEngine` keeps **across
  recomputes**.  Stable components only patch demands, rates and
  capacities in place; rows are re-interned only when a flow is
  re-walked, and the whole state is discarded only on ``topo_epoch``
  bumps / path-cache invalidation (full recomputes).
* :func:`bottleneck_filling_arrays` — the vectorized kernel.  It
  replays the heap kernel's float arithmetic in *batches*: per round
  it recomputes every live saturation key ``(capacity − frozen_load)
  / alive`` (the identical IEEE expression ``push_sat`` evaluates),
  then freezes either every unfrozen flow whose demand is ≤ the
  minimum key (in (demand, flow) order — the heap's pop order) or
  every unfrozen member of the links at the minimum key.  Within a
  batch the ``frozen_load`` additions run through ``np.add.at`` in
  the heap's order, and runs of equal addends commute, so the float
  trajectory — and therefore the allocation — is bit-for-bit the heap
  kernel's (pinned by ``tests/property/test_kernel_parity.py``).
* :class:`LiveView` — the one flow→direction incidence derived from
  the padded rows per *mirror generation* (rebuilt only after an
  intern or drop): component search, solves, host-rate rebuilds and
  byte accrual all read it instead of re-deriving it.
* The **sealed accrual timeline** (:meth:`ArraysState.seal` /
  :meth:`ArraysState.replay`) — byte accrual is *sealed* against the
  live view and a copy of the rate vector whenever rates or incidence
  are about to change, and *replayed* — counters gathered from the
  objects once, every sealed segment scattered with ``np.add.at`` in
  the scalar loop's visit order, written back once — only when
  somebody reads or competes for a counter.  Flow-table entries a
  flow's walk matched are one more incidence target of the same
  timeline (``byte_count`` by the same scatter, ``last_used_at`` = the
  end of the entry's last positive-rate segment).

Everything degrades gracefully without numpy: the engine's one
selection rule (``ReallocEngine.effective_kernel``) reads ``HAVE_NUMPY``
and the instance size — no numpy, or fewer than ``ARRAYS_MIN_FLOWS``
registered flows: no mirror, and every recompute runs the scalar
``"heap"`` kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.dataplane.solver import EPSILON

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.flow import FluidFlow
    from repro.dataplane.host import Host
    from repro.dataplane.link import LinkDirection

try:  # the container bakes numpy in; guard anyway (no hard dep)
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy-less fallback
    _np = None
    HAVE_NUMPY = False

_INF = float("inf")


# ---------------------------------------------------------------------------
# The vectorized kernel
# ---------------------------------------------------------------------------


def _batch_fill(demands, capacities, entry_flow, entry_link):
    """Batched replay of the heap kernel over a dense instance.

    ``entry_flow``/``entry_link`` are the parallel CSR expansion of the
    flow→link incidence in flow-major, path order, **deduplicated per
    flow** (a path crossing a link twice counts once, as in the scalar
    kernels).  Returns the per-flow rate vector (float64).
    """
    np = _np
    num_flows = int(demands.shape[0])
    num_links = int(capacities.shape[0])
    rates = np.zeros(num_flows)
    if num_flows == 0:
        return rates
    unfrozen = demands > EPSILON           # member flows not yet frozen
    active_demand = np.where(unfrozen, demands, _INF)
    if entry_link.size:
        alive = np.bincount(entry_link[unfrozen[entry_flow]],
                            minlength=num_links)
    else:
        alive = np.zeros(num_links, dtype=np.int64)
    frozen_load = np.zeros(num_links)
    keys = np.empty(num_links)
    # Link -> entries CSR (entries within a link in flow-major order),
    # for the tied-saturation member scan below; flow -> entries CSR
    # (the stream is flow-major, so ranges are contiguous) for the
    # freeze scatter — O(frozen hops) per round, O(incidence) overall.
    # (value·n + position) makes the default sort stable — this
    # numpy's stable kind is several times slower than quicksort.
    total = entry_link.size
    link_order = np.argsort(entry_link * total + np.arange(total))
    link_start = np.zeros(num_links + 1, dtype=np.int64)
    if entry_link.size:
        np.cumsum(np.bincount(entry_link, minlength=num_links),
                  out=link_start[1:])
    flow_start = np.zeros(num_flows + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_flow, minlength=num_flows),
              out=flow_start[1:])
    level = 0.0

    while True:
        valid = alive > 0
        keys.fill(_INF)
        # The identical IEEE expression push_sat evaluates, on the
        # identical operands: frozen_load/alive only change when a
        # link is touched, and push_sat refreshes its key right then.
        np.divide(capacities - frozen_load, alive, out=keys, where=valid)
        ksat = float(keys.min()) if num_links else _INF
        dmin = float(active_demand.min())
        if dmin == _INF and ksat == _INF:
            break
        if dmin <= ksat:
            # Demand batch: the heap pops every demand event ≤ ksat
            # before any saturation event — freezing at the demand
            # only *raises* saturation keys (exactly; float noise can
            # undershoot by an ulp, which the next round handles the
            # same way the heap does).  Pop order is (demand, flow);
            # with all-equal demands that is plain flow order, so the
            # sort (and the freeze re-sort below) can be skipped.
            batch = np.nonzero(unfrozen & (active_demand <= ksat))[0]
            new_rates = demands[batch]
            peak = float(new_rates.max())
            if batch.size > 1 and peak != float(new_rates.min()):
                order = np.argsort(new_rates, kind="stable")
                batch = batch[order]
                new_rates = new_rates[order]
            if peak > level:
                level = peak
        else:
            # Saturation batch.  Exactly tied links are popped by the
            # heap in index order, and freezing one link's members
            # *recomputes* the keys of every tied link sharing a
            # member — float rounding can drift them off the tie by
            # an ulp, changing the rate its remaining members freeze
            # at.  Batching is therefore only exact for the maximal
            # index-order prefix of tied links with pairwise-disjoint
            # member sets: those are precisely the pops the heap
            # executes back to back with no key interference.  The
            # rest wait for the next round's fresh key recompute,
            # which replays any drift bit-for-bit.
            if ksat > level:
                level = ksat
            tied = np.nonzero(valid & (keys == ksat))[0]
            if level > ksat and tied.size > 1:
                # Water level above the key (float-undershoot clamp):
                # batch members may freeze at *unequal* rates
                # min(level, demand), so the multi-link order argument
                # below no longer holds — take one link at a time.
                tied = tied[:1]
            if tied.size == 1:
                span_ = link_order[link_start[tied[0]]:link_start[tied[0] + 1]]
                members = entry_flow[span_]
                batch = members[unfrozen[members]]
            else:
                claimed = np.zeros(num_flows, dtype=bool)
                accepted_any = False
                for link in tied.tolist():
                    span_ = link_order[link_start[link]:link_start[link + 1]]
                    members = entry_flow[span_]
                    members = members[unfrozen[members]]
                    if accepted_any and bool(claimed[members].any()):
                        break
                    claimed[members] = True
                    accepted_any = True
                batch = np.nonzero(claimed)[0]
            new_rates = np.minimum(level, demands[batch])
        rates[batch] = new_rates
        unfrozen[batch] = False
        active_demand[batch] = _INF
        # Freeze side effects, replayed in the heap's add order: the
        # entry stream is flow-major, so concatenating each frozen
        # flow's contiguous entry range in pop order — (demand, flow)
        # for demand pops, flow order for saturation pops — visits
        # links exactly as the heap's freeze() loop does.
        counts_b = flow_start[batch + 1] - flow_start[batch]
        total_b = int(counts_b.sum())
        if total_b:
            ends_b = np.cumsum(counts_b)
            sel = (np.repeat(flow_start[batch] - (ends_b - counts_b),
                             counts_b) + np.arange(total_b))
            links_sel = entry_link[sel]
            np.add.at(frozen_load, links_sel, rates[entry_flow[sel]])
            alive -= np.bincount(links_sel, minlength=num_links)
    return rates


def bottleneck_filling_arrays(
    demands: Sequence[float],
    capacities: Sequence[float],
    link_members: Sequence[Sequence[int]],
    flow_links: Sequence[Sequence[int]],
) -> List[float]:
    """Vectorized bottleneck filling over a plain (unweighted)
    instance, list in/out.

    Bit-for-bit equal to
    :func:`repro.dataplane.solver.bottleneck_filling` on the same
    instance with every multiplicity one (``flow_links`` here holds
    bare link indices; same contract: deduplicated per flow,
    ``link_members`` restricted to flows with demand above
    ``EPSILON``).  ``link_members`` itself is not consulted — the
    alive counts are derived from the incidence and the demand mask,
    which the contract makes equivalent.
    """
    if not HAVE_NUMPY:  # pragma: no cover - numpy-less fallback
        raise RuntimeError("the 'arrays' kernel requires numpy")
    np = _np
    demand_vec = np.asarray(demands, dtype=np.float64)
    cap_vec = np.asarray(capacities, dtype=np.float64)
    counts = np.fromiter((len(links) for links in flow_links),
                         dtype=np.int64, count=len(flow_links))
    total = int(counts.sum()) if counts.size else 0
    entry_flow = np.repeat(np.arange(counts.size), counts)
    entry_link = np.fromiter(
        (link for links in flow_links for link in links),
        dtype=np.int64, count=total)
    return _batch_fill(demand_vec, cap_vec, entry_flow, entry_link).tolist()


# ---------------------------------------------------------------------------
# Persistent struct-of-arrays state
# ---------------------------------------------------------------------------


class FlowArrays:
    """Slotted per-flow columns: demand, rate, hosts, padded path rows.

    ``path[slot, :path_len[slot]]`` holds the direction slots of the
    flow's cached hops *including duplicates* (byte accrual visits
    every hop, like the scalar loop); ``path_first`` marks the first
    occurrence of each direction so solves count a twice-crossed link
    once, exactly as the scalar instance builder dedupes.
    """

    __slots__ = ("demand", "rate", "src_host", "dst_host", "path",
                 "path_len", "path_first", "cap", "width")

    def __init__(self, cap: int = 64, width: int = 8) -> None:
        np = _np
        self.cap = cap
        self.width = width
        self.demand = np.zeros(cap)
        self.rate = np.zeros(cap)
        self.src_host = np.zeros(cap, dtype=np.int32)
        self.dst_host = np.zeros(cap, dtype=np.int32)
        self.path = np.zeros((cap, width), dtype=np.int32)
        self.path_len = np.zeros(cap, dtype=np.int32)
        self.path_first = np.zeros((cap, width), dtype=bool)

    def grow_rows(self, need: int) -> None:
        np = _np
        new_cap = max(self.cap * 2, need)
        for name in ("demand", "rate"):
            col = np.zeros(new_cap)
            col[: self.cap] = getattr(self, name)
            setattr(self, name, col)
        for name in ("src_host", "dst_host", "path_len"):
            col = np.zeros(new_cap, dtype=np.int32)
            col[: self.cap] = getattr(self, name)
            setattr(self, name, col)
        path = np.zeros((new_cap, self.width), dtype=np.int32)
        path[: self.cap] = self.path
        self.path = path
        first = np.zeros((new_cap, self.width), dtype=bool)
        first[: self.cap] = self.path_first
        self.path_first = first
        self.cap = new_cap

    def grow_width(self, need: int) -> None:
        np = _np
        new_width = max(self.width * 2, need)
        path = np.zeros((self.cap, new_width), dtype=np.int32)
        path[:, : self.width] = self.path
        self.path = path
        first = np.zeros((self.cap, new_width), dtype=bool)
        first[:, : self.width] = self.path_first
        self.path_first = first
        self.width = new_width


class LinkArrays:
    """Slotted per-direction columns: capacity plus the object table."""

    __slots__ = ("capacity", "objs", "slot_of", "cap")

    def __init__(self, cap: int = 64) -> None:
        self.cap = cap
        self.capacity = _np.zeros(cap)
        self.objs: List["LinkDirection"] = []
        self.slot_of: Dict["LinkDirection", int] = {}

    def intern(self, direction: "LinkDirection") -> int:
        slot = self.slot_of.get(direction)
        if slot is None:
            slot = len(self.objs)
            if slot >= self.cap:
                new_cap = self.cap * 2
                capacity = _np.zeros(new_cap)
                capacity[: self.cap] = self.capacity
                self.capacity = capacity
                self.cap = new_cap
            self.objs.append(direction)
            self.slot_of[direction] = slot
            self.capacity[slot] = direction.capacity_bps
        return slot


#: Sealed segments the timeline holds before it replays on its own.
#: Sized from the memory budget, not a setting: a segment pins one
#: live view plus a rate vector, and horsebench read ``peak_rss_mb``
#: on ``dataplane_churn`` +6.0 % at 64 (the bound is 10 %), +1.8 % at
#: 16 and +0.2 % at 4, with ``wall_s_per_sim_s`` inside its spread at
#: all three — a replay's fixed gather/write-back (~0.3 ms there) is
#: already under 3 % of the body at 16.
SEGMENT_BOUND = 16

#: Registered flows (``len(network.flows)``) below which the engine's
#: rule (``ReallocEngine.effective_kernel``) keeps the scalar kernel and
#: builds no mirror.  Sized from a crossover sweep, not a setting: a
#: recompute on the mirror pays a fixed ~0.2 ms of numpy calls whatever
#: the instance, the scalar path pays per flow.  Random-pair flows on a
#: static k=8 fat-tree under a flap storm read arrays / heap 0.0346 /
#: 0.0330 s at 8 flows, 0.0552 / 0.0489 at 64, 0.0812 / 0.0752 at 128,
#: 0.1101 / 0.1134 at 192, 0.1406 / 0.1625 at 256 (docs/dataplane.md,
#: "Two kernels, one rule", has the whole table): the lines cross
#: between 128 and 192, and 128 keeps arrays wherever it is within a
#: tenth of the scalar path.  No hysteresis: flows are registered,
#: never unregistered, so the count is monotone and an engine crosses
#: at most once, heap → arrays, through the bulk intern a forced-kernel
#: switch already uses.
ARRAYS_MIN_FLOWS = 128

#: A direction couples the flows crossing it only when the demand they
#: offer (each flow once, flow-id order) exceeds ``capacity · (1 −
#: CONTENTION_MARGIN)``; below that its saturation key stays above the
#: smallest unfrozen demand on it at every step of either kernel, so it
#: never wins a pop and leaving it out of the instance moves no float
#: of anybody's rate (docs/dataplane.md, "Which directions couple
#: flows").  Sized from float error, not a setting: the kernels'
#: accumulated ``frozen_load`` rounding is ~N·2⁻⁵³ ≈ 1e-13 relative at a
#: thousand flows per link, seven orders below the margin, and a
#: direction within 1 ppm of full is simply solved as before.
CONTENTION_MARGIN = 1e-6


class LiveView:
    """The live rows of one mirror generation, flow-id ascending.

    The fid order is what makes every vectorized pass replay the
    scalar loops' visit order bit-for-bit.  ``hop_dir``/``hop_flow``
    are the flow-major hop stream (direction slot, position in this
    view) *including duplicates* — what byte accrual and the load
    refresh visit; ``hop_first`` marks each flow's first crossing of a
    direction, the deduplicated stream the solver sees.  Sealed
    accrual segments hold the view (and so ``flows``, the objects —
    flow slots are reused after a drop, direction and host slots live
    as long as the mirror).  The streams are index-width integers: every
    pass indexes with them, and numpy converts a narrower index array
    on each use, which costs more than the ~20 KB a view it saves.

    ``ent_idx``/``ent_flow`` are the same kind of stream for the
    flow-table entries the flows' walks matched — flow-major, entries
    in path order, the per-flow loop's visit order — indexing
    ``ent_objs``, the view's own table of those entries (an entry
    shared by several flows appears once).
    """

    __slots__ = ("fids", "slots", "flows", "hop_dir", "hop_flow",
                 "hop_first", "src_host", "dst_host", "ent_objs",
                 "ent_idx", "ent_flow")

    def __init__(self, state: "ArraysState") -> None:
        np = _np
        count = len(state.slot_of)
        fids = np.fromiter(state.slot_of.keys(), dtype=np.int64, count=count)
        slots = np.fromiter(state.slot_of.values(), dtype=np.int64,
                            count=count)
        order = np.argsort(fids)           # unique keys: kind moot
        self.fids = fids[order]
        self.slots = slots = slots[order]
        objs = state.objs
        self.flows = [objs[slot] for slot in slots.tolist()]
        fa = state.flows
        rows = fa.path[slots]
        lens = fa.path_len[slots]
        mask = np.arange(rows.shape[1]) < lens[:, None]
        self.hop_dir = rows[mask].astype(np.intp)
        self.hop_flow = np.repeat(np.arange(count), lens)
        self.hop_first = fa.path_first[slots][mask]
        self.src_host = fa.src_host[slots].astype(np.intp)
        self.dst_host = fa.dst_host[slots].astype(np.intp)
        self.ent_objs: list = []
        index: List[int] = []
        counts: List[int] = []
        if state.entry_rows:
            ents, seen = state.ents, {}
            for slot in slots.tolist():
                row = ents[slot]
                counts.append(len(row))
                for entry in row:
                    pos = seen.get(id(entry))
                    if pos is None:
                        pos = seen[id(entry)] = len(self.ent_objs)
                        self.ent_objs.append(entry)
                    index.append(pos)
        self.ent_idx = np.array(index, dtype=np.intp)
        self.ent_flow = np.repeat(np.arange(len(counts)),
                                  np.array(counts, dtype=np.intp))


class ArraysState:
    """The engine-persisted SoA mirror of the cached walks.

    Interning happens when the engine (re-)walks a flow; dropping when
    a cached walk is evicted.  Between those, solves and accrual run
    purely on the arrays — stable churn only patches rates and
    capacities in place.
    """

    def __init__(self) -> None:
        if not HAVE_NUMPY:  # pragma: no cover - callers gate on HAVE_NUMPY
            raise RuntimeError("ArraysState requires numpy")
        self.flows = FlowArrays()
        self.links = LinkArrays()
        self.slot_of: Dict[int, int] = {}      # flow id -> slot
        self.objs: List[Optional["FluidFlow"]] = []   # slot -> flow
        # slot -> the flow-table entries its walk matched, path order;
        # entry_rows counts the slots where that is not empty, so views
        # of a network without flow tables skip the entry stream.
        self.ents: List[Sequence] = []
        self.entry_rows = 0
        self._free: List[int] = []
        self._top = 0                           # slot high-water mark
        self.hosts: List["Host"] = []
        self._host_slot: Dict[int, int] = {}    # id(host) -> slot
        self._view: Optional[LiveView] = None
        # The sealed accrual timeline: (view, rates, [(dt, now)]) in
        # time order.
        self.sealed: List[tuple] = []
        # Counters for benchmarks and tests.
        self.interned = 0
        self.dropped = 0

    # -- interning --------------------------------------------------------

    def _host(self, host: "Host") -> int:
        slot = self._host_slot.get(id(host))
        if slot is None:
            slot = len(self.hosts)
            self._host_slot[id(host)] = slot
            self.hosts.append(host)
        return slot

    def intern_flow(self, fid: int, flow: "FluidFlow",
                    dirs: Sequence["LinkDirection"],
                    entries: Sequence[tuple] = ()) -> int:
        """(Re-)intern one delivered flow's row — its hops and the
        ``(switch, flow-table entry)`` pairs its walk matched; returns
        its slot."""
        fa = self.flows
        # A re-intern changes a row without changing the live set, so
        # the view goes stale either way.
        self._view = None
        slot = self.slot_of.get(fid)
        if slot is None:
            if self._free:
                slot = self._free.pop()
            else:
                slot = self._top
                self._top += 1
                if slot >= fa.cap:
                    fa.grow_rows(slot + 1)
            self.slot_of[fid] = slot
        while len(self.objs) <= slot:
            self.objs.append(None)
            self.ents.append(())
        self.objs[slot] = flow
        matched = [entry for __, entry in entries]
        self.entry_rows += bool(matched) - bool(self.ents[slot])
        self.ents[slot] = matched
        hops = len(dirs)
        if hops > fa.width:
            fa.grow_width(hops)
        fa.demand[slot] = flow.demand_bps
        fa.rate[slot] = flow.rate_bps
        fa.path_len[slot] = hops
        row = fa.path[slot]
        first = fa.path_first[slot]
        seen = set()
        for pos, direction in enumerate(dirs):
            dslot = self.links.intern(direction)
            row[pos] = dslot
            first[pos] = dslot not in seen
            seen.add(dslot)
        fa.src_host[slot] = self._host(flow.src)
        fa.dst_host[slot] = self._host(flow.dst)
        self.interned += 1
        return slot

    def drop_flow(self, fid: int) -> None:
        slot = self.slot_of.pop(fid, None)
        if slot is not None:
            self.flows.path_len[slot] = 0
            self.flows.rate[slot] = 0.0
            self.objs[slot] = None
            self.entry_rows -= bool(self.ents[slot])
            self.ents[slot] = ()
            self._free.append(slot)
            self._view = None
            self.dropped += 1

    def patch_capacity(self, link) -> None:
        """A link's capacity changed; patch interned directions in place."""
        for direction in (link.forward, link.reverse):
            slot = self.links.slot_of.get(direction)
            if slot is not None:
                self.links.capacity[slot] = direction.capacity_bps

    def zero_rate(self, fid: int) -> None:
        """Mirror ``flow.rate_bps = 0`` done outside a recompute
        (``stop_flow``, which seals first), so later segments add 0."""
        slot = self.slot_of.get(fid)
        if slot is not None:
            self.flows.rate[slot] = 0.0

    # -- the live-row view ------------------------------------------------

    def view(self) -> LiveView:
        """The incidence view of the current mirror generation."""
        view = self._view
        if view is None:
            view = self._view = LiveView(self)
        return view

    def host_rates(self):
        """Per-host ``(rx, tx)`` rate sums over live flows in fid order
        — the scalar host-rate rebuild's exact add order."""
        np = _np
        view = self.view()
        rates = self.flows.rate[view.slots]
        rx = np.zeros(len(self.hosts))
        tx = np.zeros(len(self.hosts))
        np.add.at(rx, view.dst_host, rates)
        np.add.at(tx, view.src_host, rates)
        return rx, tx

    # -- which directions couple flows --------------------------------------

    def contended(self):
        """Per direction slot, whether the demand offered to it exceeds
        ``capacity · (1 − CONTENTION_MARGIN)`` — every flag from scratch.

        The offered load counts each live flow crossing the direction
        once (the deduplicated stream the solver sees) and is summed in
        flow-id order, the scalar classification's exact adds, so both
        paths flag the same directions at any boundary.
        """
        np = _np
        view = self.view()
        num_dirs = len(self.links.objs)
        first = view.hop_first
        offered = np.zeros(num_dirs)
        np.add.at(offered, view.hop_dir[first],
                  self.flows.demand[view.slots][view.hop_flow[first]])
        return offered > self.links.capacity[:num_dirs] * (
            1.0 - CONTENTION_MARGIN)

    def components(self, starts, contended):
        """Partition the flows reachable from *starts* (ids of live
        flows) through *contended* directions only.

        Returns ``(components, free)``: per component a boolean
        membership mask over the view's (fid-ascending) positions — the
        exact membership the scalar search produces (both walk the same
        delivered-flow incidence, restricted to the same flags) — and
        the mask of start flows that cross no contended direction at
        all, which no solve constrains.  The search propagates boolean
        masks over the contended slice of the view's hop stream until
        the component stops growing: every direction its flows cross,
        then the flows crossing a reached direction.
        """
        np = _np
        view = self.view()
        keep = contended[view.hop_dir]
        hop_dir, hop_flow = view.hop_dir[keep], view.hop_flow[keep]
        num_flows = view.fids.size
        started = np.zeros(num_flows, dtype=bool)
        started[np.searchsorted(view.fids, np.fromiter(
            starts, dtype=np.int64, count=len(starts)))] = True
        coupled = np.zeros(num_flows, dtype=bool)
        coupled[hop_flow] = True
        pending = started & coupled
        components = []
        for pos in np.nonzero(pending)[0].tolist():
            if not pending[pos]:
                continue                   # joined an earlier component
            reached = np.zeros(contended.size, dtype=bool)
            comp = np.zeros(num_flows, dtype=bool)
            comp[pos] = True
            size = 1
            while True:
                reached[hop_dir[comp[hop_flow]]] = True
                comp[hop_flow[reached[hop_dir]]] = True
                grown = int(np.count_nonzero(comp))
                if grown == size:
                    break
                size = grown
            pending &= ~comp
            components.append(comp)
        return components, started & ~coupled

    # -- solving ----------------------------------------------------------

    def solve_component(self, comp, contended):
        """Solve one component given its membership mask over the view.

        The instance holds the *contended* directions only — an
        uncontended one never wins a pop, so the rates are those of the
        instance with every direction, float for float.  Returns
        ``(flows, rates)``: the members (component fid order) and their
        rates, which are also written to the mirror.
        """
        np = _np
        view = self.view()
        members = np.nonzero(comp)[0]
        slots = view.slots[members]
        demands = self.flows.demand[slots]
        # The component's slice of the view's deduplicated hop stream,
        # renumbered to component-local flow positions.
        keep = comp[view.hop_flow] & view.hop_first
        keep &= contended[view.hop_dir]
        local = np.cumsum(comp) - 1
        entry_flow = local[view.hop_flow[keep]]
        entry_global = view.hop_dir[keep]
        # Dense-intern directions in first-appearance order along the
        # flow-major entry stream — the scalar instance builder's
        # order, so the heap tie-break (and thus the arithmetic) sees
        # the identical instance.  (value·n + position) stabilizes the
        # default sort, which beats both np.unique and stable argsort.
        total = entry_global.size
        order = np.argsort(entry_global * total + np.arange(total))
        sorted_vals = entry_global[order]
        boundary = np.empty(sorted_vals.size, dtype=bool)
        if boundary.size:
            boundary[0] = True
            np.not_equal(sorted_vals[1:], sorted_vals[:-1],
                         out=boundary[1:])
        uniq = sorted_vals[boundary]
        first_pos = order[boundary]      # stable ⇒ earliest entry index
        appearance = np.argsort(first_pos, kind="stable")
        rank = np.empty(contended.size, dtype=np.int64)
        rank[uniq[appearance]] = np.arange(uniq.size)
        entry_link = rank[entry_global]
        caps = self.links.capacity[uniq[appearance]]
        return self._set_rates(
            members, _batch_fill(demands, caps, entry_flow, entry_link))

    def unconstrained(self, free):
        """Assign the rows of *free* (a membership mask over the view)
        what either kernel returns for a row crossing no link — its
        demand above ``EPSILON``, else ``0.0`` — without a call.
        Returns ``(flows, rates)`` like :meth:`solve_component`."""
        np = _np
        members = np.nonzero(free)[0]
        demands = self.flows.demand[self.view().slots[members]]
        return self._set_rates(
            members, np.where(demands > EPSILON, demands, 0.0))

    def _set_rates(self, members, rates):
        """Write *rates* to the mirror rows at view positions *members*
        and hand both back as lists, the flows as objects."""
        view = self.view()
        self.flows.rate[view.slots[members]] = rates
        return [view.flows[pos] for pos in members.tolist()], rates.tolist()

    def refresh_loads(self, seeds: Sequence["LinkDirection"],
                      assigned) -> None:
        """Re-sum ``current_load_bps`` for the *seeds* and every
        direction a flow of *assigned* (a membership mask over the
        view) crosses.

        An uncontended direction is shared by flows of several
        components and by flows nobody re-solved, so each load is the
        sum over *all* live flows on the direction: one ``np.add.at``
        over the whole raw hop stream (flow-id order, a twice-crossed
        hop counted twice — the scalar refresh loop's exact adds),
        written back for the touched slots only.  A seed no live flow
        crosses reads ``0.0``.
        """
        np = _np
        view = self.view()
        dirs = self.links.objs
        loads = np.zeros(len(dirs))
        np.add.at(loads, view.hop_dir,
                  self.flows.rate[view.slots][view.hop_flow])
        touched = np.zeros(len(dirs), dtype=bool)
        touched[view.hop_dir[assigned[view.hop_flow]]] = True
        slot_of = self.links.slot_of
        for seed in seeds:
            slot = slot_of.get(seed)
            if slot is None:
                # Never interned: no delivered flow ever crossed it.
                seed.current_load_bps = 0.0
            else:
                touched[slot] = True
        touched = np.nonzero(touched)[0]
        for slot, load in zip(touched.tolist(), loads[touched].tolist()):
            dirs[slot].current_load_bps = load

    # -- the sealed accrual timeline ---------------------------------------

    def seal(self, segments: Sequence[tuple]) -> None:
        """Close the elapsed ``(dt, now)`` segments against the current
        rates and incidence, which are about to change.

        Sealing the whole live set rather than the ``rate > 0`` subset
        is exact — ``x + 0.0 == x`` for the non-negative counters — and
        is what lets accrual share the view the component search built.
        """
        view = self.view()
        if view.fids.size:
            self.sealed.append((view, self.flows.rate[view.slots], segments))

    def replay(self) -> None:
        """Apply the sealed segments to the byte counters, in order.

        Each counter family is gathered from the objects once and
        written back once; in between every segment scatters ``rate ·
        dt / 8`` through ``np.add.at``, which is unbuffered and applies
        in index order — per counter the adds land in the order the
        per-flow loop (fid-ascending, hops in path order) makes them,
        segment after segment, so no bit can move.  Flow-table entries
        are gathered per sealed view (each view carries its own entry
        table): ``byte_count`` by the same scatter, and ``last_used_at``
        takes the end time of every segment in which a flow crossing
        the entry had a positive rate — segments are in time order, so
        the last such assignment is the per-flow loop's last stamp.
        """
        np = _np
        sealed, self.sealed = self.sealed, []
        dirs, hosts = self.links.objs, self.hosts
        carried = np.fromiter((d.bytes_carried for d in dirs),
                              dtype=np.float64, count=len(dirs))
        port_tx = np.fromiter((d.src_port.tx_bytes for d in dirs),
                              dtype=np.float64, count=len(dirs))
        port_rx = np.fromiter((d.dst_port.rx_bytes for d in dirs),
                              dtype=np.float64, count=len(dirs))
        host_tx = np.fromiter((h.tx_bytes for h in hosts),
                              dtype=np.float64, count=len(hosts))
        host_rx = np.fromiter((h.rx_bytes for h in hosts),
                              dtype=np.float64, count=len(hosts))
        for view, rates, segments in sealed:
            ents = view.ent_objs
            if ents:
                ent_bytes = np.fromiter((e.byte_count for e in ents),
                                        dtype=np.float64, count=len(ents))
                ent_used = np.fromiter((e.last_used_at for e in ents),
                                       dtype=np.float64, count=len(ents))
                ent_idx = view.ent_idx
                ent_busy = ent_idx[rates[view.ent_flow] > 0]
            for dt, seg_now in segments:
                moved = rates * dt / 8.0
                for flow, amount in zip(view.flows, moved.tolist()):
                    flow.delivered_bytes += amount
                np.add.at(host_tx, view.src_host, moved)
                np.add.at(host_rx, view.dst_host, moved)
                per_hop = moved[view.hop_flow]
                np.add.at(carried, view.hop_dir, per_hop)
                np.add.at(port_tx, view.hop_dir, per_hop)
                np.add.at(port_rx, view.hop_dir, per_hop)
                if ents:
                    np.add.at(ent_bytes, ent_idx, moved[view.ent_flow])
                    ent_used[ent_busy] = seg_now
            if ents:
                for entry, count, used in zip(ents, ent_bytes.tolist(),
                                              ent_used.tolist()):
                    entry.byte_count = count
                    entry.last_used_at = used
        for direction, total, tx, rx in zip(dirs, carried.tolist(),
                                            port_tx.tolist(),
                                            port_rx.tolist()):
            direction.bytes_carried = total
            direction.src_port.tx_bytes = tx
            direction.dst_port.rx_bytes = rx
        for host, tx, rx in zip(hosts, host_tx.tolist(), host_rx.tolist()):
            host.tx_bytes = tx
            host.rx_bytes = rx

    @property
    def stats(self) -> dict:
        return {
            "interned": self.interned,
            "dropped": self.dropped,
            "live_flows": len(self.slot_of),
            "live_dirs": len(self.links.objs),
        }


__all__ = [
    "ARRAYS_MIN_FLOWS",
    "CONTENTION_MARGIN",
    "HAVE_NUMPY",
    "SEGMENT_BOUND",
    "ArraysState",
    "FlowArrays",
    "LinkArrays",
    "LiveView",
    "bottleneck_filling_arrays",
]
