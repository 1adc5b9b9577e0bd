"""Struct-of-arrays fluid state and the vectorized max-min kernel.

The scalar path costs O(flows × hops) of *Python* per contended
component and per accrual segment: `_solve_component` rebuilds a dense
instance object by object, `bottleneck_filling` walks it event by
event, and the scalar accrual visits every accruing flow per segment.
This module replaces those two with numpy state; the per-change
bookkeeping around them (flags, component search, loads, host rates)
is the engine's one delta path for both kernels:

* :class:`FlowArrays` / :class:`LinkArrays` — interned
  struct-of-arrays mirrors of the cached walks: per-flow demand, rate
  and flow key; padded path→direction and entry rows (the CSR
  expansion is derived per solve); per-direction capacities.
* :class:`ArraysState` — the slotted container the
  :class:`~repro.dataplane.realloc.ReallocEngine` keeps **across
  recomputes**.  Rates and capacities are patched in place; a
  re-walked flow takes a fresh row and its old one *retires* (frozen
  until no sealed segment can read it), and the whole state is
  discarded only on ``topo_epoch`` bumps / path-cache invalidation
  (full recomputes).
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
* The **sealed accrual timeline** (:meth:`ArraysState.seal` /
  :meth:`ArraysState.replay`) of flow and flow-table entry bytes —
  direction, port and host counters are the engine's rate spans, not
  segments.  Accrual is *sealed* as the live slots in flow-id order
  (cached per mirror generation) plus a copy of their rates whenever
  rates or rows are about to change, and *replayed* — each seal's flow
  and entry streams derived from its frozen rows once, the counters
  it touches gathered from the objects once, every sealed segment
  scattered in the scalar loop's visit order, written back once — only
  when somebody reads or competes for a counter.  Entries are reached
  through the mirror's reference-counted entry table (``byte_count``
  by ``np.add.at``, ``last_used_at`` = the end of the entry's last
  positive-rate segment).

Everything degrades gracefully without numpy: the engine's one
selection rule (``ReallocEngine.effective_kernel``) reads the instance
size, then :func:`numpy_bound` — fewer than ``ARRAYS_MIN_FLOWS``
registered flows, or no numpy: no mirror, numpy never imported, and
every recompute runs the scalar ``"heap"`` kernel.
"""

from __future__ import annotations

import importlib.util
from typing import Dict, List, Sequence, TYPE_CHECKING

from repro.core.errors import ConfigurationError
from repro.core.numpy_loader import load_numpy
from repro.dataplane.solver import EPSILON

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.flow import FluidFlow
    from repro.dataplane.link import LinkDirection

#: Whether numpy can back the mirror: found on the path (``find_spec``
#: imports nothing, and finds nothing when ``sys.modules["numpy"] is
#: None``), cleared if the first import fails.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
_np = None  # numpy, once numpy_bound() has bound it


def numpy_bound() -> bool:
    """Whether numpy is usable, binding it on the first call while
    ``HAVE_NUMPY`` holds; an import that fails clears ``HAVE_NUMPY``,
    which leaves the engine on ``heap`` as a numpy-less install."""
    global _np, HAVE_NUMPY
    if HAVE_NUMPY and _np is None:
        try:
            _np = load_numpy("the 'arrays' kernel requires numpy")
        except ConfigurationError:
            HAVE_NUMPY = False
    return HAVE_NUMPY

_INF = float("inf")
#: The flow id column's value for a row that is not live.
_RETIRED = 2**62


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
    if not numpy_bound():
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
    """Slotted per-flow columns: demand, rate, flow id (``_RETIRED``
    once the row is no longer live), flow key, padded path and entry
    rows.

    ``path[slot, :path_len[slot]]`` holds the direction slots of the
    flow's cached hops *including duplicates*; ``path_first`` marks the
    first occurrence of each direction so solves count a twice-crossed
    link once, exactly as the scalar instance builder dedupes.
    ``ent[slot, :ent_len[slot]]`` holds the mirror's entry-table
    indices of the flow-table entries the walk matched, in path order
    (a walk matches at most one entry per hop, so the width fits both).
    Integer columns are index-width: replay indexes with them, and
    numpy converts a narrower index array on every use.
    """

    _COLUMNS = ("demand", "rate", "fid", "key", "path_len", "ent_len")
    _MATRICES = ("path", "path_first", "ent")

    __slots__ = _COLUMNS + _MATRICES + ("cap", "width")

    def __init__(self, cap: int = 64, width: int = 8) -> None:
        np = _np
        self.cap = cap
        self.width = width
        self.demand = np.zeros(cap)
        self.rate = np.zeros(cap)
        for name in ("fid", "key", "path_len", "ent_len"):
            setattr(self, name, np.zeros(cap, dtype=np.intp))
        self.path = np.zeros((cap, width), dtype=np.intp)
        self.path_first = np.zeros((cap, width), dtype=bool)
        self.ent = np.zeros((cap, width), dtype=np.intp)

    def grow_rows(self, need: int) -> None:
        new_cap = max(self.cap * 2, need)
        for name in self._COLUMNS + self._MATRICES:
            old = getattr(self, name)
            col = _np.zeros((new_cap,) + old.shape[1:], dtype=old.dtype)
            col[: self.cap] = old
            setattr(self, name, col)
        self.cap = new_cap

    def grow_width(self, need: int) -> None:
        new_width = max(self.width * 2, need)
        for name in self._MATRICES:
            old = getattr(self, name)
            col = _np.zeros((self.cap, new_width), dtype=old.dtype)
            col[:, : self.width] = old
            setattr(self, name, col)
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

    def mask(self, directions) -> "_np.ndarray":
        """Per interned slot, whether its direction is in *directions*."""
        out = _np.zeros(len(self.objs), dtype=bool)
        for direction in directions:
            slot = self.slot_of.get(direction)
            if slot is not None:
                out[slot] = True
        return out


#: Sealed segments the timeline holds before it replays on its own.
#: Sized from the memory budget, not a setting: a seal holds a rate
#: snapshot and keeps the rows retired since from being freed, and on
#: ``dataplane_churn`` (seed 5, three runs each) horsebench read
#: ``peak_rss_mb`` 48.4–49.4 MiB at 64 against 45.6–45.7 at 16 (+6 %;
#: the bound is 10 %) and 44.9 at 4, with ``wall_s_per_sim_s`` 0.0064 /
#: 0.0069 / 0.0085 s/s — below 16 each replay's fixed stream
#: derivation and gather/write-back stopped being amortised.  Measured
#: while a replay also carried every direction and host counter; it now
#: carries flows and entries only, and the bound was not re-measured.
SEGMENT_BOUND = 16

#: Registered flows (``len(network.flows)``) below which the engine's
#: rule (``ReallocEngine.effective_kernel``) keeps the scalar kernel and
#: builds no mirror.  Sized from a crossover sweep, not a setting: both
#: kernels share the per-change bookkeeping, so the mirror's interning,
#: seals and replays are weighed against the scalar accrual's pass over
#: every accruing flow per segment.  Random-pair flows on a static k=8
#: fat-tree under a flap storm read arrays / heap 0.0287 / 0.0278 s at
#: 8 flows, 0.0412 / 0.0409 at 64, 0.0478 / 0.0484 at 96, 0.0550 /
#: 0.0608 at 128, 0.0710 / 0.0868 at 192 (docs/dataplane.md, "Two
#: kernels, one rule", has the whole table): within a few percent of
#: each other below 128, arrays clearly ahead from 128 on.  No
#: hysteresis: flows are registered, never unregistered, so the count
#: is monotone and an engine crosses at most once, heap → arrays,
#: through the bulk intern a forced-kernel switch already uses.
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


class ArraysState:
    """The engine-persisted SoA mirror of the cached walks.

    Every (re-)intern of a delivered flow takes a fresh slot; the slot
    it replaces, or the slot of a dropped flow, *retires*: its row and
    entry indices stay as they are until the next replay
    has consumed every sealed segment that can read them (at once when
    nothing is sealed).  Rows are therefore frozen while anything can
    read them, and a seal needs no copy of them.
    """

    def __init__(self) -> None:
        if not numpy_bound():
            raise RuntimeError("ArraysState requires numpy")
        self.flows = FlowArrays()
        self.links = LinkArrays()
        self.slot_of: Dict[int, int] = {}      # flow id -> live slot
        self._free: List[int] = []
        self._retired: List[int] = []          # freed by the next replay
        self._top = 0                           # slot high-water mark
        # The live slots in flow-id order, per mirror generation.
        self._order = None
        # Flow keys: one per flow id for the mirror's life, so the rows
        # a re-walked flow owns in one replay add to one counter.
        self.flow_objs: List["FluidFlow"] = []
        self._flow_key: Dict[int, int] = {}
        # The entry table: every flow-table entry a live or retired row
        # matched, reference-counted by rows (an entry several flows
        # share is one index), freed when its last row is.
        self.ent_objs: list = []
        self._ent_index: Dict[int, int] = {}    # id(entry) -> index
        self._ent_refs: List[int] = []
        self._ent_free: List[int] = []
        # The sealed accrual timeline: (live slots in fid order, their
        # rates, [(dt, now)]) in time order.
        self.sealed: List[tuple] = []
        # Counters for benchmarks and tests.
        self.interned = 0
        self.dropped = 0

    # -- interning --------------------------------------------------------

    def _entry(self, entry) -> int:
        index = self._ent_index.get(id(entry))
        if index is None:
            if self._ent_free:
                index = self._ent_free.pop()
                self.ent_objs[index] = entry
            else:
                index = len(self.ent_objs)
                self.ent_objs.append(entry)
                self._ent_refs.append(0)
            self._ent_index[id(entry)] = index
        self._ent_refs[index] += 1
        return index

    def intern_flow(self, fid: int, flow: "FluidFlow",
                    dirs: Sequence["LinkDirection"],
                    entries: Sequence[tuple] = ()) -> int:
        """Intern one delivered flow's row — its hops and the ``(switch,
        flow-table entry)`` pairs its walk matched — in a fresh slot,
        retiring the one it had; returns the slot."""
        fa = self.flows
        old = self.slot_of.get(fid)
        if old is not None:
            self._retire(old)
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._top
            self._top += 1
            if slot >= fa.cap:
                fa.grow_rows(slot + 1)
        self.slot_of[fid] = slot
        self._order = None
        fa.fid[slot] = fid
        key = self._flow_key.get(fid)
        if key is None:
            key = self._flow_key[fid] = len(self.flow_objs)
            self.flow_objs.append(flow)
        hops = len(dirs)
        if max(hops, len(entries)) > fa.width:
            fa.grow_width(max(hops, len(entries)))
        fa.key[slot] = key
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
        fa.ent_len[slot] = len(entries)
        ent_row = fa.ent[slot]
        for pos, (__, entry) in enumerate(entries):
            ent_row[pos] = self._entry(entry)
        self.interned += 1
        return slot

    def drop_flow(self, fid: int) -> None:
        slot = self.slot_of.pop(fid, None)
        if slot is not None:
            self._retire(slot)
            self._order = None
            self.dropped += 1

    def _retire(self, slot: int) -> None:
        self.flows.fid[slot] = _RETIRED
        if self.sealed:
            self._retired.append(slot)
        else:
            self._release(slot)

    def _release(self, slot: int) -> None:
        fa = self.flows
        refs = self._ent_refs
        for index in fa.ent[slot, : fa.ent_len[slot]].tolist():
            refs[index] -= 1
            if not refs[index]:
                del self._ent_index[id(self.ent_objs[index])]
                self.ent_objs[index] = None
                self._ent_free.append(index)
        self._free.append(slot)

    def patch_capacity(self, link) -> None:
        """A link's capacity changed; patch interned directions in place."""
        for direction in (link.forward, link.reverse):
            slot = self.links.slot_of.get(direction)
            if slot is not None:
                self.links.capacity[slot] = direction.capacity_bps

    def set_rate(self, fid: int, rate: float) -> None:
        """Mirror a rate assigned outside a solve: a flow handed its
        demand, or a stop's zero (which seals first), so later
        segments add what the flow now carries."""
        slot = self.slot_of.get(fid)
        if slot is not None:
            self.flows.rate[slot] = rate

    # -- solving ----------------------------------------------------------

    def solve_component(self, fids: Sequence[int], over) -> List[float]:
        """Solve the component of the live flows *fids* (ascending)
        over its contended directions (*over*, a mask over direction
        slots: :meth:`LinkArrays.mask` of the engine's flags).

        The instance holds the contended directions only — an
        uncontended one never wins a pop, so the rates are those of the
        instance with every direction, float for float.  Returns the
        members' rates in *fids* order, also written to the mirror.
        """
        np = _np
        fa = self.flows
        slots = np.fromiter((self.slot_of[fid] for fid in fids),
                            dtype=np.intp, count=len(fids))
        lens = fa.path_len[slots]
        hops = np.arange(fa.width) < lens[:, None]
        hop_dir = fa.path[slots][hops]
        hop_flow = np.repeat(np.arange(slots.size), lens)
        keep = fa.path_first[slots][hops] & over[hop_dir]
        entry_flow = hop_flow[keep]
        entry_global = hop_dir[keep]
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
        rank = np.empty(over.size, dtype=np.int64)
        rank[uniq[appearance]] = np.arange(uniq.size)
        entry_link = rank[entry_global]
        caps = self.links.capacity[uniq[appearance]]
        rates = _batch_fill(fa.demand[slots], caps, entry_flow, entry_link)
        fa.rate[slots] = rates
        return rates.tolist()

    # -- the sealed accrual timeline ---------------------------------------

    def seal(self, segments: Sequence[tuple]) -> None:
        """Close the elapsed ``(dt, now)`` segments against the current
        rates and rows, which are about to change.

        Sealing the whole live set rather than the ``rate > 0`` subset
        is exact — ``x + 0.0 == x`` for the non-negative counters — and
        the live slots in fid order are cached per mirror generation, so
        a seal costs one gather of the rate column.
        """
        order = self._order
        if order is None:
            # Live flow ids are unique and sort below every _RETIRED.
            order = self._order = _np.argsort(
                self.flows.fid[: self._top])[: len(self.slot_of)]
        if order.size:
            self.sealed.append((order, self.flows.rate[order], segments))

    def _streams(self, slots):
        """The flow and entry streams of one seal, derived from its
        frozen rows: flows in the seal's fid order, entries flow-major
        in path order."""
        np = _np
        fa = self.flows
        if self._ent_index:
            ent_lens = fa.ent_len[slots]
            ent_idx = fa.ent[slots][np.arange(fa.width) < ent_lens[:, None]]
            ent_flow = np.repeat(np.arange(slots.size), ent_lens)
        else:
            ent_idx = ent_flow = slots[:0]
        return fa.key[slots], ent_idx, ent_flow

    def replay(self) -> None:
        """Apply the sealed segments to flow and entry byte counters,
        in order.

        Each counter a sealed row touches is gathered from its object
        once and written back once, and in between every segment adds
        ``rate · dt / 8`` — entries through ``np.add.at``, which is
        unbuffered and applies in index order: per counter the adds
        land in the order the per-flow loop makes them (segment, then
        flow id, then path position), so no bit can move.
        ``delivered_bytes`` is keyed by flow, not row: a flow re-walked
        between two replays owns two rows in this one, and both add to
        its one counter.  ``last_used_at`` takes the end time of every
        segment in which a flow matching the entry had a positive rate
        — segments are in time order, so the last assignment is the
        per-flow loop's last stamp.  Retired rows are freed at the end.
        """
        np = _np
        sealed, self.sealed = self.sealed, []
        # Derive each seal's streams once (consecutive seals of one
        # generation share them) and mark the flows and entries read.
        touched_flows = np.zeros(len(self.flow_objs), dtype=bool)
        touched_ents = np.zeros(len(self.ent_objs), dtype=bool)
        frames = []
        streams = slots = None
        for order, rates, segments in sealed:
            if order is not slots:
                slots = order
                streams = self._streams(slots)
                touched_flows[streams[0]] = True
                touched_ents[streams[1]] = True
            frames.append((streams, rates, segments))
        flow_keys = np.nonzero(touched_flows)[0]
        flows = [self.flow_objs[key] for key in flow_keys.tolist()]
        delivered = np.zeros(touched_flows.size)
        delivered[flow_keys] = [flow.delivered_bytes for flow in flows]
        ent_keys = np.nonzero(touched_ents)[0]
        entries = [self.ent_objs[index] for index in ent_keys.tolist()]
        ent_bytes = np.zeros(touched_ents.size)
        ent_used = np.zeros(touched_ents.size)
        ent_bytes[ent_keys] = [entry.byte_count for entry in entries]
        ent_used[ent_keys] = [entry.last_used_at for entry in entries]
        for (keys, ent_idx, ent_flow), rates, segments in frames:
            ent_busy = ent_idx[rates[ent_flow] > 0]
            for dt, seg_now in segments:
                moved = rates * dt / 8.0
                delivered[keys] += moved      # one row per flow per seal
                if ent_idx.size:
                    np.add.at(ent_bytes, ent_idx, moved[ent_flow])
                    ent_used[ent_busy] = seg_now
        for flow, total in zip(flows, delivered[flow_keys].tolist()):
            flow.delivered_bytes = total
        for entry, count, used in zip(entries, ent_bytes[ent_keys].tolist(),
                                      ent_used[ent_keys].tolist()):
            entry.byte_count = count
            entry.last_used_at = used
        retired, self._retired = self._retired, []
        for slot in retired:
            self._release(slot)

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
    "bottleneck_filling_arrays",
    "numpy_bound",
]
