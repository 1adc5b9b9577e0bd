"""The scalar max-min kernel, and the names the two kernels go by.

The fluid engine has two kernels and one rule between them:

* ``"heap"``   — :func:`bottleneck_filling` below: bottleneck-ordered
  filling with lazy heaps, pure Python.  Its instances are
  *multiplicity-weighted*: a flow→link entry carries how many member
  flows it stands for.  One builder, :func:`solve_rows`, interns the
  instances of both callers: the engine's component solve (a row per
  flow, its contended directions, multiplicity 1) and the symmetry
  quotient's class solve (:mod:`repro.symmetry.quotient`: a row per
  flow class, keyed by direction class).
* ``"arrays"`` — :func:`repro.dataplane.arrays.bottleneck_filling_arrays`,
  the vectorized numpy batch kernel over the engine's struct-of-arrays
  mirror; bit-for-bit equal to ``"heap"`` on all-ones instances (it
  replays the same float arithmetic in saturation-level batches).

The rule (:meth:`repro.dataplane.realloc.ReallocEngine.effective_kernel`):
``arrays`` when the network has registered at least
``repro.dataplane.arrays.ARRAYS_MIN_FLOWS`` flows and numpy is
installed (bound by the first mirror), ``heap`` otherwise — a handful
of flows never pays for the mirror or for numpy.  It is not a user option
— results are bit-for-bit equal either way.  What remains is the
reference-path switch on an engine, ``ReallocEngine.kernel``: ``"auto"``
(the rule) or ``"heap"`` (force the scalar path), which the parity tests
and ``bench_reallocation`` set on engines they build.

The round-based progressive filling the tests use as a float oracle is
not an engine kernel and not in the package: it is test-only code,
``tests/property/maxmin_progressive.py``, beside the exact rational
oracle ``tests/property/maxmin_exact.py`` that judges it and both
kernels.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.core.errors import ConfigurationError

EPSILON = 1e-9

#: The values ``ReallocEngine.kernel`` takes.
KERNEL_CHOICES = ("auto", "heap")


def check_kernel(name: str) -> str:
    """Return ``name`` if it is a valid ``kernel`` value, else raise
    :class:`ConfigurationError` naming the valid set."""
    if name not in KERNEL_CHOICES:
        raise ConfigurationError(
            f"unknown kernel {name!r}; valid kernels: "
            f"{', '.join(KERNEL_CHOICES)}")
    return name


def bottleneck_filling(
    demands: Sequence[float],
    capacities: Sequence[float],
    link_members: Sequence[Sequence[int]],
    flow_links: Sequence[Sequence[Tuple[int, int]]],
) -> List[float]:
    """Bottleneck-ordered max-min filling over a weighted interned instance.

    The global water level λ jumps straight to the next constraint —
    the smallest unfrozen demand or the smallest link saturation level
    — and freezing a flow updates only the links on its own path.

    Parameters
    ----------
    demands:
        per-row demand, indexed 0..F-1.  A row is one flow, or one
        class of flows that provably share a rate.
    capacities:
        per-link capacity, indexed 0..L-1 (not mutated).
    link_members:
        per-link array of the rows crossing it (only rows with demand
        above ``EPSILON``).
    flow_links:
        per-row ``(link, multiplicity)`` pairs along its path, each
        link at most once: ``multiplicity`` is how many member flows of
        the row cross that one link.  All ones for a concrete instance.

    Freezing a row at ``rate`` performs ``multiplicity`` sequential
    two-operand ``+= rate`` additions on the link's frozen load — the
    exact float trajectory of that many concrete flows freezing one
    after another (``multiplicity * rate`` would round differently).
    """
    num_flows = len(demands)
    num_links = len(capacities)
    rates = [0.0] * num_flows
    # Zero-demand flows are born frozen at 0.
    frozen = [demands[i] <= EPSILON for i in range(num_flows)]
    alive_count = [0] * num_links   # unfrozen member *flows* per link
    for i in range(num_flows):
        if not frozen[i]:
            for link, mult in flow_links[i]:
                alive_count[link] += mult
    frozen_load = [0.0] * num_links
    current_key = [0.0] * num_links  # latest valid sat-heap key per link

    demand_heap = [(demands[i], i) for i in range(num_flows) if not frozen[i]]
    heapq.heapify(demand_heap)
    sat_heap: List = []

    def push_sat(link: int) -> None:
        count = alive_count[link]
        if count > 0:
            level = (capacities[link] - frozen_load[link]) / count
            current_key[link] = level
            heapq.heappush(sat_heap, (level, link))

    for link in range(num_links):
        push_sat(link)

    level = 0.0  # monotonically non-decreasing water level

    def freeze(i: int, rate: float) -> None:
        frozen[i] = True
        rates[i] = rate
        for link, mult in flow_links[i]:
            load = frozen_load[link]
            for __ in range(mult):
                load += rate
            frozen_load[link] = load
            alive_count[link] -= mult
            push_sat(link)

    while True:
        while demand_heap and frozen[demand_heap[0][1]]:
            heapq.heappop(demand_heap)
        while sat_heap and (alive_count[sat_heap[0][1]] == 0
                            or sat_heap[0][0] != current_key[sat_heap[0][1]]):
            heapq.heappop(sat_heap)
        if not demand_heap and not sat_heap:
            break
        # Ties freeze by demand: the flow then gets its full demand.
        if sat_heap and (not demand_heap
                         or sat_heap[0][0] < demand_heap[0][0]):
            sat_level, link = heapq.heappop(sat_heap)
            if sat_level > level:
                level = sat_level  # clamp against float undershoot
            for i in link_members[link]:
                if not frozen[i]:
                    # level can overshoot a member's demand only by
                    # float noise; never exceed the demand.
                    freeze(i, level if level < demands[i] else demands[i])
        else:
            demand, i = heapq.heappop(demand_heap)
            if frozen[i]:
                continue
            if demand > level:
                level = demand
            freeze(i, demand)
    return rates


def solve_rows(
    rows: Iterable[Tuple[float, Iterable[Tuple[Hashable, float, int]]]],
) -> List[float]:
    """Solve rows of ``(demand, [(key, capacity, multiplicity)])``
    (links in path order) with :func:`bottleneck_filling`; returns one
    rate per row.  Keys are interned in first-appearance order, and a
    key a row repeats counts once."""
    demands: List[float] = []
    index: Dict[Hashable, int] = {}
    capacities: List[float] = []
    link_members: List[List[int]] = []
    flow_links: List[List[Tuple[int, int]]] = []
    for pos, (demand, links) in enumerate(rows):
        demands.append(demand)
        member = demand > EPSILON
        links_here: List[Tuple[int, int]] = []
        seen_here = set()
        for key, capacity, mult in links:
            dense = index.get(key)
            if dense is None:
                dense = index[key] = len(capacities)
                capacities.append(capacity)
                link_members.append([])
            elif dense in seen_here:
                continue
            seen_here.add(dense)
            links_here.append((dense, mult))
            if member:
                link_members[dense].append(pos)
        flow_links.append(links_here)
    return bottleneck_filling(demands, capacities, link_members, flow_links)


__all__ = ["EPSILON", "KERNEL_CHOICES", "bottleneck_filling", "check_kernel",
           "solve_rows"]
