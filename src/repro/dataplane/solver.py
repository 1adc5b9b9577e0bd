"""Unified max-min solver facade: one registry, three kernels.

PRs 2 and 8 accreted three divergent solver entry points —
``fluid.progressive_filling`` (the round-based reference arithmetic),
``fluid.bottleneck_filling`` (the event-ordered heap kernel) and
``symmetry.quotient.quotient_bottleneck_filling`` (the class-level
replay).  This module is now the home of all of them, behind a single
:class:`MaxMinSolver` protocol and a kernel registry:

* ``"reference"`` — :func:`progressive_filling` wrapped to the common
  signature.  The pre-PR-2 arithmetic, preserved operation for
  operation; quadratic with distinct demands.  Benchmarks use it as
  the baseline (it was previously spelled ``"legacy"``).
* ``"heap"``      — :func:`bottleneck_filling`, bottleneck-ordered
  filling with lazy heaps (previously spelled ``"bottleneck"``).
* ``"arrays"``    — :func:`repro.dataplane.arrays.bottleneck_filling_arrays`,
  the vectorized numpy batch kernel (PR 10).  Registered lazily and
  only when numpy imports; bit-for-bit equal to ``"heap"`` (it replays
  the same float arithmetic in saturation-level batches).

Selection is a ``kernel`` knob on :class:`repro.core.config.SimulationConfig`
(and thus ``sim_params`` in scenario specs).  The default ``"auto"``
resolves to ``"arrays"`` when numpy state is live and no symmetry
quotient is attached, else ``"heap"``: the quotient fast path replays
*heap* arithmetic per class, so quotient runs stay on the kernel they
are pinned against.

The old ``fluid.progressive_filling`` / ``fluid.bottleneck_filling``
imports keep working for one release via ``DeprecationWarning`` shims;
``quotient_bottleneck_filling`` is re-exported unchanged from
:mod:`repro.symmetry.quotient`.
"""

from __future__ import annotations

import heapq
from typing import (
    Callable,
    Dict,
    List,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

EPSILON = 1e-9

#: The ``kernel`` values a SimulationConfig / spec may carry.
KERNEL_CHOICES = ("auto", "reference", "heap", "arrays")

#: Pre-PR-10 spellings of ``ReallocEngine.kernel``, accepted for one
#: release so external callers poking the attribute keep working.
_KERNEL_ALIASES = {"legacy": "reference", "bottleneck": "heap"}


# ---------------------------------------------------------------------------
# The kernels (moved verbatim from repro.dataplane.fluid, PR 2 arithmetic)
# ---------------------------------------------------------------------------


def progressive_filling(
    demands: Sequence[float],
    residuals: List[float],
    capacities: Sequence[float],
    link_members: Sequence[Sequence[int]],
    flow_links: Sequence[Sequence[int]],
) -> List[float]:
    """Array-kernel progressive filling over interned flow/link indices.

    Parameters
    ----------
    demands:
        per-flow demand, indexed 0..F-1.
    residuals:
        per-link residual capacity, indexed 0..L-1.  **Mutated in
        place** (callers pass a fresh copy).
    capacities:
        per-link original capacity (for the saturation epsilon scale).
    link_members:
        per-link array of member flow indices (only flows with demand
        above ``EPSILON``; duplicates must be pre-deduplicated).
    flow_links:
        per-flow array of link indices on its path (deduplicated).

    Returns
    -------
    list
        per-flow allocated rate.
    """
    num_flows = len(demands)
    num_links = len(residuals)
    rates = [0.0] * num_flows
    # Zero-demand flows are born frozen at 0.
    alive = [demands[i] > EPSILON for i in range(num_flows)]
    active = [i for i in range(num_flows) if alive[i]]
    live = [len(members) for members in link_members]

    # Each round raises all active flows by the largest uniform
    # increment any constraint allows, then freezes the flows that hit
    # their constraint.  Every round freezes at least one flow, so the
    # loop runs at most F times.
    while active:
        increment = min(demands[i] - rates[i] for i in active)
        limiting: List[int] = []
        for link in range(num_links):
            count = live[link]
            if count == 0:
                continue
            share = residuals[link] / count
            if share < increment - EPSILON:
                increment = share
                limiting = [link]
            elif share <= increment + EPSILON:
                limiting.append(link)
        if increment < 0:
            increment = 0.0

        # A flow whose remaining demand set the increment is satisfied
        # this round.  That is decided on the gap *before* the raise:
        # ``rate + (demand - rate)`` may round an ulp short of
        # ``demand``, and an ulp at Gb/s scale is far above EPSILON, so
        # testing only the raised rate can leave the round with nothing
        # frozen and strand every link-less flow at this fill level.
        satisfied = {i for i in active
                     if demands[i] - rates[i] <= increment + EPSILON}
        for i in active:
            rates[i] += increment
        for link in range(num_links):
            count = live[link]
            if count:
                residuals[link] -= increment * count
                if residuals[link] < 0:
                    residuals[link] = 0.0

        frozen: List[int] = []
        for i in active:
            if i in satisfied or rates[i] >= demands[i] - EPSILON:
                rates[i] = demands[i]
                if alive[i]:
                    alive[i] = False
                    frozen.append(i)
        for link in limiting:
            if residuals[link] <= EPSILON * max(1.0, capacities[link]):
                for i in link_members[link]:
                    if alive[i]:
                        alive[i] = False
                        frozen.append(i)
        if not frozen:
            # Zero-increment round with nothing freezing would spin
            # forever; freeze the flows on the tightest link outright.
            if limiting:
                for link in limiting:
                    for i in link_members[link]:
                        if alive[i]:
                            alive[i] = False
                            frozen.append(i)
            else:
                for i in active:
                    alive[i] = False
                    frozen.append(i)
        for i in frozen:
            for link in flow_links[i]:
                live[link] -= 1
        active = [i for i in active if alive[i]]

    return rates


def bottleneck_filling(
    demands: Sequence[float],
    capacities: Sequence[float],
    link_members: Sequence[Sequence[int]],
    flow_links: Sequence[Sequence[int]],
) -> List[float]:
    """Bottleneck-ordered max-min filling over interned indices.

    Equivalent allocation to :func:`progressive_filling` (max-min is
    unique) but event-driven: the global water level λ jumps straight
    to the next constraint — the smallest unfrozen demand or the
    smallest link saturation level — instead of being raised round by
    round.  Freezing a flow updates only the links on its own path.

    Parameters as for :func:`progressive_filling`, except capacities
    are not mutated (no residual array needed).
    """
    num_flows = len(demands)
    num_links = len(capacities)
    rates = [0.0] * num_flows
    # Zero-demand flows are born frozen at 0.
    frozen = [demands[i] <= EPSILON for i in range(num_flows)]
    alive_count = [len(members) for members in link_members]
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
        for link in flow_links[i]:
            frozen_load[link] += rate
            alive_count[link] -= 1
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


def quotient_bottleneck_filling(
    demands: Sequence[float],
    capacities: Sequence[float],
    alive_counts: Sequence[int],
    link_members: Sequence[Sequence[int]],
    flow_links: Sequence[Sequence[Tuple[int, int]]],
) -> List[float]:
    """Class-level replay of :func:`bottleneck_filling`.

    Indices are *classes*: ``demands[i]`` is the (uniform) demand of
    flow class ``i``; ``capacities[j]`` the (uniform) capacity of a
    representative member link of direction class ``j``;
    ``alive_counts[j]`` how many member *flows* cross that
    representative link; ``link_members[j]`` the flow classes crossing
    it; ``flow_links[i]`` the ``(class, crossing_count)`` pairs of
    flow class ``i``'s path.  Freezing a class replays
    ``crossing_count`` sequential additions per representative link —
    the exact float trajectory every concrete member link follows.
    """
    num_flows = len(demands)
    num_links = len(capacities)
    rates = [0.0] * num_flows
    frozen = [demands[i] <= EPSILON for i in range(num_flows)]
    alive_count = list(alive_counts)
    frozen_load = [0.0] * num_links
    current_key = [0.0] * num_links

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

    level = 0.0

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
        if sat_heap and (not demand_heap
                         or sat_heap[0][0] < demand_heap[0][0]):
            sat_level, link = heapq.heappop(sat_heap)
            if sat_level > level:
                level = sat_level
            for i in link_members[link]:
                if not frozen[i]:
                    freeze(i, level if level < demands[i] else demands[i])
        else:
            demand, i = heapq.heappop(demand_heap)
            if frozen[i]:
                continue
            if demand > level:
                level = demand
            freeze(i, demand)
    return rates


# ---------------------------------------------------------------------------
# The facade: MaxMinSolver protocol + kernel registry
# ---------------------------------------------------------------------------


@runtime_checkable
class MaxMinSolver(Protocol):
    """A registered max-min kernel: one interned-instance solve call.

    The common signature mirrors :func:`bottleneck_filling` —
    capacities are never mutated, residual bookkeeping (if any) is the
    kernel's own business.
    """

    name: str

    def solve(
        self,
        demands: Sequence[float],
        capacities: Sequence[float],
        link_members: Sequence[Sequence[int]],
        flow_links: Sequence[Sequence[int]],
    ) -> Sequence[float]:
        ...  # pragma: no cover - protocol


class _FunctionSolver:
    """Adapts a plain kernel function to :class:`MaxMinSolver`."""

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable) -> None:
        self.name = name
        self._fn = fn

    def solve(self, demands, capacities, link_members, flow_links):
        return self._fn(demands, capacities, link_members, flow_links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MaxMinSolver {self.name!r}>"


def _reference_solve(demands, capacities, link_members, flow_links):
    # progressive_filling mutates its residual array; the facade keeps
    # the common no-mutation signature by copying here.
    return progressive_filling(demands, list(capacities), capacities,
                               link_members, flow_links)


_REGISTRY: Dict[str, MaxMinSolver] = {}


def register_kernel(solver: MaxMinSolver, *, replace: bool = False) -> None:
    """Register a solver under its ``name`` (tests plug in probes)."""
    if not replace and solver.name in _REGISTRY:
        raise ValueError(f"kernel {solver.name!r} is already registered")
    _REGISTRY[solver.name] = solver


register_kernel(_FunctionSolver("reference", _reference_solve))
register_kernel(_FunctionSolver("heap", bottleneck_filling))


def numpy_available() -> bool:
    """Whether the ``"arrays"`` kernel can run in this interpreter."""
    from repro.dataplane import arrays

    return arrays.HAVE_NUMPY


def _ensure_arrays_registered() -> bool:
    if "arrays" in _REGISTRY:
        return True
    from repro.dataplane import arrays

    if not arrays.HAVE_NUMPY:
        return False
    register_kernel(
        _FunctionSolver("arrays", arrays.bottleneck_filling_arrays))
    return True


def available_kernels() -> Tuple[str, ...]:
    """Registered kernel names, selectable order (registry + arrays)."""
    _ensure_arrays_registered()
    return tuple(sorted(_REGISTRY))


def canonical_kernel(name: str) -> str:
    """Map a kernel spelling to its canonical name, validating it.

    Accepts the pre-PR-10 engine spellings (``legacy``/``bottleneck``)
    plus everything in :data:`KERNEL_CHOICES`; raises ``ValueError``
    naming the valid set otherwise.
    """
    name = _KERNEL_ALIASES.get(name, name)
    if name not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel {name!r}; valid kernels: "
            f"{', '.join(KERNEL_CHOICES)}")
    return name


def resolve_kernel(requested: str, *, quotient: bool = False) -> str:
    """Resolve a (canonical or aliased) kernel request to a concrete one.

    ``"auto"`` picks ``"arrays"`` when numpy state is live and no
    symmetry quotient rides the engine (the quotient fast path replays
    *heap* arithmetic, so symmetric runs stay pinned to it), else
    ``"heap"``.  An explicit ``"arrays"`` request without numpy falls
    back to ``"heap"`` — the two are bit-for-bit equal, so the
    degradation is silent by design.
    """
    requested = canonical_kernel(requested)
    if requested == "auto":
        if not quotient and _ensure_arrays_registered():
            return "arrays"
        return "heap"
    if requested == "arrays" and not _ensure_arrays_registered():
        return "heap"
    return requested


def get_kernel(name: str) -> MaxMinSolver:
    """Look a registered solver up by concrete (resolved) name."""
    if name == "arrays":
        _ensure_arrays_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no kernel {name!r} registered; available: "
            f"{', '.join(sorted(_REGISTRY))}") from None


__all__ = [
    "EPSILON",
    "KERNEL_CHOICES",
    "MaxMinSolver",
    "available_kernels",
    "bottleneck_filling",
    "canonical_kernel",
    "get_kernel",
    "numpy_available",
    "progressive_filling",
    "quotient_bottleneck_filling",
    "register_kernel",
    "resolve_kernel",
]
