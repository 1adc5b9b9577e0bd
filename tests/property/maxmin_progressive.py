"""The round-based progressive filling — a float max-min oracle, test-only.

The classic water-filling: all active flows start at rate 0 and grow
together; a flow freezes when it reaches its demand, or when some link
on its path saturates; repeat until every flow is frozen.  This is the
fluid data plane's first arithmetic, preserved operation for operation
over dense interned indices — quadratic with distinct demands and never
selected by the engine, whose kernels are
``repro.dataplane.solver.bottleneck_filling`` and
``repro.dataplane.arrays.bottleneck_filling_arrays``.

It lives here, beside ``maxmin_exact.py``, because only tests call it:
:func:`max_min_allocation` (the mapping-level API) is the tolerance
oracle of ``test_fluid.py``, ``test_maxmin_properties.py`` and
``test_kernel_parity.py``, and ``test_maxmin_exact.py`` holds
:func:`progressive_filling` itself to the exact rational point.
``validate_allocation`` — the max-min fairness checker — stays in
``repro.dataplane.fluid``.
"""

from typing import Dict, Hashable, List, Mapping, Sequence

from repro.dataplane.solver import EPSILON


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


def max_min_allocation(
    flow_paths: Mapping[Hashable, Sequence[Hashable]],
    flow_demands: Mapping[Hashable, float],
    link_capacities: Mapping[Hashable, float],
) -> Dict[Hashable, float]:
    """Compute the max-min fair allocation.

    Parameters
    ----------
    flow_paths:
        flow id -> sequence of link ids the flow crosses.  A flow with
        an empty path is only demand-limited.
    flow_demands:
        flow id -> desired rate (bps).  Must cover every flow.
    link_capacities:
        link id -> capacity (bps).  Must cover every link referenced.

    Returns
    -------
    dict
        flow id -> allocated rate.
    """
    # Intern flows (mapping order) and links (first-reference order)
    # to dense indices, then run the array kernel.
    flow_ids = list(flow_paths)
    demands: List[float] = []
    for flow_id in flow_ids:
        demand = flow_demands[flow_id]
        if demand < 0:
            raise ValueError(f"negative demand for flow {flow_id!r}")
        demands.append(demand)

    link_index: Dict[Hashable, int] = {}
    residuals: List[float] = []
    capacities: List[float] = []
    link_members: List[List[int]] = []
    flow_links: List[List[int]] = []
    for flow_pos, flow_id in enumerate(flow_ids):
        member = demands[flow_pos] > EPSILON
        links_here: List[int] = []
        seen_here = set()
        for link_id in flow_paths[flow_id]:
            pos = link_index.get(link_id)
            if pos is None:
                capacity = link_capacities[link_id]
                if capacity < 0:
                    raise ValueError(f"negative capacity for link {link_id!r}")
                pos = len(residuals)
                link_index[link_id] = pos
                residuals.append(float(capacity))
                capacities.append(capacity)
                link_members.append([])
            if pos in seen_here:
                continue  # a path crossing a link twice counts once
            seen_here.add(pos)
            links_here.append(pos)
            if member:
                link_members[pos].append(flow_pos)
        flow_links.append(links_here)

    rates = progressive_filling(demands, residuals, capacities,
                                link_members, flow_links)
    return {flow_id: rates[pos] for pos, flow_id in enumerate(flow_ids)}
