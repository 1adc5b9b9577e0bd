"""Max-min fair rate allocation — the fluid traffic model's checker.

This is Horse's speed trick: instead of simulating packets, the data
plane assigns each flow a rate, the max-min fair allocation subject to
demands and directional link capacities.  The engine computes it with
the kernels of :mod:`repro.dataplane.solver` (scalar) and
:mod:`repro.dataplane.arrays` (vectorized); ``validate_allocation``
checks the defining properties of any allocation:

* feasibility — no link carries more than its capacity;
* demand-boundedness — no flow exceeds its demand;
* bottleneck justification — every flow not meeting its demand crosses
  at least one saturated link where it receives a maximal share.

The round-based progressive filling, a float oracle, is test-only code
(``tests/property/maxmin_progressive.py``), held with both kernels to
the exact rational max-min point.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence

from repro.dataplane.solver import EPSILON

__all__ = ["EPSILON", "validate_allocation"]


def validate_allocation(
    flow_paths: Mapping[Hashable, Sequence[Hashable]],
    flow_demands: Mapping[Hashable, float],
    link_capacities: Mapping[Hashable, float],
    rates: Mapping[Hashable, float],
    tolerance: float = 1e-6,
) -> List[str]:
    """Check the max-min fairness properties; returns violation strings.

    An empty list means the allocation is a valid max-min fair
    assignment.  Tolerance is relative to each constraint's scale.
    """
    problems: List[str] = []

    loads: Dict[Hashable, float] = {}
    for flow_id, path in flow_paths.items():
        rate = rates[flow_id]
        if rate < -tolerance:
            problems.append(f"flow {flow_id!r} has negative rate {rate}")
        if rate > flow_demands[flow_id] * (1 + tolerance) + tolerance:
            problems.append(
                f"flow {flow_id!r} exceeds demand: {rate} > {flow_demands[flow_id]}"
            )
        for link_id in path:
            loads[link_id] = loads.get(link_id, 0.0) + rate

    for link_id, load in loads.items():
        capacity = link_capacities[link_id]
        if load > capacity * (1 + tolerance) + tolerance:
            problems.append(
                f"link {link_id!r} over capacity: load {load} > {capacity}"
            )

    # Bottleneck justification: a flow below its demand must cross a
    # saturated link on which no co-flow gets a strictly larger rate.
    for flow_id, path in flow_paths.items():
        rate = rates[flow_id]
        if rate >= flow_demands[flow_id] * (1 - tolerance) - tolerance:
            continue  # demand met
        justified = False
        for link_id in path:
            capacity = link_capacities[link_id]
            saturated = loads.get(link_id, 0.0) >= capacity * (1 - tolerance) - tolerance
            if not saturated:
                continue
            max_share = max(
                (
                    rates[other]
                    for other, other_path in flow_paths.items()
                    if link_id in set(other_path)
                ),
                default=0.0,
            )
            if rate >= max_share * (1 - tolerance) - tolerance:
                justified = True
                break
        if not justified:
            problems.append(
                f"flow {flow_id!r} below demand ({rate} < {flow_demands[flow_id]}) "
                "with no justifying bottleneck"
            )

    return problems
