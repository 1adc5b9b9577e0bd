"""Property tests: max-min fairness invariants on random instances."""

from hypothesis import given, settings, strategies as st

from repro.dataplane.fluid import validate_allocation
from repro.dataplane.solver import EPSILON, bottleneck_filling

from maxmin_progressive import max_min_allocation


@st.composite
def fluid_instances(draw):
    """Random flows over random links with random demands/capacities."""
    num_links = draw(st.integers(min_value=1, max_value=8))
    link_ids = [f"l{i}" for i in range(num_links)]
    capacities = {
        link: draw(st.floats(min_value=0.1, max_value=100.0))
        for link in link_ids
    }
    num_flows = draw(st.integers(min_value=1, max_value=12))
    paths = {}
    demands = {}
    for flow in range(num_flows):
        length = draw(st.integers(min_value=0, max_value=min(4, num_links)))
        path = draw(st.permutations(link_ids)) [:length]
        paths[flow] = list(path)
        demands[flow] = draw(st.floats(min_value=0.0, max_value=50.0))
    return paths, demands, capacities


@given(fluid_instances())
@settings(max_examples=300, deadline=None)
def test_allocation_always_valid(instance):
    paths, demands, capacities = instance
    rates = max_min_allocation(paths, demands, capacities)
    problems = validate_allocation(paths, demands, capacities, rates,
                                   tolerance=1e-5)
    assert problems == [], problems


@given(fluid_instances())
@settings(max_examples=150, deadline=None)
def test_allocation_deterministic(instance):
    paths, demands, capacities = instance
    first = max_min_allocation(paths, demands, capacities)
    second = max_min_allocation(paths, demands, capacities)
    assert first == second


@given(fluid_instances())
@settings(max_examples=150, deadline=None)
def test_insertion_order_irrelevant(instance):
    paths, demands, capacities = instance
    forward = max_min_allocation(paths, demands, capacities)
    shuffled = dict(reversed(list(paths.items())))
    backward = max_min_allocation(shuffled, demands, capacities)
    for flow in paths:
        assert abs(forward[flow] - backward[flow]) < 1e-6


@given(fluid_instances())
@settings(max_examples=300, deadline=None)
def test_bottleneck_kernel_matches_progressive_filling(instance):
    """The engine's bottleneck-ordered kernel computes the same (unique)
    max-min allocation as the round-based reference, up to float noise
    from the different (exact) arithmetic."""
    paths, demands, capacities = instance
    reference = max_min_allocation(paths, demands, capacities)

    flow_ids = list(paths)
    link_index = {}
    caps = []
    link_members = []
    flow_links = []
    dense_demands = []
    for pos, flow in enumerate(flow_ids):
        dense_demands.append(demands[flow])
        links_here = []
        for link in paths[flow]:
            dense = link_index.setdefault(link, len(caps))
            if dense == len(caps):
                caps.append(capacities[link])
                link_members.append([])
            if dense not in links_here:
                links_here.append(dense)
                if demands[flow] > EPSILON:
                    link_members[dense].append(pos)
        flow_links.append(links_here)

    # The kernel's instances are multiplicity-weighted; a concrete
    # one is all ones.
    rates = bottleneck_filling(dense_demands, caps, link_members,
                               [[(link, 1) for link in links]
                                for links in flow_links])
    for pos, flow in enumerate(flow_ids):
        scale = max(1.0, demands[flow])
        assert abs(rates[pos] - reference[flow]) < 1e-6 * scale
    problems = validate_allocation(
        paths, demands, capacities,
        {flow: rates[pos] for pos, flow in enumerate(flow_ids)},
        tolerance=1e-5,
    )
    assert problems == [], problems


@given(fluid_instances(), st.floats(min_value=1.5, max_value=4.0))
@settings(max_examples=100, deadline=None)
def test_capacity_scaling_monotonic(instance, factor):
    """Scaling every capacity up never reduces any flow's rate."""
    paths, demands, capacities = instance
    base = max_min_allocation(paths, demands, capacities)
    bigger = {link: cap * factor for link, cap in capacities.items()}
    scaled = max_min_allocation(paths, demands, bigger)
    for flow in paths:
        assert scaled[flow] >= base[flow] - 1e-6


@given(fluid_instances(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_leximin_dominates_random_feasible_allocations(instance, rng):
    """The defining property of max-min fairness: its sorted rate
    vector leximin-dominates every feasible allocation.

    (Note: max-min is *not* monotonic under flow removal — removing a
    flow can free a competitor to grow and thereby squeeze a third
    flow elsewhere — so the tempting "removal never hurts" property is
    false and deliberately absent.)
    """
    paths, demands, capacities = instance
    maxmin = max_min_allocation(paths, demands, capacities)

    # Build a random feasible allocation: random within demand, then
    # scaled down uniformly per overloaded link.
    candidate = {f: rng.uniform(0.0, demands[f]) for f in paths}
    for __ in range(5):  # a few scaling passes reach feasibility
        loads = {}
        for f, path in paths.items():
            for link in path:
                loads[link] = loads.get(link, 0.0) + candidate[f]
        worst = 1.0
        for link, load in loads.items():
            if load > capacities[link] > 0:
                worst = min(worst, capacities[link] / load)
            elif load > 0 and capacities[link] == 0:
                worst = 0.0
        if worst >= 1.0:
            break
        candidate = {f: r * worst for f, r in candidate.items()}

    ours = sorted(maxmin.values())
    theirs = sorted(candidate.values())
    # Leximin comparison with tolerance: at the first index where the
    # vectors differ meaningfully, ours must be the larger.  The
    # tolerance only needs to absorb float *rounding* (one uniform
    # scaling pass makes the candidate exactly feasible, so both
    # vectors carry ~1e-16 relative noise); a loose tolerance can skip
    # a genuine ~tolerance-sized win at one index and then flag the
    # matching trade-off at the next one as a loss.
    for mine, other in zip(ours, theirs):
        if abs(mine - other) > 1e-9 * max(1.0, mine, other):
            assert mine > other
            break
