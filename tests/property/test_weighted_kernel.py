"""Property: a folded weighted instance solves to its expansion's rates.

The scalar kernel's instances are multiplicity-weighted, and the
symmetry quotient is nothing but a caller that hands it a smaller one.
That only works if folding is exact, so this pins it on the kernel
itself, with no scenario around it: take a random instance, make ``c``
copies of every flow (each copy crossing the same links), and solve it
twice —

* **expanded**: ``c·F`` rows, every entry multiplicity one — the
  all-ones form the concrete engine builds;
* **folded**: the original ``F`` rows, every entry multiplicity ``c``.

Every class must get *exactly* (list ``==``, no tolerance) the rate the
expansion gives each of its ``c`` copies, and with numpy present the
vectorized kernel on the expansion must agree as well.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane.arrays import HAVE_NUMPY
from repro.dataplane.solver import EPSILON, bottleneck_filling

# Tie-heavy and messy values, as in test_kernel_parity: ties are where
# the pop order (and so the add order) matters.
_DEMANDS = st.one_of(st.sampled_from((0.0, 2.5e8, 5e8, 1e9)),
                     st.floats(min_value=0.0, max_value=3e9))
_CAPACITIES = st.one_of(st.sampled_from((1e9, 2e9, 4e9)),
                        st.floats(min_value=1e8, max_value=5e9))


@st.composite
def instances(draw):
    num_flows = draw(st.integers(1, 16))
    num_links = draw(st.integers(1, 10))
    demands = [draw(_DEMANDS) for __ in range(num_flows)]
    capacities = [draw(_CAPACITIES) for __ in range(num_links)]
    paths = [list(draw(st.permutations(range(num_links)))
                  [:draw(st.integers(0, min(5, num_links)))])
             for __ in range(num_flows)]
    return demands, capacities, paths


def members_of(demands, paths, num_links):
    members = [[] for __ in range(num_links)]
    for row, links in enumerate(paths):
        if demands[row] > EPSILON:
            for link in links:
                members[link].append(row)
    return members


@pytest.mark.parametrize("copies", [1, 2, 3, 5])
@given(instance=instances())
@settings(max_examples=150, deadline=None)
def test_folded_instance_equals_its_expansion(copies, instance):
    demands, capacities, paths = instance
    num_links = len(capacities)

    folded = bottleneck_filling(
        demands, capacities, members_of(demands, paths, num_links),
        [[(link, copies) for link in links] for links in paths])

    # Class-major expansion: copies of a class sit next to each other,
    # the order the engine meets a class's member flows in.
    wide_demands = [d for d in demands for __ in range(copies)]
    wide_paths = [links for links in paths for __ in range(copies)]
    wide_members = members_of(wide_demands, wide_paths, num_links)
    expanded = bottleneck_filling(
        wide_demands, capacities, wide_members,
        [[(link, 1) for link in links] for links in wide_paths])

    assert expanded == [rate for rate in folded for __ in range(copies)]

    if HAVE_NUMPY:
        from repro.dataplane.arrays import bottleneck_filling_arrays

        assert bottleneck_filling_arrays(
            wide_demands, capacities, wide_members, wide_paths) == expanded
