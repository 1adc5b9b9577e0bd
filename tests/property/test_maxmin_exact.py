"""The float kernels land on the exact max-min point (ROADMAP 1(a)).

``maxmin_exact.exact_max_min`` computes the allocation in rational
arithmetic and shares nothing with ``repro.dataplane``; here both
engine kernels and the round-based ``progressive_filling`` — until now
the oracle itself, trusted rather than checked — are held to it on the
kernel-parity corpus (messy floats and tie-heavy values), and the
pruning lemma of ``test_contention_pruning.py`` is restated where no
float can blur it: a row that crosses no link whose offered load
exceeds its capacity is allocated exactly its demand.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from repro.dataplane import solver
from repro.dataplane.arrays import HAVE_NUMPY

from maxmin_exact import exact_max_min, offered, tolerance
from maxmin_progressive import progressive_filling
from test_kernel_parity import LINKLESS_FLOWS, all_ones, dense_instances


def test_the_oracle_on_textbook_instances():
    # Three rows on one link of 12: equal thirds.
    assert exact_max_min([10, 10, 10], [12], [[0], [0], [0]]) == [4, 4, 4]
    # The small demand is met; the other two split what is left.
    assert exact_max_min([2, 10, 10], [12], [[0], [0], [0]]) == [2, 5, 5]
    # Bertsekas & Gallager's line: row 0 crosses both links, row 1 the
    # first (capacity 1), row 2 the second (capacity 2).
    assert exact_max_min([9, 9, 9], [1, 2], [[0, 1], [0], [1]]) == [
        Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)]
    # No link at all: demand-limited.  Zero demand: zero.
    assert exact_max_min([7.5, 0.0], [1], [[], [0]]) == [Fraction(15, 2), 0]
    # Thirds are not floats: the exact point really is exact.
    assert exact_max_min([1, 1, 1], [1], [[0], [0], [0]]) == [
        Fraction(1, 3)] * 3


def _float_results(instance):
    demands, capacities, link_members, flow_links = instance
    results = {
        "heap": solver.bottleneck_filling(
            demands, capacities, link_members, all_ones(flow_links)),
        "progressive": progressive_filling(
            demands, list(capacities), capacities, link_members,
            flow_links),
    }
    if HAVE_NUMPY:
        from repro.dataplane.arrays import bottleneck_filling_arrays

        results["arrays"] = bottleneck_filling_arrays(
            demands, capacities, link_members, flow_links)
    return results


@pytest.mark.parametrize("clean", [False, True], ids=["messy", "ties"])
@given(messy=dense_instances(False), ties=dense_instances(True))
@example(messy=LINKLESS_FLOWS, ties=LINKLESS_FLOWS)
@settings(max_examples=150, deadline=None)
def test_float_kernels_land_on_the_exact_point(clean, messy, ties):
    instance = ties if clean else messy
    demands, capacities, __, flow_links = instance
    exact = exact_max_min(demands, capacities, flow_links)
    slack = tolerance(demands, capacities, solver.EPSILON)
    for name, rates in _float_results(instance).items():
        for row, rate in enumerate(rates):
            assert abs(Fraction(rate) - exact[row]) <= slack, (
                f"{name} row {row}: {rate!r} vs exact "
                f"{float(exact[row])!r} (tolerance {slack!r})")


@pytest.mark.parametrize("clean", [False, True], ids=["messy", "ties"])
@given(messy=dense_instances(False), ties=dense_instances(True))
@settings(max_examples=150, deadline=None)
def test_uncontended_rows_get_exactly_their_demand(clean, messy, ties):
    """The pruning lemma in exact arithmetic: a link whose offered load
    fits under its capacity constrains nobody, so a row crossing only
    such links is demand-limited — not approximately, exactly."""
    demands, capacities, __, flow_links = ties if clean else messy
    exact = exact_max_min(demands, capacities, flow_links)
    load = offered(demands, flow_links, len(capacities))
    fits = [load[link] <= Fraction(capacities[link])
            for link in range(len(capacities))]
    for row, links in enumerate(flow_links):
        if all(fits[link] for link in links):
            assert exact[row] == Fraction(demands[row]), (row, links)
