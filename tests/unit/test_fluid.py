"""Unit tests: the max-min fair fluid solver."""

import sys
from pathlib import Path

import pytest

from repro.dataplane.fluid import validate_allocation

# The round-based oracle is test-only code beside the property suites.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "property"))
from maxmin_progressive import max_min_allocation  # noqa: E402


def solve(paths, demands, capacities):
    rates = max_min_allocation(paths, demands, capacities)
    problems = validate_allocation(paths, demands, capacities, rates)
    assert problems == [], problems
    return rates


class TestSingleLink:
    def test_unconstrained_flow_gets_demand(self):
        rates = solve({"f": ["l"]}, {"f": 100.0}, {"l": 1000.0})
        assert rates["f"] == pytest.approx(100.0)

    def test_bottlenecked_flow_capped(self):
        rates = solve({"f": ["l"]}, {"f": 2000.0}, {"l": 1000.0})
        assert rates["f"] == pytest.approx(1000.0)

    def test_equal_split(self):
        rates = solve(
            {"a": ["l"], "b": ["l"]},
            {"a": 1000.0, "b": 1000.0},
            {"l": 1000.0},
        )
        assert rates["a"] == pytest.approx(500.0)
        assert rates["b"] == pytest.approx(500.0)

    def test_small_demand_leaves_more_for_big(self):
        rates = solve(
            {"small": ["l"], "big": ["l"]},
            {"small": 100.0, "big": 10_000.0},
            {"l": 1000.0},
        )
        assert rates["small"] == pytest.approx(100.0)
        assert rates["big"] == pytest.approx(900.0)

    def test_three_way_with_one_limited(self):
        rates = solve(
            {"a": ["l"], "b": ["l"], "c": ["l"]},
            {"a": 100.0, "b": 1000.0, "c": 1000.0},
            {"l": 900.0},
        )
        assert rates["a"] == pytest.approx(100.0)
        assert rates["b"] == pytest.approx(400.0)
        assert rates["c"] == pytest.approx(400.0)


class TestMultiLink:
    def test_tightest_link_governs(self):
        rates = solve({"f": ["wide", "narrow"]},
                      {"f": 1e9}, {"wide": 1e9, "narrow": 1e6})
        assert rates["f"] == pytest.approx(1e6)

    def test_classic_line_network(self):
        # a crosses both links, b and c one each: max-min gives each 0.5.
        rates = solve(
            {"a": ["l1", "l2"], "b": ["l1"], "c": ["l2"]},
            {"a": 1.0, "b": 1.0, "c": 1.0},
            {"l1": 1.0, "l2": 1.0},
        )
        assert rates["a"] == pytest.approx(0.5)
        assert rates["b"] == pytest.approx(0.5)
        assert rates["c"] == pytest.approx(0.5)

    def test_asymmetric_line(self):
        # l1 is tighter: a and b share it at 0.25; c then gets the rest of l2.
        rates = solve(
            {"a": ["l1", "l2"], "b": ["l1"], "c": ["l2"]},
            {"a": 10.0, "b": 10.0, "c": 10.0},
            {"l1": 0.5, "l2": 1.0},
        )
        assert rates["a"] == pytest.approx(0.25)
        assert rates["b"] == pytest.approx(0.25)
        assert rates["c"] == pytest.approx(0.75)

    def test_disjoint_paths_independent(self):
        rates = solve(
            {"a": ["l1"], "b": ["l2"]},
            {"a": 5.0, "b": 7.0},
            {"l1": 10.0, "l2": 10.0},
        )
        assert rates["a"] == pytest.approx(5.0)
        assert rates["b"] == pytest.approx(7.0)


class TestEdgeCases:
    def test_empty_instance(self):
        assert max_min_allocation({}, {}, {}) == {}

    def test_empty_path_flow_gets_demand(self):
        rates = solve({"f": []}, {"f": 42.0}, {})
        assert rates["f"] == pytest.approx(42.0)

    def test_zero_demand(self):
        rates = solve({"f": ["l"]}, {"f": 0.0}, {"l": 100.0})
        assert rates["f"] == 0.0

    def test_zero_capacity_link(self):
        rates = max_min_allocation({"f": ["l"]}, {"f": 10.0}, {"l": 0.0})
        assert rates["f"] == pytest.approx(0.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            max_min_allocation({"f": ["l"]}, {"f": -1.0}, {"l": 1.0})

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            max_min_allocation({"f": ["l"]}, {"f": 1.0}, {"l": -1.0})

    def test_same_link_many_flows(self):
        n = 50
        paths = {i: ["l"] for i in range(n)}
        demands = {i: 100.0 for i in range(n)}
        rates = solve(paths, demands, {"l": 1000.0})
        for i in range(n):
            assert rates[i] == pytest.approx(20.0)

    def test_order_invariance(self):
        paths = {"a": ["l1", "l2"], "b": ["l1"], "c": ["l2"]}
        demands = {"a": 3.0, "b": 2.0, "c": 1.0}
        caps = {"l1": 2.0, "l2": 2.5}
        forward = max_min_allocation(paths, demands, caps)
        reversed_paths = dict(reversed(list(paths.items())))
        backward = max_min_allocation(reversed_paths, demands, caps)
        for flow in paths:
            assert forward[flow] == pytest.approx(backward[flow])


class TestValidator:
    def test_flags_over_capacity(self):
        problems = validate_allocation(
            {"f": ["l"]}, {"f": 10.0}, {"l": 1.0}, {"f": 5.0}
        )
        assert any("over capacity" in p for p in problems)

    def test_flags_over_demand(self):
        problems = validate_allocation(
            {"f": ["l"]}, {"f": 1.0}, {"l": 10.0}, {"f": 5.0}
        )
        assert any("exceeds demand" in p for p in problems)

    def test_flags_unjustified_starvation(self):
        problems = validate_allocation(
            {"f": ["l"]}, {"f": 10.0}, {"l": 10.0}, {"f": 1.0}
        )
        assert any("no justifying bottleneck" in p for p in problems)

    def test_accepts_valid(self):
        assert validate_allocation(
            {"f": ["l"]}, {"f": 10.0}, {"l": 10.0}, {"f": 10.0}
        ) == []
