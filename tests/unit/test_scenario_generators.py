"""Unit tests: seeded scenario generation is fully deterministic."""

import pytest

from repro.core.errors import ConfigurationError
from repro.scenarios import (
    LinkFail,
    LinkRestore,
    NodeFail,
    NodeRecover,
    flap_storm,
    generate_scenario,
    gray_brownout,
    k_random_link_failures,
    rolling_maintenance,
)
from repro.scenarios.generators import fabric_links, fabric_nodes
from repro.topology.builders import star_topo, wan_topo

PATTERNS = ["k-random-links", "flap-storm", "rolling-maintenance",
            "gray-brownout"]


def schedule_dicts(injections):
    return [injection.to_dict() for injection in injections]


class TestFabricCandidates:
    def test_fabric_links_exclude_host_uplinks(self):
        topo = wan_topo()
        links = fabric_links(topo)
        assert len(links) == 14  # the Abilene edge list
        assert all(not a.startswith("h_") and not b.startswith("h_")
                   for a, b in links)

    def test_no_fabric_links_rejected(self):
        with pytest.raises(ConfigurationError):
            k_random_link_failures(star_topo(3), k=1, seed=0)

    def test_fabric_nodes(self):
        assert len(fabric_nodes(wan_topo())) == 11


class TestGeneratorDeterminism:
    def test_same_seed_same_schedule(self):
        topo = wan_topo()
        first = k_random_link_failures(topo, k=3, seed=5)
        second = k_random_link_failures(topo, k=3, seed=5)
        assert schedule_dicts(first) == schedule_dicts(second)

    def test_different_seed_different_schedule(self):
        topo = wan_topo()
        assert (schedule_dicts(k_random_link_failures(topo, k=3, seed=5))
                != schedule_dicts(k_random_link_failures(topo, k=3, seed=6)))

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_generate_scenario_deterministic(self, pattern):
        first = generate_scenario(9, pattern=pattern)
        second = generate_scenario(9, pattern=pattern)
        assert first == second
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_generate_scenario_validates(self, pattern):
        generate_scenario(3, pattern=pattern).validate()

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_scenario(0, pattern="alien-invasion")


class TestPatternShapes:
    def test_k_random_pairs_fail_with_restore(self):
        injections = k_random_link_failures(wan_topo(), k=2, seed=1,
                                            outage=5.0)
        fails = [i for i in injections if isinstance(i, LinkFail)]
        restores = [i for i in injections if isinstance(i, LinkRestore)]
        assert len(fails) == 2 and len(restores) == 2
        for fail, restore in zip(fails, restores):
            assert {restore.node_a, restore.node_b} == {fail.node_a,
                                                        fail.node_b}
            assert restore.at == pytest.approx(fail.at + 5.0)

    def test_k_random_distinct_links(self):
        injections = k_random_link_failures(wan_topo(), k=4, seed=2)
        cut = {frozenset((i.node_a, i.node_b)) for i in injections
               if isinstance(i, LinkFail)}
        assert len(cut) == 4

    def test_k_caps_at_available_links(self):
        injections = k_random_link_failures(wan_topo(), k=999, seed=0)
        assert len([i for i in injections
                    if isinstance(i, LinkFail)]) == 14

    def test_flap_storm_count_and_window(self):
        injections = flap_storm(wan_topo(), links=3, seed=4, start=8.0,
                                spread=4.0)
        assert len(injections) == 3
        assert all(8.0 <= flap.at <= 12.0 for flap in injections)

    def test_rolling_maintenance_alternates(self):
        injections = rolling_maintenance(wan_topo(), nodes=3, seed=7,
                                         start=5.0, interval=10.0,
                                         downtime=4.0)
        fails = [i for i in injections if isinstance(i, NodeFail)]
        recovers = [i for i in injections if isinstance(i, NodeRecover)]
        assert len(fails) == len(recovers) == 3
        for index, (fail, recover) in enumerate(zip(fails, recovers)):
            assert fail.node == recover.node
            assert fail.at == pytest.approx(5.0 + index * 10.0)
            assert recover.at == pytest.approx(fail.at + 4.0)
        # one device down at a time
        assert len({fail.node for fail in fails}) == 3

    def test_rolling_maintenance_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            rolling_maintenance(wan_topo(), interval=5.0, downtime=6.0)

    def test_gray_brownout_factors_in_range(self):
        injections = gray_brownout(wan_topo(), links=3, seed=3,
                                   factor_range=(0.2, 0.4))
        assert len(injections) == 3
        assert all(0.2 <= inj.factor <= 0.4 for inj in injections)
        assert all(inj.until == pytest.approx(inj.at + 10.0)
                   for inj in injections)


class TestSeedSweep:
    def test_sweep_varies_only_with_seed(self):
        specs = [generate_scenario(seed) for seed in range(4)]
        assert [spec.seed for spec in specs] == [0, 1, 2, 3]
        assert len({spec.name for spec in specs}) == 4
        schedules = [schedule_dicts(spec.injections) for spec in specs]
        # seeds draw different schedules...
        assert any(schedules[0] != other for other in schedules[1:])
        # ...but regeneration reproduces them exactly
        again = [generate_scenario(seed) for seed in range(4)]
        assert [s.to_json() for s in specs] == [s.to_json() for s in again]
