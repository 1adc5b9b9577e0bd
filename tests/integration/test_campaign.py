"""Integration: end-to-end campaigns — fan-out, aggregation and the
bit-for-bit per-seed reproducibility contract."""

import pytest

from repro.core.errors import ConfigurationError
from repro.scenarios import (
    Campaign,
    ScenarioRunner,
    generate_scenario,
)

# One shared campaign run per module: 8 scenarios is enough to exercise
# aggregation and reproducibility without slowing the suite.
SEEDS = range(8)


def make_spec(seed):
    return generate_scenario(seed, pattern="k-random-links", duration=30.0,
                             pattern_params={"window": (8.0, 16.0),
                                             "outage": 6.0})


@pytest.fixture(scope="module")
def campaign_outcome():
    return Campaign.seed_sweep(make_spec, SEEDS, workers=1).run()


class TestCampaignEndToEnd:
    def test_every_scenario_ran(self, campaign_outcome):
        assert campaign_outcome.scenario_count == 8
        assert [r.seed for r in campaign_outcome.results] == list(SEEDS)

    def test_aggregates(self, campaign_outcome):
        assert campaign_outcome.converged_count == 8
        assert 0.5 < campaign_outcome.mean_delivered_fraction <= 1.0
        assert campaign_outcome.mean_convergence_time is not None
        # every injection's recovery was measured
        assert len(campaign_outcome.recovery_times) > 0

    def test_summary_mentions_every_scenario(self, campaign_outcome):
        text = campaign_outcome.summary()
        for seed in SEEDS:
            assert f"seed{seed}" in text
        assert "8 scenarios" in text

    def test_per_seed_rerun_is_bit_for_bit(self, campaign_outcome):
        """The acceptance contract: re-running any scenario by its seed
        reproduces the campaign's result exactly."""
        for seed in (0, 3, 7):
            solo = ScenarioRunner().run(make_spec(seed))
            swept = campaign_outcome.result_for_seed(seed)
            assert solo == swept  # dataclass eq ignores wall_seconds
            assert solo.fingerprint() == swept.fingerprint()

    def test_result_for_missing_seed(self, campaign_outcome):
        with pytest.raises(KeyError):
            campaign_outcome.result_for_seed(999)


class TestParallelCampaign:
    def test_parallel_matches_sequential(self, campaign_outcome):
        """Two worker processes, same fingerprints as in-process runs."""
        parallel = Campaign.seed_sweep(make_spec, SEEDS, workers=2).run()
        assert parallel.workers == 2
        assert parallel.fingerprints() == campaign_outcome.fingerprints()

    def test_results_survive_worker_serialization(self):
        outcome = Campaign.seed_sweep(make_spec, [1, 2], workers=2).run()
        for result in outcome.results:
            assert result.injections  # outcome objects rebuilt
            assert result.events_fired > 0
            assert result.wall_seconds > 0


class TestCampaignConstruction:
    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign([])

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign([make_spec(0)], workers=0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign([make_spec(0), make_spec(0)])


class TestProcessHistoryImmunity:
    def test_seq_counter_does_not_leak_between_simulations(self):
        """The determinism satellite: a scenario's trace must not
        depend on how many simulations ran before it in this process."""
        fresh = ScenarioRunner().run(make_spec(5)).fingerprint()
        # pollute the process with unrelated simulations
        ScenarioRunner().run(make_spec(2))
        ScenarioRunner().run(generate_scenario(4, pattern="flap-storm",
                                               duration=30.0))
        again = ScenarioRunner().run(make_spec(5)).fingerprint()
        assert fresh == again
