"""Integration: end-to-end campaigns — fan-out into a store, the
store's aggregates and the bit-for-bit per-seed reproducibility
contract."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.core.errors import ConfigurationError
from repro.results import ResultStore
from repro.scenarios import (
    Campaign,
    ProtocolRecipe,
    ScenarioResult,
    ScenarioRunner,
    TopologyRecipe,
    generate_scenario,
    result_fingerprint,
    run_scenario_dict,
)
from repro.scenarios.spec import PROTOCOL_KINDS

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

# One shared campaign run per module: 8 scenarios is enough to exercise
# aggregation and reproducibility without slowing the suite.
SEEDS = range(8)


def make_spec(seed):
    return generate_scenario(seed, pattern="k-random-links", duration=30.0,
                             pattern_params={"window": (8.0, 16.0),
                                             "outage": 6.0})


def run_into_store(path, seeds, workers):
    store = ResultStore(str(path))
    Campaign.seed_sweep(make_spec, seeds, workers=workers).run(store)
    return store


def record_for(store, seed):
    spec = make_spec(seed)
    return store.get(spec.spec_hash(), seed)


@pytest.fixture(scope="module")
def campaign_store(tmp_path_factory):
    return run_into_store(tmp_path_factory.mktemp("campaign") / "store",
                          SEEDS, workers=1)


class TestCampaignEndToEnd:
    def test_every_scenario_ran(self, campaign_store):
        assert len(campaign_store) == 8
        assert ([record["seed"] for record in campaign_store.iter_records()]
                == list(SEEDS))

    def test_aggregates(self, campaign_store):
        aggregate = campaign_store.aggregate()
        assert aggregate.converged == 8
        delivered = aggregate.metric_rollups["delivered_fraction"].stats()
        assert 0.5 < delivered["mean"] <= 1.0
        assert aggregate.metric_rollups["convergence_time"].stats()
        # every injection's recovery was measured
        assert aggregate.metric_rollups["max_recovery_seconds"].stats()

    def test_per_seed_rerun_is_bit_for_bit(self, campaign_store):
        """The acceptance contract: re-running any scenario by its seed
        reproduces the campaign's result exactly."""
        for seed in (0, 3, 7):
            solo = ScenarioRunner().run(make_spec(seed))
            swept = ScenarioResult.from_dict(
                record_for(campaign_store, seed)["result"])
            assert solo == swept  # dataclass eq ignores wall_seconds
            assert solo.fingerprint() == swept.fingerprint()


class TestParallelCampaign:
    def test_parallel_matches_sequential(self, campaign_store, tmp_path):
        """Two worker processes, same records as in-process runs."""
        parallel = run_into_store(tmp_path / "parallel", SEEDS, workers=2)
        assert parallel.fingerprints() == campaign_store.fingerprints()
        assert (parallel.canonical_digest()
                == campaign_store.canonical_digest())

    def test_results_survive_worker_serialization(self, tmp_path):
        store = run_into_store(tmp_path / "store", [1, 2], workers=2)
        for seed in (1, 2):
            result = ScenarioResult.from_dict(
                record_for(store, seed)["result"])
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


def protocol_spec(kind):
    """A small k=4 fat-tree scenario under control plane ``kind``."""
    params = {"k": 4}
    if kind in ("static", "bgp", "ospf"):
        params["device"] = "router"
    return generate_scenario(
        1, topology=TopologyRecipe("fattree", params),
        protocol=ProtocolRecipe(kind), duration=20.0,
        pattern_params={"window": (5.0, 10.0), "outage": 4.0})


def pollute_process():
    """Run unrelated simulations in this process."""
    ScenarioRunner().run(make_spec(2))
    ScenarioRunner().run(generate_scenario(4, pattern="flap-storm",
                                           duration=30.0))


def fingerprint_in_child(spec_dict):
    return result_fingerprint(run_scenario_dict(spec_dict))


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
class TestProcessHistoryImmunity:
    """A fingerprint is a function of the spec alone: not of what ran
    before it in the process, nor of which process runs it.  The pool
    relies on this for every control plane."""

    def test_seq_counter_does_not_leak_between_simulations(self, kind):
        fresh = ScenarioRunner().run(protocol_spec(kind)).fingerprint()
        pollute_process()
        again = ScenarioRunner().run(protocol_spec(kind)).fingerprint()
        assert fresh == again

    def test_fresh_interpreter_agrees(self, kind, tmp_path):
        spec = protocol_spec(kind)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "scenario", "run",
             "--spec", str(path), "--json"],
            capture_output=True, text=True, env=env, check=False,
            timeout=120)
        assert done.returncode == 0, done.stderr
        fingerprint = result_fingerprint(json.loads(done.stdout))
        assert fingerprint == ScenarioRunner().run(spec).fingerprint()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="no fork start method on this platform")
    def test_forked_child_agrees(self, kind):
        spec = protocol_spec(kind)
        pollute_process()  # the child inherits this history
        with multiprocessing.get_context("fork").Pool(1) as pool:
            forked = pool.apply_async(fingerprint_in_child,
                                      (spec.to_dict(),)).get(timeout=60)
        assert forked == ScenarioRunner().run(spec).fingerprint()
