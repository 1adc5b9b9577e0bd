"""Integration: the results subsystem end to end — streaming
persistence, the resume-equivalence acceptance contract, in-run SLO
verdicts in every persisted record, and campaign fault isolation."""

from repro.results import (
    ConvergedWithin,
    MetricExpression,
    MinDeliveredFraction,
    ResultStore,
    aggregate_records,
)
from repro.scenarios import (
    Campaign,
    LinkFail,
    ScenarioRunner,
    ScenarioSpec,
    generate_scenario,
    run_scenario_dict_safe,
)

SEEDS = range(6)


def make_spec(seed):
    spec = generate_scenario(seed, pattern="k-random-links", duration=30.0,
                             pattern_params={"window": (8.0, 16.0),
                                             "outage": 6.0})
    spec.slos = [
        ConvergedWithin(seconds=40.0),
        MinDeliveredFraction(fraction=0.5),
        MetricExpression(expression="recomputations < 100000"),
    ]
    return spec


def broken_spec(seed):
    """Validates fine, dies at materialization: the WAN has no
    'atlantis' router, so scheduling the injection raises mid-run."""
    spec = make_spec(seed)
    spec.injections = [LinkFail(at=10.0, node_a="atlantis",
                                node_b="chicago")]
    return spec


class TestResumeEquivalence:
    """The acceptance criterion: interrupted + resumed == uninterrupted,
    bit for bit."""

    def test_interrupted_then_resumed_matches_uninterrupted(self, tmp_path):
        # Uninterrupted reference sweep.
        full_store = ResultStore(str(tmp_path / "full"))
        Campaign.seed_sweep(make_spec, SEEDS, workers=2).run(
            store=full_store)

        # "Killed" sweep: only the first half ran before the crash.
        part_store = ResultStore(str(tmp_path / "part"))
        stats = Campaign.seed_sweep(make_spec, list(SEEDS)[:3],
                                    workers=2).run(store=part_store)
        assert stats.executed == 3 and stats.skipped == 0

        # Resume with the same store (fresh handle, like a new process):
        # only the remaining (spec, seed) pairs run.
        resumed_store = ResultStore(str(tmp_path / "part"))
        stats = Campaign.seed_sweep(make_spec, SEEDS, workers=2).run(
            store=resumed_store)
        assert stats.skipped == 3
        assert stats.executed == 3
        assert stats.total == 6

        # Same fingerprints, same SLO verdicts, record for record.
        assert dict(resumed_store.fingerprints()) == dict(
            full_store.fingerprints())
        full = {record["seed"]: record for record in
                full_store.iter_records()}
        resumed = {record["seed"]: record for record in
                   resumed_store.iter_records()}
        assert set(full) == set(resumed) == set(SEEDS)
        def deterministic(result):
            return {k: v for k, v in result.items()
                    if k not in ("wall_seconds", "diagnostics")}

        for seed in SEEDS:
            assert (resumed[seed]["result"]["slos"]
                    == full[seed]["result"]["slos"])
            assert (deterministic(resumed[seed]["result"])
                    == deterministic(full[seed]["result"]))

    def test_rerun_of_complete_store_is_a_noop(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        Campaign.seed_sweep(make_spec, [0, 1], workers=1).run(store=store)
        stats = Campaign.seed_sweep(make_spec, [0, 1], workers=1).run(
            store=ResultStore(str(tmp_path / "store")))
        assert stats.executed == 0
        assert stats.skipped == 2

    def test_changed_spec_is_not_skipped(self, tmp_path):
        """Resume keys on the spec *content*: edit anything (here an
        SLO threshold) and the pair reruns instead of being skipped."""
        store = ResultStore(str(tmp_path / "store"))
        Campaign.seed_sweep(make_spec, [0], workers=1).run(store=store)

        def edited(seed):
            spec = make_spec(seed)
            spec.slos[0].seconds = 35.0
            return spec

        stats = Campaign.seed_sweep(edited, [0], workers=1).run(
            store=ResultStore(str(tmp_path / "store")))
        assert stats.executed == 1 and stats.skipped == 0
        assert len(ResultStore(str(tmp_path / "store"))) == 2


class TestVerdictsInRecords:
    def test_every_record_carries_verdicts(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        Campaign.seed_sweep(make_spec, [0, 1], workers=1).run(store=store)
        for record in store.iter_records():
            verdicts = record["result"]["slos"]
            assert len(verdicts) == 3
            statuses = {verdict["status"] for verdict in verdicts}
            assert statuses <= {"pass", "fail"}

    def test_verdicts_are_fingerprint_covered(self):
        """Same scenario, tighter SLO -> different verdict -> different
        fingerprint: a gate regression is visible as a changed result."""
        loose = ScenarioRunner().run(make_spec(0))

        def tighter(seed):
            spec = make_spec(seed)
            spec.slos[1] = MinDeliveredFraction(fraction=0.9999)
            return spec

        tight = ScenarioRunner().run(tighter(0))
        assert loose.fingerprint() != tight.fingerprint()

    def test_diagnostics_not_fingerprint_covered(self):
        """Engine internals must not perturb the reproducibility
        ledger: full vs incremental reallocation differs wildly in
        diagnostics but fingerprints identically."""
        class FullRecomputeRunner(ScenarioRunner):
            def materialize(self, spec):
                exp, outcomes = super().materialize(spec)
                exp.network.incremental_realloc = False
                return exp, outcomes

        incremental = ScenarioRunner().run(make_spec(1))
        full = FullRecomputeRunner().run(make_spec(1))
        assert incremental.diagnostics != full.diagnostics
        assert incremental.fingerprint() == full.fingerprint()

    def test_realloc_stats_in_diagnostics(self):
        result = ScenarioRunner().run(make_spec(0))
        stats = result.diagnostics["realloc"]
        for key in ("cached_paths", "full_recomputes",
                    "incremental_recomputes", "flows_walked",
                    "components_solved", "flows_solved"):
            assert key in stats
        assert stats["incremental_recomputes"] > 0


class TestFaultIsolation:
    def test_safe_worker_returns_error_result(self):
        raw = run_scenario_dict_safe(broken_spec(0).to_dict())
        assert raw["diagnostics"]["error"]
        assert "atlantis" in raw["diagnostics"]["error"]
        assert [verdict["status"] for verdict in raw["slos"]] == ["error"] * 3

    def test_retry_errors_supersedes_failed_record(self, tmp_path,
                                                   monkeypatch):
        """A transiently-failed scenario is not stuck forever: resume
        with retry_errors re-runs the same (spec, seed) pair and the
        healthy result supersedes the error record, turning the gate
        green."""
        from repro.scenarios import campaign as campaign_mod

        # Simulate a transient worker fault: seed 1 dies this run only.
        real_worker = campaign_mod.run_scenario_dict

        def flaky_worker(spec_dict):
            if spec_dict["seed"] == 1:
                raise RuntimeError("transient env failure")
            return real_worker(spec_dict)

        monkeypatch.setattr(campaign_mod, "run_scenario_dict",
                            flaky_worker)
        store = ResultStore(str(tmp_path / "store"))
        Campaign.seed_sweep(make_spec, [0, 1], workers=1).run(store=store)
        assert sum(map(store.has_error, store.keys())) == 1
        assert not aggregate_records(store.iter_records()).gate_ok
        monkeypatch.setattr(campaign_mod, "run_scenario_dict",
                            real_worker)

        # Plain resume skips the errored pair (same spec hash)...
        stats = Campaign.seed_sweep(make_spec, [0, 1], workers=1).run(
            store=ResultStore(str(tmp_path / "store")))
        assert stats.executed == 0 and stats.skipped == 2
        # ...retry_errors re-runs exactly it, now that the fault is gone.
        stats = Campaign.seed_sweep(make_spec, [0, 1], workers=1).run(
            store=ResultStore(str(tmp_path / "store")),
            retry_errors=True)
        assert stats.executed == 1 and stats.skipped == 1

        healed = ResultStore(str(tmp_path / "store"))
        assert len(healed) == 2
        assert not any(map(healed.has_error, healed.keys()))
        assert aggregate_records(healed.iter_records()).gate_ok
        # the retried record is bit-for-bit the normal seed-1 result
        solo = ScenarioRunner().run(make_spec(1))
        fps = {key[1]: fp for key, fp in healed.fingerprints().items()}
        assert fps[1] == solo.fingerprint()

    def test_campaign_survives_a_poison_scenario(self, tmp_path):
        def mixed(seed):
            return broken_spec(seed) if seed == 1 else make_spec(seed)

        store = ResultStore(str(tmp_path / "store"))
        stats = Campaign.seed_sweep(mixed, [0, 1, 2], workers=2).run(
            store=store)
        assert stats.executed == 3
        assert stats.failed == 1
        assert stats.slo_failures == 3  # the three error verdicts
        records = {record["seed"]: record for record in store.iter_records()}
        assert set(records) == {0, 1, 2}
        assert records[1]["result"]["diagnostics"]["error"]
        assert records[0]["metrics"]["converged"] is True
        # the poisoned record fails the gate
        aggregate = aggregate_records(store.iter_records())
        assert not aggregate.gate_ok
        assert aggregate.errors == 1

    def test_undeserializable_spec_still_isolated(self):
        raw = run_scenario_dict_safe({"name": "junk", "seed": 9})
        assert raw["seed"] == 9
        assert raw["diagnostics"]["error"]

    def test_error_results_fingerprint_deterministically(self):
        """Two identical failures must compare equal and fingerprint
        identically (the exception text lives only in the
        fingerprint-excluded diagnostics)."""
        from repro.scenarios import ScenarioResult, error_result

        spec = broken_spec(0)
        first = ScenarioResult.from_dict(
            run_scenario_dict_safe(spec.to_dict()))
        second = ScenarioResult.from_dict(
            run_scenario_dict_safe(spec.to_dict()))
        assert first == second
        assert first.fingerprint() == second.fingerprint()
        # even a message carrying a memory address can't perturb it
        weird = error_result(spec, "cannot do <Weird at 0x7f2cc4764390>")
        assert weird.fingerprint() == error_result(
            spec, "cannot do <Weird at 0x7f0000000000>").fingerprint()
