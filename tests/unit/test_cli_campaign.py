"""Unit tests: the ``repro campaign`` CLI (run/resume/report/check)
and the SLO surface of ``repro scenario run`` — exit codes,
JSON/JSONL output shapes, and the gate semantics."""

import contextlib
import io
import json
import os

import pytest

from repro import cli

# Thresholds chosen for the default WAN/OSPF k-random-links scenario at
# a 30 s horizon: the fast-timer OSPF control plane converges by the
# horizon, so converged_within=40 always passes and =0.001 always fails.
PASSING_SLO = ["--slo", "converged_within=40",
               "--slo", "min_delivered_fraction=0.5"]
FAILING_SLO = ["--slo", "converged_within=0.001"]
BASE = ["--duration", "30"]


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class TestCampaignRun:
    def test_run_creates_store_files(self, tmp_path):
        store = str(tmp_path / "store")
        code, out = run_cli(["campaign", "run", "--store", store,
                             "--count", "2", "--workers", "1"]
                            + BASE + PASSING_SLO)
        assert code == 0
        assert "2/2 scenario(s) executed" in out
        assert os.path.exists(os.path.join(store, "records.jsonl"))
        assert os.path.exists(os.path.join(store, "index.jsonl"))

    def test_records_are_jsonl_shaped(self, tmp_path):
        store = str(tmp_path / "store")
        run_cli(["campaign", "run", "--store", store, "--count", "2",
                 "--workers", "1"] + BASE + PASSING_SLO)
        with open(os.path.join(store, "records.jsonl")) as handle:
            lines = [line for line in handle.read().splitlines() if line]
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["schema_version"] == 2
            assert set(record) >= {"spec_hash", "seed", "fingerprint",
                                   "spec", "result", "metrics"}
            assert len(record["result"]["slos"]) == 2
            assert record["result"]["diagnostics"]["realloc"]

    def test_run_refuses_nonempty_store(self, tmp_path):
        store = str(tmp_path / "store")
        run_cli(["campaign", "run", "--store", store, "--count", "1",
                 "--workers", "1"] + BASE)
        with pytest.raises(SystemExit, match="resume"):
            cli.main(["campaign", "run", "--store", store, "--count", "1",
                      "--workers", "1"] + BASE)

    def test_resume_completes_remaining(self, tmp_path):
        store = str(tmp_path / "store")
        run_cli(["campaign", "run", "--store", store, "--count", "2",
                 "--workers", "1"] + BASE + PASSING_SLO)
        code, out = run_cli(["campaign", "resume", "--store", store,
                             "--count", "4", "--workers", "1"]
                            + BASE + PASSING_SLO)
        assert code == 0
        assert "2/4 scenario(s) executed (2 already in store" in out

    def test_resume_requires_existing_store(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["campaign", "resume",
                      "--store", str(tmp_path / "absent"),
                      "--count", "1"] + BASE)

    def test_resume_gates_on_persisted_failures(self, tmp_path):
        """A resume whose own scenarios all pass must still exit
        non-zero when the interrupted half persisted SLO failures."""
        store = str(tmp_path / "store")
        # seed 0 fails "seed > 0"; later seeds pass it
        slo = ["--slo", "expr=seed > 0"]
        code, __ = run_cli(["campaign", "run", "--store", store,
                            "--count", "1", "--workers", "1"]
                           + BASE + slo)
        assert code == 1
        code, out = run_cli(["campaign", "resume", "--store", store,
                             "--count", "3", "--workers", "1"]
                            + BASE + slo)
        assert "2/3 scenario(s) executed" in out
        assert code == 1  # the persisted seed-0 failure still gates

    def test_resume_refuses_mismatched_options(self, tmp_path):
        """Resuming with different generator/SLO flags would silently
        re-run everything into the same store — refuse instead."""
        store = str(tmp_path / "store")
        run_cli(["campaign", "run", "--store", store, "--count", "2",
                 "--workers", "1"] + BASE + PASSING_SLO)
        with pytest.raises(SystemExit, match="options differ"):
            cli.main(["campaign", "resume", "--store", store,
                      "--count", "2", "--workers", "1"] + BASE)

    def test_run_json_output(self, tmp_path):
        store = str(tmp_path / "store")
        code, out = run_cli(["campaign", "run", "--store", store,
                             "--count", "2", "--workers", "1", "--json"]
                            + BASE)
        assert code == 0
        payload = json.loads(out)
        assert payload["executed"] == 2
        assert payload["skipped"] == 0
        assert payload["store_path"] == os.path.abspath(store)

    def test_wall_seconds_not_an_slo_metric(self, tmp_path):
        """wall_seconds is non-deterministic; an SLO over it must come
        back as a (deterministic) error verdict, never a value."""
        code, out = run_cli(["scenario", "run", "--seed", "1", "--json",
                             "--slo", "expr=wall_seconds < 1000"] + BASE)
        assert code == 1
        payload = json.loads(out)
        assert payload["slos"][0]["status"] == "error"

    def test_bad_slo_rejected(self, tmp_path):
        for bad in ("nonsense", "converged_within=verymuch",
                    "five_nines=1"):
            with pytest.raises(SystemExit):
                cli.main(["campaign", "run",
                          "--store", str(tmp_path / "s"),
                          "--count", "1", "--slo", bad] + BASE)


class TestCampaignReportAndCheck:
    @pytest.fixture()
    def passing_store(self, tmp_path):
        store = str(tmp_path / "passing")
        run_cli(["campaign", "run", "--store", store, "--count", "2",
                 "--workers", "1"] + BASE + PASSING_SLO)
        return store

    def test_report_shows_rollups_and_slos(self, passing_store):
        code, out = run_cli(["campaign", "report", "--store",
                             passing_store])
        assert code == 0
        assert "2 record(s)" in out
        assert "convergence_time" in out
        assert "p90" in out
        assert "converged_within<=40s" in out
        assert "gate: OK" in out

    def test_report_csv_export(self, passing_store, tmp_path):
        csv_path = str(tmp_path / "out.csv")
        code, out = run_cli(["campaign", "report", "--store",
                             passing_store, "--csv", csv_path])
        assert code == 0
        assert "wrote 2 row(s)" in out
        with open(csv_path) as handle:
            header = handle.readline().strip().split(",")
        assert "fingerprint" in header
        assert "metric.delivered_fraction" in header
        assert any(col.startswith("slo.") for col in header)

    def test_check_passes_clean_store(self, passing_store):
        code, out = run_cli(["campaign", "check", "--store", passing_store])
        assert code == 0
        assert "check OK" in out

    def test_check_fails_on_violated_slo(self, tmp_path):
        store = str(tmp_path / "failing")
        code, out = run_cli(["campaign", "run", "--store", store,
                             "--count", "2", "--workers", "1"]
                            + BASE + FAILING_SLO)
        assert code == 1  # run gates on the store's SLOs
        assert "2 SLO violation(s)" in out
        code, out = run_cli(["campaign", "check", "--store", store])
        assert code == 1
        assert "VIOLATED" in out
        assert "check FAILED" in out

    def test_check_without_slos_is_vacuous(self, tmp_path):
        store = str(tmp_path / "noslo")
        run_cli(["campaign", "run", "--store", store, "--count", "1",
                 "--workers", "1"] + BASE)
        code, out = run_cli(["campaign", "check", "--store", store])
        assert code == 0
        assert "nothing to check" in out

    def test_check_fails_on_empty_store(self, tmp_path):
        """A gate needs evidence: a store the sweep never wrote to
        (or a wrong --store path) must not pass."""
        from repro.results import ResultStore

        store = str(tmp_path / "empty")
        ResultStore(store)  # directory exists, zero records
        code, out = run_cli(["campaign", "check", "--store", store])
        assert code == 1
        assert "no records" in out

    def test_run_with_crashes_exits_nonzero(self, tmp_path, monkeypatch):
        from repro.scenarios import campaign as campaign_mod

        def exploding(spec_dict):
            raise RuntimeError("worker died")

        monkeypatch.setattr(campaign_mod, "run_scenario_dict", exploding)
        store = str(tmp_path / "crashed")
        code, out = run_cli(["campaign", "run", "--store", store,
                             "--count", "2", "--workers", "1"] + BASE)
        assert code == 1
        assert "2 errored" in out
        # the error records ARE persisted (fault isolation)...
        code, __ = run_cli(["campaign", "check", "--store", store])
        assert code == 1  # ...and fail the gate


class TestScenarioSloSurface:
    def test_scenario_run_prints_verdicts_and_passes(self):
        code, out = run_cli(["scenario", "run", "--seed", "3"]
                            + BASE + PASSING_SLO)
        assert code == 0
        assert "SLO converged_within<=40s" in out
        assert "pass" in out

    def test_scenario_run_exit_code_gates_on_slo(self):
        code, out = run_cli(["scenario", "run", "--seed", "3"]
                            + BASE + FAILING_SLO)
        assert code == 1
        assert "fail" in out

    def test_scenario_run_json_carries_verdicts(self):
        code, out = run_cli(["scenario", "run", "--seed", "2", "--json"]
                            + BASE + PASSING_SLO)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 2
        assert [v["status"] for v in payload["slos"]] == ["pass", "pass"]
        assert "realloc" in payload["diagnostics"]
        assert payload["control_messages"] > 0

    def test_spec_file_slos_compose_with_cli(self, tmp_path):
        path = str(tmp_path / "spec.json")
        code, __ = run_cli(["scenario", "run", "--seed", "1",
                            "--save-spec", path] + BASE + PASSING_SLO)
        assert code == 0
        saved = json.loads(open(path).read())
        assert len(saved["slos"]) == 2
        code, out = run_cli(["scenario", "run", "--spec", path]
                            + FAILING_SLO)
        assert code == 1  # 2 from the file pass, the CLI one fails
        assert out.count("SLO ") == 3
