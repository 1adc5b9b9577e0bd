"""Unit tests: the ``repro search`` CLI (run/resume/report) — output
shapes, the save-worst replay loop, exit codes, and the new family
options on the scenario/campaign surface."""

import contextlib
import io
import json
import os

import pytest

from repro import cli

BASE = ["--budget", "4", "--population", "2", "--elites", "1",
        "--pattern", "flap-storm", "--duration", "25", "--seed", "0"]


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class TestSearchRun:
    def test_run_prints_leaderboard_and_digest(self, tmp_path):
        store = str(tmp_path / "hunt")
        code, out = run_cli(["search", "run", "--store", store] + BASE)
        assert code == 0
        assert "4 scenario(s) evaluated over 2 generation(s)" in out
        assert "adversarial search leaderboard" in out
        assert "digest" in out
        assert os.path.exists(os.path.join(store, "records.jsonl"))

    def test_save_worst_replays_via_scenario_run(self, tmp_path):
        store = str(tmp_path / "hunt")
        worst = str(tmp_path / "worst.json")
        code, out = run_cli(["search", "run", "--store", store,
                             "--save-worst", worst] + BASE)
        assert code == 0
        assert "repro scenario run --spec" in out
        spec = json.loads(open(worst).read())
        assert spec["name"].startswith("flap-storm-g")
        code, out = run_cli(["scenario", "run", "--spec", worst])
        assert code == 0
        assert spec["name"] in out

    def test_json_output(self, tmp_path):
        store = str(tmp_path / "hunt")
        code, out = run_cli(["search", "run", "--store", store, "--json"]
                            + BASE)
        assert code == 0
        payload = json.loads(out)
        assert payload["stats"]["evaluated"] == 4
        assert len(payload["leaderboard"]) == 4
        assert payload["leaderboard"][0]["rank"] == 1
        assert payload["config"]["family"] == "flap-storm"
        assert payload["digest"]

    def test_rerun_resumes_and_report_matches(self, tmp_path):
        store = str(tmp_path / "hunt")
        __, first = run_cli(["search", "run", "--store", store, "--json"]
                            + BASE)
        code, again = run_cli(["search", "run", "--store", store,
                               "--json"] + BASE)
        assert code == 0
        assert json.loads(again)["stats"]["skipped"] == 4
        assert json.loads(again)["digest"] == json.loads(first)["digest"]
        code, report = run_cli(["search", "report", "--store", store,
                                "--json"])
        assert code == 0
        assert json.loads(report)["digest"] == json.loads(first)["digest"]

    def test_mismatched_config_refused(self, tmp_path):
        store = str(tmp_path / "hunt")
        run_cli(["search", "run", "--store", store] + BASE)
        with pytest.raises(SystemExit, match="different search"):
            cli.main(["search", "run", "--store", store, "--budget", "4",
                      "--population", "2", "--elites", "1",
                      "--pattern", "flap-storm", "--duration", "25",
                      "--seed", "7"])

    def test_all_errored_search_exits_nonzero(self, tmp_path, monkeypatch):
        from repro.scenarios import campaign as campaign_mod

        def exploding(spec_dict):
            raise RuntimeError("worker died")

        monkeypatch.setattr(campaign_mod, "run_scenario_dict", exploding)
        store = str(tmp_path / "hunt")
        code, out = run_cli(["search", "run", "--store", store,
                             "--workers", "1"] + BASE)
        assert code == 1
        assert "no healthy candidate" in out


class TestSearchResumeReport:
    def test_resume_uses_persisted_config(self, tmp_path):
        store = str(tmp_path / "hunt")
        __, first = run_cli(["search", "run", "--store", store, "--json"]
                            + BASE)
        code, out = run_cli(["search", "resume", "--store", store,
                             "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["stats"]["skipped"] == 4
        assert payload["digest"] == json.loads(first)["digest"]

    def test_resume_without_search_store_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["search", "resume",
                      "--store", str(tmp_path / "absent")])

    def test_report_needs_search_metadata(self, tmp_path):
        from repro.results import ResultStore

        plain = str(tmp_path / "plain")
        ResultStore(plain)
        with pytest.raises(SystemExit, match="no search metadata"):
            cli.main(["search", "report", "--store", plain])

    def test_report_top_truncates(self, tmp_path):
        store = str(tmp_path / "hunt")
        run_cli(["search", "run", "--store", store] + BASE)
        code, out = run_cli(["search", "report", "--store", store,
                             "--top", "2"])
        assert code == 0
        assert "... 2 more" in out


class TestFamilyOptionsOnScenarioSurface:
    def test_scenario_run_srlg_pattern(self):
        code, out = run_cli(["scenario", "run", "--seed", "1",
                             "--pattern", "srlg",
                             "--pattern-param", "groups=2",
                             "--duration", "30"])
        assert code == 0
        assert "link-fail" in out

    def test_scenario_run_traffic_family(self):
        code, out = run_cli(["scenario", "run", "--seed", "1",
                             "--traffic-family", "hotspot",
                             "--duration", "30"])
        assert code == 0

    def test_traffic_param_may_override_matrix_defaults(self):
        """duration/seed are overridable matrix tunables, not a
        TypeError: the --traffic-param help invites them."""
        code, __ = run_cli(["scenario", "run", "--seed", "1",
                            "--traffic-family", "uniform",
                            "--traffic-param", "duration=10",
                            "--traffic-param", "seed=5",
                            "--duration", "30"])
        assert code == 0

    def test_traffic_param_cannot_hijack_family(self):
        from repro.core.errors import ConfigurationError
        from repro.scenarios import generate_scenario

        with pytest.raises(ConfigurationError, match="family"):
            generate_scenario(0, traffic_family="uniform",
                              traffic_params={"family": "hotspot"})
