"""Smoke tests of the benchmark harness itself, at k=4 sizes.

They run the measured body in-process (``child.run_job``) so the whole
file stays within a few seconds; one test goes through the real command
line and a real child.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from horsebench import child, cli, metrics, workloads
from repro.scenarios import ScenarioSpec, error_result

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(name, workdir, seed=1, trace=False, reps=1, **changes):
    job = cli.make_job(name, seed, str(workdir), reps=reps, trace=trace,
                       small=True)
    job.update(changes)
    return cli.summarise(child.run_job(job), trace)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Seed-1 summaries, each measured once: ``runs(name, trace)``."""
    workdir = tmp_path_factory.mktemp("horsebench")
    done = {}

    def get(name, trace):
        if (name, trace) not in done:
            done[name, trace] = run(name, workdir, trace=trace)
        return done[name, trace]

    return get


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric_and_its_budget_adds_up(name, runs):
    untraced = runs(name, False)
    assert untraced["failed"] == 0, untraced["problems"]
    assert untraced["attempted"] >= 1
    assert set(untraced["metrics"]) == {m[0] for m in metrics.END_TO_END}
    assert all(value > 0 for value in untraced["metrics"].values())

    traced = runs(name, True)
    # Tracing moved no fingerprint (summarise compares every repetition,
    # traced or not, with the first), and it is the same simulation a
    # separate untraced run computes.
    assert traced["failed"] == 0, traced["problems"]
    assert traced["sim_digest"] == untraced["sim_digest"]
    assert set(traced["metrics"]) == {m[0] for m in metrics.PER_LAYER}

    # Self times partition the body wall ...
    body_wall = traced["traced_wall_s"]
    self_total = sum(row["self_s"] for row in traced["table"])
    assert self_total == pytest.approx(body_wall, rel=0.02)
    # ... and so do the *_s metrics (reported at reference machine
    # speed) plus the unattributed remainder.
    layer = traced["metrics"]
    budget = (sum(layer[name] for name in metrics.TIME_METRICS)
              * layer["machine_slowdown"]
              + layer["unattributed_frac"] * body_wall)
    assert budget == pytest.approx(body_wall, rel=0.02)
    assert layer["unattributed_frac"] <= 0.05
    assert layer["core.events"] > 0


def test_layers_separate_the_workloads(runs):
    """Each control plane's busy time shows on its own workload only."""
    layers = {name: runs(name, True)["metrics"]
              for name in workloads.WORKLOADS}
    owners = {"bgp.busy_s": {"bgp_fattree"},
              "ospf.busy_s": {"ospf_fattree", "campaign_sweep"},
              "openflow.busy_s": {"sdn_hedera"},
              "symmetry.busy_s": {"symmetry_orbit"},
              "results.append_s": {"campaign_sweep"}}
    for metric, expected in owners.items():
        assert {name for name, layer in layers.items()
                if layer[metric] > 0} == expected, metric
    assert layers["dataplane_churn"]["core.cm_deliveries"] == 0
    assert layers["symmetry_orbit"]["symmetry.fast_recomputes"] > 0


def test_seed_pins_the_inputs_and_the_digest(runs, tmp_path):
    for name in workloads.WORKLOADS:
        assert (workloads.build_input(name, 7)
                == workloads.build_input(name, 7)), name
        assert (workloads.build_input(name, 7)
                != workloads.build_input(name, 8)), name
    again = run("dataplane_churn", tmp_path)
    other = run("dataplane_churn", tmp_path, seed=2)
    assert again["sim_digest"] == runs("dataplane_churn", False)["sim_digest"]
    assert again["sim_digest"] != other["sim_digest"]


def test_failing_scenarios_are_counted_not_hidden(tmp_path):
    # No BGP session comes up in ten simulated milliseconds.
    spec = workloads.bgp_fattree(1, small=True)
    spec.duration, spec.injections = 0.01, []
    spec.traffic.start_time, spec.traffic.duration = 0.0, 0.005
    summary = run("bgp_fattree", tmp_path, input={"spec": spec.to_dict()})
    assert summary["failed"] == summary["attempted"] >= 1
    assert "did not converge" in summary["problems"][0]
    assert json.loads(cli.result_line(summary, False))["correct"] is False

    crashed = error_result(ScenarioSpec(name="boom"), "ValueError: boom")
    assert child.violations(crashed.to_dict()) == [
        "error: ValueError: boom"]


def test_nondeterminism_between_repetitions_fails(tmp_path):
    job = cli.make_job("dataplane_churn", 1, str(tmp_path), reps=2,
                       small=True)
    report = child.run_job(job)
    report["reps"][1]["scenarios"][0]["fingerprint"] = "0" * 16
    summary = cli.summarise(report, False)
    assert summary["failed"] == 1
    assert "fingerprint differs" in summary["problems"][0]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(cli.ROOT_DIR, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == metrics.manifest(committed["run_seconds"])
    names = ([w["name"] for w in committed["workloads"]]
             + [m["name"] for m in committed["end_to_end"]]
             + [m["name"] for m in committed["per_layer"]])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in names


def test_command_line_prints_the_result_object_last():
    done = subprocess.run(
        [sys.executable, "-m", "horsebench", "--workload", "sdn_hedera",
         "--seed", "5", "--reps", "1", "--trace", "0", "--smoke"],
        cwd=cli.ROOT_DIR, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m[0] for m in metrics.END_TO_END}
    for name, unit, _, _ in metrics.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
