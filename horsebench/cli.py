"""horsebench's command line: generate, run in a child, check, report.

Two ways in, one measurement underneath (:func:`measure`):

* ``--workload NAME --seed N --seconds S --trace 0|1`` -- one run of one
  workload; the last stdout line is the JSON result object the
  benchmark driver reads (end-to-end metrics untraced, per-layer metrics
  traced).
* no ``--trace`` -- the report for people: every selected workload for
  ``--rounds`` rounds, *round-robin* so a noise burst is spread over all
  workloads and rejected by the median instead of sinking one, each
  round in a fresh child; then one traced pass per workload with the
  layer table.  ``--selfcheck`` runs two such sets back to back (A/A)
  and fails when they disagree by more than a metric's bound.

Exit status is non-zero when any output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from horsebench.metrics import END_TO_END, PER_LAYER, layer_metrics
from horsebench.workloads import WORKLOADS, build_input, twin_input

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(PACKAGE_DIR)
RESULTS_DIR = os.path.join(PACKAGE_DIR, "results")

#: Measurement window per run when ``--seconds`` is not given.
DEFAULT_SECONDS = 10.0
#: A child that has not answered by now is killed (contract: 180 s).
CHILD_TIMEOUT_S = 170
#: A repetition whose wall exceeds its CPU time by this share waited on
#: something else (another process, the disk): flagged, not dropped.
DISTURBED_SHARE = 0.05


def run_child(job):
    """Run one job in a fresh interpreter; returns its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT_DIR, "src"), ROOT_DIR]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # String hashing feeds set order; pin it so two runs of one seed do
    # the same work in the same order.
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(
        [sys.executable, "-m", "horsebench.child"],
        input=json.dumps(job), stdout=subprocess.PIPE, text=True,
        cwd=ROOT_DIR, env=env, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(
            f"measured child exited with status {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def make_job(name, seed, workdir, seconds=DEFAULT_SECONDS, reps=None,
             trace=False, small=False):
    """The job a child runs for workload ``name``: inputs generated
    from ``seed`` here, in the parent."""
    return {
        "kind": WORKLOADS[name][0],
        "input": build_input(name, seed, small=small),
        "warm": build_input(name, seed, small=True),
        "twin": twin_input(name, seed, small=small),
        "seconds": seconds, "reps": reps, "trace": trace,
        "workdir": workdir,
    }


def measure(name, seed, seconds=DEFAULT_SECONDS, reps=None, trace=False,
            small=False):
    """One run of workload ``name`` in a fresh child, output check
    included.  Returns the summary dict (see :func:`summarise`); a
    traced run also leaves its layer table and Chrome trace in
    ``results/``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS_DIR)
    job = make_job(name, seed, workdir, seconds, reps, trace, small)
    if trace:
        job["chrome_trace"] = os.path.join(
            RESULTS_DIR, f"{name}.trace.json")
    try:
        summary = summarise(run_child(job), trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        with open(os.path.join(RESULTS_DIR, f"{name}.layers.json"),
                  "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "seed": seed,
                       "body_wall_s": summary["traced_wall_s"],
                       "table": summary["table"],
                       "metrics": summary["metrics"]}, handle, indent=1)
            handle.write("\n")
    return summary


def summarise(report, trace):
    """Check a child's report and reduce it to metrics.

    ``attempted`` counts every scenario of every repetition (the twin
    too); one is ``failed`` when its own check found a violation or its
    fingerprint differs from the first repetition's -- repetitions,
    traced or not, must all compute the same thing.
    """
    reps = report["reps"] + report.get("traced_reps", [])
    reference = [row["fingerprint"] for row in reps[0]["scenarios"]]
    problems = []
    attempted = failed = 0
    twin = report.get("twin")
    for label, rep in ([(f"rep {i}", rep) for i, rep in enumerate(reps)]
                       + ([("concrete twin", twin)] if twin else [])):
        for index, row in enumerate(rep["scenarios"]):
            attempted += 1
            broken = list(row["violations"])
            if index >= len(reference) or \
                    row["fingerprint"] != reference[index]:
                broken.append("fingerprint differs from the first "
                              "repetition's")
            if broken:
                failed += 1
                problems.append(f"{label}: {row['name']}: "
                                + "; ".join(broken))
    digest = hashlib.sha256(
        "\n".join(reference + [reps[0]["store_digest"]]).encode()
    ).hexdigest()[:16]
    untraced = report["reps"]
    summary = {
        "attempted": attempted, "failed": failed, "problems": problems,
        "sim_digest": digest,
        "reps": len(untraced),
        "disturbed": sum(
            1 for rep in untraced
            if rep["wall_s"] - rep["cpu_s"] > DISTURBED_SHARE * rep["wall_s"]),
        "cpu_s": sum(rep["cpu_s"] for rep in untraced),
        "raw_wall_s_per_sim_s": statistics.median(
            rep["wall_s"] / rep["sim_seconds"] for rep in untraced),
        "slowdown": statistics.median(
            rep["slowdown"] for rep in untraced),
    }
    # Every reported time is at reference machine speed: the wall of a
    # repetition over the slowdown the probes around it measured.
    wall = statistics.median(
        rep["wall_s"] / rep["slowdown"] for rep in untraced)
    if trace:
        traced = sorted(report["traced_reps"],
                        key=lambda rep: rep["wall_s"] / rep["slowdown"])
        middle = traced[(len(traced) - 1) // 2]
        summary["traced_wall_s"] = middle["wall_s"]
        summary["table"] = middle["table"]
        summary["metrics"] = layer_metrics(
            middle, wall, summary["raw_wall_s_per_sim_s"])
    else:
        summary["metrics"] = {
            "wall_s_per_sim_s": statistics.median(
                rep["wall_s"] / rep["slowdown"] / rep["sim_seconds"]
                for rep in untraced),
            "setup_s": statistics.median(
                wall_s / slowdown for wall_s, slowdown in report["setup"]),
            "peak_rss_mb": report["peak_rss_mb"],
        }
    return summary


def result_line(summary, trace):
    """The JSON object the benchmark driver reads off the last line."""
    units = {name: unit for name, unit, *_ in
             (PER_LAYER if trace else END_TO_END)}
    return json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    })


# -- the report for people --------------------------------------------------

def run_set(names, seed, seconds, rounds, reps, small):
    """``rounds`` untraced runs of every workload, round-robin."""
    runs = {name: [] for name in names}
    for number in range(rounds):
        for name in names:
            summary = measure(name, seed, seconds, reps, small=small)
            runs[name].append(summary)
            print(f"  round {number + 1}/{rounds} {name:<16} "
                  f"{summary['metrics']['wall_s_per_sim_s']:.6g} s/s "
                  f"(clock {summary['raw_wall_s_per_sim_s']:.6g}, machine "
                  f"x{summary['slowdown']:.2f}) over {summary['reps']} reps"
                  + (f", {summary['disturbed']} disturbed"
                     if summary["disturbed"] else ""), flush=True)
    return runs


def medians(runs):
    """workload -> end-to-end metric -> median over its rounds."""
    return {name: {metric: statistics.median(
                       summary["metrics"][metric] for summary in summaries)
                   for metric, *_ in END_TO_END}
            for name, summaries in runs.items()}


def problems_of(runs):
    """Every failed output check of a set, plus digests that differ
    between rounds (cross-process determinism)."""
    found = []
    for name, summaries in runs.items():
        found.extend(f"{name}: {problem}" for summary in summaries
                     for problem in summary["problems"])
        if len({summary["sim_digest"] for summary in summaries}) > 1:
            found.append(f"{name}: sim_digest differs between rounds")
    return found


def print_end_to_end(runs):
    for name, summaries in runs.items():
        print(f"\n{name}  sim_digest {summaries[0]['sim_digest']}  "
              f"{sum(s['reps'] for s in summaries)} reps in "
              f"{len(summaries)} round(s), child cpu "
              f"{sum(s['cpu_s'] for s in summaries):.1f} s")
        for metric, unit, _, bound in END_TO_END:
            values = [s["metrics"][metric] for s in summaries]
            print(f"  {metric:<20} {statistics.median(values):>12.6g} "
                  f"{unit:<4} min {min(values):.6g} max {max(values):.6g} "
                  f"(bound {bound:.0%})")
        attempted = sum(s["attempted"] for s in summaries)
        failed = sum(s["failed"] for s in summaries)
        print(f"  {'failed_frac':<20} {failed / attempted:>12.6g}      "
              f"{failed} of {attempted} scenarios")


def print_layers(name, summary):
    metrics = summary["metrics"]
    print(f"\n{name}  traced body {summary['traced_wall_s']:.3f} s, "
          f"overhead {metrics['trace_overhead_frac']:+.1%}, "
          f"unattributed {metrics['unattributed_frac']:.2%}")
    print(f"  {'frame':<34} {'count':>8} {'inclusive_s':>12} "
          f"{'self_s':>10} {'share':>7}")
    for row in summary["table"]:
        print(f"  {row['name']:<34} {row['count']:>8} "
              f"{row['inclusive_s']:>12.4f} {row['self_s']:>10.4f} "
              f"{row['share']:>7.1%}")
    for metric, unit, _ in PER_LAYER:
        if metrics[metric]:
            print(f"  {metric:<38} {metrics[metric]:>14.6g} {unit}")


def selfcheck(names, seed, seconds, rounds, reps, small):
    """A/A: two complete sets of the same code; the recorded noise
    floor is how far their medians sit apart."""
    print("set A")
    set_a = run_set(names, seed, seconds, rounds, reps, small)
    print("set B")
    set_b = run_set(names, seed, seconds, rounds, reps, small)
    first, second = medians(set_a), medians(set_b)
    problems = problems_of(set_a) + problems_of(set_b)
    spread = {}
    print(f"\n{'workload':<16} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'B/A-1':>8} {'bound':>6}")
    for name in names:
        if set_a[name][0]["sim_digest"] != set_b[name][0]["sim_digest"]:
            problems.append(f"{name}: sim_digest differs between sets")
        spread[name] = {}
        for metric, _, _, bound in END_TO_END:
            a, b = first[name][metric], second[name][metric]
            spread[name][metric] = b / a - 1.0
            verdict = "" if abs(b / a - 1.0) <= bound else "  BEYOND BOUND"
            if verdict:
                problems.append(f"{name}: {metric} differs by "
                                f"{b / a - 1.0:+.1%} between sets")
            print(f"{name:<16} {metric:<18} {a:>12.6g} {b:>12.6g} "
                  f"{b / a - 1.0:>+8.1%} {bound:>6.0%}{verdict}")
    path = os.path.join(RESULTS_DIR, "selfcheck.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "seed": seed, "seconds": seconds, "rounds": rounds,
            "small": small,
            "sim_digest": {n: set_a[n][0]["sim_digest"] for n in names},
            "baseline": first, "second_set": second,
            "noise_floor": spread,
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m horsebench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement window of one run")
    parser.add_argument("--reps", type=int,
                        help="exactly N repetitions instead of a window")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: one run, JSON result line; "
                             "1 = traced (per-layer metrics)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="report mode: fresh-child runs per workload")
    parser.add_argument("--no-trace", action="store_true",
                        help="report mode: skip the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="k=4 sizes (what the smoke tests run)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="A/A: two sets, fail beyond a metric's bound")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)

    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        summary = measure(args.workload, args.seed, args.seconds,
                          args.reps, trace=bool(args.trace),
                          small=args.smoke)
        for problem in summary["problems"]:
            print(problem, file=sys.stderr)
        print(result_line(summary, bool(args.trace)))
        return 0 if summary["failed"] == 0 else 1

    if args.selfcheck:
        problems = selfcheck(names, args.seed, args.seconds, args.rounds,
                             args.reps, args.smoke)
    else:
        runs = run_set(names, args.seed, args.seconds, args.rounds,
                       args.reps, args.smoke)
        problems = problems_of(runs)
        print_end_to_end(runs)
        if not args.no_trace:
            for name in names:
                summary = measure(name, args.seed, args.seconds, args.reps,
                                  trace=True, small=args.smoke)
                problems.extend(f"{name}: {p}" for p in summary["problems"])
                if summary["sim_digest"] != runs[name][0]["sim_digest"]:
                    problems.append(
                        f"{name}: traced sim_digest differs from untraced")
                print_layers(name, summary)
            print(f"\nlayer tables and Chrome traces: {RESULTS_DIR}")
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0
