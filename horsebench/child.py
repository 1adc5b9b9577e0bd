"""The measured process: one workload, one job, fresh interpreter.

``python -m horsebench.child`` reads a job (JSON) on stdin, runs it and
prints one JSON line.  A job names a body *kind*, carries the generated
input for it and a small ``warm`` input of the same recipe, and says how
long to measure and whether to trace.  The child never sees a workload
name or a seed -- only inputs.

Per job: run ``warm`` once untimed (lazy imports, numpy), then timed
repetitions of the body with the garbage of the previous repetition
collected first (left alone it costs the next one ~20 %), then peak RSS,
then the set-up alone a few times.  A traced job does its first third
untraced (the overhead reference, and the proof that tracing moved no
fingerprint) and the rest under :mod:`horsebench.trace`.

What a body *is* (every kind runs set-up inside its body, so work moved
into set-up cannot hide):

``scenario``  ``ScenarioRunner().run(spec)``: materialize + simulate +
              distill.  Set-up alone: ``materialize(spec)``.
``hedera``    the paper demo's Hedera experiment scripted through
              ``Experiment``/``HederaApp``: build + run + distill.
              Set-up alone: the build.
``campaign``  expand seeds to specs, create a columnar store,
              ``Campaign(workers=1).run(store=...)``, reopen read-only,
              report, digest, CSV, read back.  Set-up alone: the spec
              expansion and the store creation.
"""

import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from repro.api.experiment import Experiment
from repro.controllers.hedera import HederaApp
from repro.core.config import SimulationConfig
from repro.dataplane.flow import FluidFlow
from repro.dataplane.link import Link
from repro.dataplane.node import reset_auto_macs
from repro.dataplane.switch import reset_dpids
from repro.obs import TRACER, disable_tracing, enable_tracing
from repro.obs.export import write_chrome_trace
from repro.results.aggregate import write_csv_rows
from repro.results.store import ResultStore
from repro.scenarios import (
    Campaign,
    ScenarioRunner,
    ScenarioSpec,
    generate_scenario,
    result_fingerprint,
)
from repro.topology.fattree import FatTreeTopo

from horsebench.trace import (
    ROOT,
    LayerTimer,
    NullTimer,
    install,
    span_self_times,
)

#: Set-up alone is repeated at least this often, and until it has been
#: timed for SETUP_SECONDS in total (cheap set-ups need more samples
#: for a steady median), but never more than SETUP_REPS_MAX times.
SETUP_REPS_MIN = 9
SETUP_REPS_MAX = 60
SETUP_SECONDS = 0.5

#: What :func:`probe` typically takes on the box that recorded
#: ``baseline.json`` (it read 2.4 ms at its fastest and 5.5 ms at its
#: slowest there).  Times are reported as if the machine ran at this
#: speed throughout (see README, "Noise protocol").
PROBE_REFERENCE_S = 0.003

_BYTES_SLACK = 1e-9


# -- bodies -----------------------------------------------------------------

def scenario_setup(inp, timer, workdir):
    return ScenarioRunner().materialize(ScenarioSpec.from_dict(inp["spec"]))


def scenario_body(inp, timer, workdir):
    result = ScenarioRunner().run(ScenarioSpec.from_dict(inp["spec"]))
    return [result.to_dict()], {}


def hedera_setup(inp, timer, workdir):
    # What ScenarioRunner.materialize does first: without it link, flow,
    # MAC and dpid numbering (and with them ECMP hashing) depend on what
    # ran earlier in the process.
    Link.reset_ids()
    FluidFlow.reset_ids()
    reset_auto_macs()
    reset_dpids()
    with timer.frame("scenarios.materialize"):
        exp = Experiment(
            f"hedera-k{inp['k']}",
            config=SimulationConfig(stats_interval=inp["stats_interval"],
                                    seed=inp["seed"]))
        with timer.frame("topology.build"):
            topo = FatTreeTopo(k=inp["k"])
        exp.load_topo(topo)
        exp.network.recompute_min_interval = inp["fib_latency"]
        app = HederaApp(exp.topology_view(),
                        poll_interval=inp["poll_interval"],
                        nic_bps=inp["rate_bps"], hash_seed=inp["seed"])
        exp.use_controller(apps=[app])
        exp.add_demo_traffic(rate_bps=inp["rate_bps"],
                             duration=inp["duration"])
        exp.add_stats(interval=inp["stats_interval"])
    return exp


def hedera_body(inp, timer, workdir):
    exp = hedera_setup(inp, timer, workdir)
    horizon = inp["duration"] + inp["margin"]
    outcome = exp.run(until=horizon, settle=5.0,
                      measure_until=inp["duration"])
    with timer.frame("scenarios.distill"):
        network = exp.network
        network.finalize_accounting()
        result = {
            "name": exp.name,
            "seed": inp["seed"],
            "sim_seconds": outcome.report.simulated_seconds,
            "events_fired": outcome.report.events_fired,
            "recomputations": network.recomputations,
            "converged": True,
            "flows_delivered": outcome.flows_delivered,
            "flows_total": outcome.flows_total,
            "delivered_bytes": sum(f.delivered_bytes
                                   for f in network.flows),
            "demanded_bytes": sum(
                f.demand_bps * (min(f.end_time, horizon) - f.start_time)
                / 8.0 for f in network.flows),
            "control_messages": outcome.cm_stats["control_messages"],
            "control_bytes": outcome.cm_stats["control_bytes"],
            "mean_aggregate_rx_bps": outcome.mean_aggregate_rx_bps,
            "diagnostics": {"realloc": dict(network.realloc.stats)},
        }
    return [result], {"all_delivered": True}


def campaign_setup(inp, timer, workdir):
    with timer.frame("scenarios.specgen"):
        specs = [generate_scenario(entry["seed"], pattern=entry["pattern"])
                 for entry in inp["scenarios"]]
    with timer.frame("results.open"):
        store = ResultStore(
            os.path.join(tempfile.mkdtemp(dir=workdir), "store"),
            format="columnar", segment_rows=inp["segment_rows"])
    return specs, store


def campaign_body(inp, timer, workdir):
    specs, store = campaign_setup(inp, timer, workdir)
    Campaign(specs, workers=1).run(store=store)
    store.close()
    with timer.frame("results.open"):
        reader = ResultStore(store.path, readonly=True)
    with timer.frame("results.report"):
        reader.aggregate().report()
    with timer.frame("results.digest"):
        digest = reader.canonical_digest()
    with timer.frame("results.csv"):
        csv_rows = write_csv_rows(
            reader.iter_csv_rows(),
            os.path.join(os.path.dirname(store.path), "sweep.csv"))
    with timer.frame("results.read"):
        results = [record["result"] for record in reader.iter_records()]
    reader.close()
    store_bytes = sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(store.path) for name in names)
    return results, {
        "expected": len(specs), "csv_rows": csv_rows,
        "store_digest": digest, "store_bytes": store_bytes,
    }


KINDS = {
    "scenario": (scenario_setup, scenario_body),
    "hedera": (hedera_setup, hedera_body),
    "campaign": (campaign_setup, campaign_body),
}


# -- output check -----------------------------------------------------------

def violations(result, all_delivered=False):
    """What is wrong with one scenario's result dict (empty: nothing)."""
    found = []
    error = result.get("diagnostics", {}).get("error")
    if error is not None:
        return [f"error: {error}"]
    if not result["converged"]:
        found.append("did not converge")
    delivered, demanded = result["delivered_bytes"], result["demanded_bytes"]
    if not 0.0 <= delivered <= demanded * (1.0 + _BYTES_SLACK):
        found.append(f"delivered {delivered!r} outside [0, demanded "
                     f"{demanded!r}]")
    if result["flows_delivered"] > result["flows_total"]:
        found.append("more flows delivered than exist")
    if all_delivered and result["flows_delivered"] != result["flows_total"]:
        found.append(f"only {result['flows_delivered']} of "
                     f"{result['flows_total']} flows delivered")
    return found


_COUNTS = ("events_fired", "recomputations", "control_messages",
           "control_bytes")
_REALLOC_COUNTS = ("flows_walked", "flows_solved", "components_solved")
_SYMMETRY_COUNTS = ("fast_recomputes", "rebuilds")


def digest_rep(results, extra):
    """Reduce one repetition's results to what the parent needs, so the
    full result dicts do not pile up across repetitions."""
    scenarios = []
    counts = dict.fromkeys(
        _COUNTS + _REALLOC_COUNTS + _SYMMETRY_COUNTS, 0)
    counts["flow_compression"] = 0.0
    sim_seconds = 0.0
    for result in results:
        broken = violations(result, extra.get("all_delivered", False))
        scenarios.append({"name": result["name"],
                          "fingerprint": result_fingerprint(result),
                          "violations": broken})
        sim_seconds += result.get("sim_seconds", 0.0)
        for key in _COUNTS:
            counts[key] += result.get(key, 0)
        diagnostics = result.get("diagnostics", {})
        for key in _REALLOC_COUNTS:
            counts[key] += diagnostics.get("realloc", {}).get(key, 0)
        symmetry = diagnostics.get("symmetry", {})
        for key in _SYMMETRY_COUNTS:
            counts[key] += symmetry.get(key, 0)
        counts["flow_compression"] = max(
            counts["flow_compression"],
            symmetry.get("flow_compression") or 0.0)
    expected = extra.get("expected", len(results))
    csv_rows = extra.get("csv_rows", expected)
    if len(results) != expected or csv_rows != expected:
        scenarios.append({
            "name": "store", "fingerprint": "", "violations": [
                f"{len(results)} records and {csv_rows} CSV rows came "
                f"back for {expected} scenarios"]})
    counts["store_bytes"] = extra.get("store_bytes", 0)
    return {"sim_seconds": sim_seconds, "scenarios": scenarios,
            "counts": counts, "store_digest": extra.get("store_digest", "")}


# -- measurement ------------------------------------------------------------

def probe():
    """Seconds this machine needs, right now, for a fixed piece of
    pure-Python work (best of three, ~8 ms in all)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(30000):
            table[i % 1000] = table.get(i % 1000, 0) + i
        best = min(best, time.perf_counter() - start)
    return best


class Slowdown:
    """How much slower than the reference the machine ran during each
    of a chain of timed regions: a probe before the first region and
    one after every region; a region's slowdown is the mean of the two
    probes around it over ``PROBE_REFERENCE_S``."""

    def __init__(self):
        self._last = probe()

    def since_last(self):
        before, self._last = self._last, probe()
        return (before + self._last) / 2.0 / PROBE_REFERENCE_S


def _run_reps(body, inp, workdir, seconds, reps, timer=None):
    """Timed repetitions for ``seconds`` (or exactly ``reps``)."""
    traced = timer is not None
    timer = timer or NullTimer()
    done = []
    begin = time.perf_counter()
    slowdown = Slowdown()
    while True:
        gc.collect()
        if traced:
            timer.reset()
            TRACER.clear()
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        with timer.frame(ROOT):
            results, extra = body(inp, timer, workdir)
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        rep = digest_rep(results, extra)
        del results
        rep.update(wall_s=wall, cpu_s=cpu, slowdown=slowdown.since_last())
        if traced:
            rep["table"] = timer.table()
            rep["spans"] = _span_sums(TRACER.spans())
            rep["run_reports"] = _sum_run_reports(
                timer.returned.get("Simulation.run", []))
        done.append(rep)
        if reps is not None:
            if len(done) >= reps:
                return done
        elif time.perf_counter() - begin >= seconds:
            return done


def _span_sums(spans):
    """span name -> [count, self seconds, of which inside a recompute]."""
    sums = {}
    for name, self_s, inside in span_self_times(spans):
        row = sums.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += self_s
        if inside:
            row[2] += self_s
    return sums


def _sum_run_reports(reports):
    return {key: sum(getattr(report, key) for report in reports)
            for key in ("events_fired", "fti_ticks", "des_jumps",
                        "mode_transitions")}


def _time_setup(setup, inp, workdir, reps):
    """``[(wall seconds, slowdown)]`` of the set-up alone, repeated
    exactly ``reps`` times, or (``None``) as the constants above say."""
    timed = []
    slowdown = Slowdown()
    while len(timed) < (reps or SETUP_REPS_MIN) or (
            reps is None
            and sum(wall for wall, _ in timed) < SETUP_SECONDS
            and len(timed) < SETUP_REPS_MAX):
        gc.collect()
        start = time.perf_counter()
        setup(inp, NullTimer(), workdir)
        wall = time.perf_counter() - start
        timed.append((wall, slowdown.since_last()))
    return timed


def run_job(job):
    """Run one job in this process; returns the JSON-able report."""
    setup, body = KINDS[job["kind"]]
    inp = job["input"]
    seconds, reps = job.get("seconds", 0.0), job.get("reps")
    workdir = tempfile.mkdtemp(prefix="job-", dir=job["workdir"])
    report = {}
    try:
        body(job["warm"], NullTimer(), workdir)
        if not job.get("trace"):
            report["reps"] = _run_reps(body, inp, workdir, seconds, reps)
        else:
            report["reps"] = _run_reps(body, inp, workdir, seconds / 3.0,
                                       reps)
            timer = LayerTimer()
            install(timer)
            enable_tracing(capacity=1 << 20)
            try:
                report["traced_reps"] = _run_reps(
                    body, inp, workdir, seconds * 2.0 / 3.0, reps, timer)
                if job.get("chrome_trace"):
                    write_chrome_trace(job["chrome_trace"], TRACER.spans())
            finally:
                disable_tracing()
                TRACER.clear()
                timer.unwrap_all()
        # ru_maxrss is KiB on Linux.  Read before the twin and the
        # set-up loop so it is the peak of the measured bodies.
        report["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not job.get("trace"):
            report["setup"] = _time_setup(setup, inp, workdir, reps)
        if job.get("twin") is not None:
            results, extra = body(job["twin"], NullTimer(), workdir)
            report["twin"] = digest_rep(results, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def main():
    report = run_job(json.load(sys.stdin))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
