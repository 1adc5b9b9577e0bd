"""Metric definitions, and the layer budget of one traced repetition.

``END_TO_END`` and ``PER_LAYER`` are the single list of metric names;
``BENCHMARK.json`` is generated from them (:func:`manifest`) and a smoke
test keeps the two equal.

Every frame of the traced table (see :mod:`horsebench.trace`) feeds
exactly one ``*_s`` metric through ``FRAME_METRIC`` / ``EVENT_LAYER``,
or ``unattributed_frac`` when nothing claims it, so the time metrics of
a workload add up to its body wall.  The program's own spans then move
time *between* metrics (solve out of realloc, quotient out of realloc or
accrual, seal out of append) without changing the sum.
"""

from horsebench.trace import ROOT
from horsebench.workloads import WORKLOADS

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median a later change may worsen the metric by.  The two times get
#: the widest bound the benchmark contract allows: on the box that
#: recorded the baseline, ten runs of the same code on ten seeds spread
#: (q3 - q1) by 3-13 % of their median even after normalisation
#: (README, "Noise protocol"), and a bound under three times that would
#: call noise a regression.  Failures are not a metric: they are the
#: ``failed``/``attempted`` counts of every run.
END_TO_END = (
    ("wall_s_per_sim_s", "s/s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: (name, unit, better).  Counts are deterministic for a given seed and
#: compare exactly between two commits; ``*_s`` are seconds of one
#: traced body (tracing overhead included, see ``trace_overhead_frac``)
#: at reference machine speed, like the end-to-end times.  The last two
#: say what the normalisation did: the untraced median *as the clock
#: read it*, and how much slower than the reference the machine ran.
PER_LAYER = (
    ("core.events", "count", "lower"),
    ("core.events_per_s", "1/s", "higher"),
    ("core.fti_ticks", "count", "lower"),
    ("core.des_jumps", "count", "lower"),
    ("core.mode_transitions", "count", "lower"),
    ("core.loop_self_s", "s", "lower"),
    ("core.queue_ops", "count", "lower"),
    ("core.queue_s", "s", "lower"),
    ("core.cm_deliveries", "count", "lower"),
    ("core.cm_route_ops", "count", "lower"),
    ("core.cm_flow_mods", "count", "lower"),
    ("core.cm_control_bytes", "B", "lower"),
    ("core.cm_s", "s", "lower"),
    ("bgp.events", "count", "lower"),
    ("bgp.busy_s", "s", "lower"),
    ("ospf.events", "count", "lower"),
    ("ospf.busy_s", "s", "lower"),
    ("openflow.events", "count", "lower"),
    ("openflow.busy_s", "s", "lower"),
    ("dataplane.recomputes", "count", "lower"),
    ("dataplane.realloc_s", "s", "lower"),
    ("dataplane.solve_s", "s", "lower"),
    ("dataplane.flows_walked", "count", "lower"),
    ("dataplane.flows_solved", "count", "lower"),
    ("dataplane.components_solved", "count", "lower"),
    ("dataplane.flows_walked_per_recompute", "count", "lower"),
    ("dataplane.accrue_s", "s", "lower"),
    ("dataplane.events", "count", "lower"),
    ("dataplane.event_s", "s", "lower"),
    ("dataplane.stats_s", "s", "lower"),
    ("symmetry.busy_s", "s", "lower"),
    ("symmetry.fast_recomputes", "count", "higher"),
    ("symmetry.rebuilds", "count", "lower"),
    ("symmetry.flow_compression", "ratio", "higher"),
    ("scenarios.materialize_s", "s", "lower"),
    ("scenarios.hook_s", "s", "lower"),
    ("scenarios.inject_s", "s", "lower"),
    ("scenarios.distill_s", "s", "lower"),
    ("scenarios.specgen_s", "s", "lower"),
    ("scenarios.campaign_s", "s", "lower"),
    ("topology.build_s", "s", "lower"),
    ("topology.realize_s", "s", "lower"),
    ("results.append_ops", "count", "lower"),
    ("results.append_s", "s", "lower"),
    ("results.seal_s", "s", "lower"),
    ("results.open_s", "s", "lower"),
    ("results.report_s", "s", "lower"),
    ("results.digest_s", "s", "lower"),
    ("results.csv_s", "s", "lower"),
    ("results.read_s", "s", "lower"),
    ("results.store_bytes", "B", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
    ("unattributed_frac", "ratio", "lower"),
    ("raw_wall_s_per_sim_s", "s/s", "lower"),
    ("machine_slowdown", "ratio", "lower"),
)

#: The metrics that partition a traced body's wall.
TIME_METRICS = tuple(name for name, unit, _ in PER_LAYER
                     if unit == "s")

#: Traced frame -> the time metric its self time belongs to.
FRAME_METRIC = {
    "Simulation.run": "core.loop_self_s",
    "EventQueue.push": "core.queue_s",
    "EventQueue.pop": "core.queue_s",
    "ConnectionManager.deliver": "core.cm_s",
    "ConnectionManager.install_route": "core.cm_s",
    "ConnectionManager.withdraw_route": "core.cm_s",
    "ConnectionManager.record_flow_mod": "core.cm_s",
    # Network.recompute's own time is the on_reallocation hooks (the
    # runner's recovery check, the stats sampler).
    "Network.recompute": "scenarios.hook_s",
    "Network.accrue": "dataplane.accrue_s",
    "Network.finalize_accounting": "dataplane.accrue_s",
    "ReallocEngine.recompute": "dataplane.realloc_s",
    "ScenarioRunner.materialize": "scenarios.materialize_s",
    "scenarios.materialize": "scenarios.materialize_s",
    "ScenarioRunner.run": "scenarios.distill_s",
    "scenarios.distill": "scenarios.distill_s",
    "scenarios.specgen": "scenarios.specgen_s",
    "Campaign.run": "scenarios.campaign_s",
    "TopologyRecipe.build": "topology.build_s",
    "topology.build": "topology.build_s",
    "Experiment.load_topo": "topology.realize_s",
    "ResultStore.append": "results.append_s",
    "ColumnarResultStore.append": "results.append_s",
    "results.open": "results.open_s",
    "results.report": "results.report_s",
    "results.digest": "results.digest_s",
    "results.csv": "results.csv_s",
    "results.read": "results.read_s",
    "events.openflow.expiry": "openflow.busy_s",
    "events.dataplane.stats": "dataplane.stats_s",
}

#: ``events.<package>.*`` frame -> (events metric, time metric).
EVENT_LAYER = {
    "core": (None, "core.loop_self_s"),
    "bgp": ("bgp.events", "bgp.busy_s"),
    "ospf": ("ospf.events", "ospf.busy_s"),
    "openflow": ("openflow.events", "openflow.busy_s"),
    "controllers": ("openflow.events", "openflow.busy_s"),
    "dataplane": ("dataplane.events", "dataplane.event_s"),
    "api": (None, "scenarios.inject_s"),
    "scenarios": (None, "scenarios.inject_s"),
}


def manifest(run_seconds):
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "horsebench"],
        "paths": ["horsebench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, (_, _, why) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


def layer_metrics(rep, untraced_wall_s, raw_wall_s_per_sim_s):
    """Every ``PER_LAYER`` metric of one traced repetition ``rep`` (a
    :func:`horsebench.child.run_job` ``traced_reps`` entry).
    ``untraced_wall_s`` is the same body's median wall without tracing,
    at reference machine speed; ``raw_wall_s_per_sim_s`` is passed
    through.
    """
    out = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    rows = {row["name"]: row for row in rep["table"]}
    body_wall = rows[ROOT]["inclusive_s"]
    unattributed = 0.0
    for name, row in rows.items():
        metric = FRAME_METRIC.get(name)
        if metric is None and name.startswith("events."):
            events_metric, metric = EVENT_LAYER.get(
                name.split(".")[1], (None, None))
            if events_metric:
                out[events_metric] += row["count"]
        if metric is None:
            unattributed += row["self_s"]
        else:
            out[metric] += row["self_s"]

    def moved(prefix):
        """(self seconds inside a recompute, outside) of spans whose
        name starts with ``prefix``."""
        inside = sum(row[2] for name, row in rep["spans"].items()
                     if name.startswith(prefix))
        total = sum(row[1] for name, row in rep["spans"].items()
                    if name.startswith(prefix))
        return inside, total - inside

    solve, _ = moved("realloc.solve")
    quotient_inside, quotient_outside = moved("quotient.")
    seal = sum(moved("store.seal"))
    out["dataplane.solve_s"] = solve
    out["symmetry.busy_s"] = quotient_inside + quotient_outside
    out["dataplane.realloc_s"] -= solve + quotient_inside
    out["dataplane.accrue_s"] -= quotient_outside
    out["results.seal_s"] = seal
    out["results.append_s"] -= seal

    def count(*names):
        return sum(rows[name]["count"] for name in names if name in rows)

    counts, reports = rep["counts"], rep["run_reports"]
    out["core.events"] = reports["events_fired"]
    out["core.events_per_s"] = reports["events_fired"] / untraced_wall_s
    out["core.fti_ticks"] = reports["fti_ticks"]
    out["core.des_jumps"] = reports["des_jumps"]
    out["core.mode_transitions"] = reports["mode_transitions"]
    out["core.queue_ops"] = count("EventQueue.push", "EventQueue.pop")
    out["core.cm_deliveries"] = count("ConnectionManager.deliver")
    out["core.cm_route_ops"] = count("ConnectionManager.install_route",
                                     "ConnectionManager.withdraw_route")
    out["core.cm_flow_mods"] = count("ConnectionManager.record_flow_mod")
    out["core.cm_control_bytes"] = counts["control_bytes"]
    out["dataplane.recomputes"] = counts["recomputations"]
    out["dataplane.flows_walked"] = counts["flows_walked"]
    out["dataplane.flows_solved"] = counts["flows_solved"]
    out["dataplane.components_solved"] = counts["components_solved"]
    out["dataplane.flows_walked_per_recompute"] = (
        counts["flows_walked"] / max(1, counts["recomputations"]))
    out["symmetry.fast_recomputes"] = counts["fast_recomputes"]
    out["symmetry.rebuilds"] = counts["rebuilds"]
    out["symmetry.flow_compression"] = counts["flow_compression"]
    out["results.append_ops"] = count("ColumnarResultStore.append")
    out["results.store_bytes"] = counts["store_bytes"]
    slowdown = rep["slowdown"]
    for name in TIME_METRICS:
        out[name] /= slowdown
    out["trace_overhead_frac"] = (
        body_wall / slowdown / untraced_wall_s - 1.0)
    out["unattributed_frac"] = unattributed / body_wall
    out["raw_wall_s_per_sim_s"] = raw_wall_s_per_sim_s
    out["machine_slowdown"] = slowdown
    return out
