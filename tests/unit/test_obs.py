"""Unit tests: the telemetry layer (`repro.obs`).

The contract under test, in the order ISSUE 9 states it: tracing off
by default and ~free when off, bounded memory when on, metric snapshots
that subsume the scattered stats dicts, exporters whose output parses,
and — the clause everything else hangs off — fingerprints that do not
move when tracing is enabled.
"""

import json
import time

import pytest

from repro.dataplane import arrays as arrays_module
from repro.obs import (
    NULL_SPAN,
    Tracer,
    MetricsRegistry,
    TRACER,
    chrome_trace_events,
    disable_tracing,
    enable_tracing,
    metrics,
    span,
    spans_to_jsonl,
    top_spans,
    top_spans_report,
    tracing_enabled,
)
from repro.obs.spans import Span


@pytest.fixture
def tracer():
    return Tracer(capacity=64)


@pytest.fixture(autouse=True)
def _global_tracer_off():
    """Tests that arm the module-global tracer must not leak it."""
    yield
    disable_tracing()
    TRACER.clear()
    TRACER.set_virtual_clock(None)


class TestTracer:
    def test_off_by_default_returns_null_span(self, tracer):
        sp = tracer.span("x")
        assert sp is NULL_SPAN
        with sp as inner:
            inner.set(anything="goes")  # no-op, no error
        assert len(tracer) == 0

    def test_records_when_enabled(self, tracer):
        tracer.enable()
        with tracer.span("work", flows=3) as sp:
            sp.set(solved=2)
        spans = tracer.spans()
        assert len(spans) == 1
        record = spans[0]
        assert record.name == "work"
        assert record.attrs == {"flows": 3, "solved": 2}
        assert record.wall_end >= record.wall_start
        assert record.depth == 0
        assert record.thread

    def test_name_is_positional_only(self, tracer):
        """Attrs may use the key `name` (scenario spans do)."""
        tracer.enable()
        with tracer.span("scenario.run", name="flap-storm-seed3"):
            pass
        record = tracer.spans()[0]
        assert record.name == "scenario.run"
        assert record.attrs["name"] == "flap-storm-seed3"

    def test_nesting_depth(self, tracer):
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {sp.name: sp for sp in tracer.spans()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # depth stack unwound: a fresh span is top-level again
        with tracer.span("after"):
            pass
        assert {sp.name: sp.depth for sp in tracer.spans()}["after"] == 0

    def test_ring_eviction_bounds_memory(self):
        tracer = Tracer(capacity=32)
        tracer.enable()
        for i in range(100):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) <= 32
        assert tracer.dropped >= 100 - 32
        # the survivors are the newest spans
        assert tracer.spans()[-1].name == "s99"

    def test_clear(self, tracer):
        tracer.enable()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_virtual_clock_captured(self, tracer):
        tracer.enable()
        ticks = iter([10.0, 12.5])
        tracer.set_virtual_clock(lambda: next(ticks))
        with tracer.span("sim"):
            pass
        record = tracer.spans()[0]
        assert record.virtual_start == 10.0
        assert record.virtual_end == 12.5
        # and removal stops the sampling
        tracer.set_virtual_clock(None)
        with tracer.span("post"):
            pass
        assert tracer.spans()[-1].virtual_start is None

    def test_exception_still_records(self, tracer):
        tracer.enable()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.spans()[0].name == "boom"

    def test_module_level_helpers(self):
        assert not tracing_enabled()
        assert span("x") is NULL_SPAN
        enable_tracing()
        assert tracing_enabled()
        with span("y"):
            pass
        assert TRACER.spans()[-1].name == "y"

    def test_disabled_overhead_smoke(self):
        """200k disabled span() calls must stay trivially cheap.

        The bound is deliberately loose (CI runners are noisy); the
        point is catching an accidental allocation or lock on the
        disabled path, which would blow past this by an order of
        magnitude.
        """
        assert not TRACER.enabled
        start = time.perf_counter()
        for _ in range(200_000):
            span("hot")
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"disabled span() too slow: {elapsed:.3f}s"


class TestMetricsRegistry:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.snapshot()["counters"] == {"a": 5}

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.5)
        reg.gauge("g").set(2.5)  # last write wins
        assert reg.snapshot()["gauges"] == {"g": 2.5}

    def test_histogram(self):
        reg = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            reg.histogram("h").observe(value)
        summary = reg.snapshot()["histograms"]["h"]
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(6.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)

    def test_empty_histogram_summary(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        assert reg.snapshot()["histograms"]["h"] == {"count": 0, "sum": 0.0}

    def test_set_stats_mirrors_numerics_only(self):
        reg = MetricsRegistry()
        reg.set_stats("realloc", {
            "full_recomputes": 3,
            "mean_ratio": 0.5,
            "active": True,
            "reason": "sym-break",        # string: skipped
            "nested": {"x": 1},           # dict: skipped
        })
        gauges = reg.snapshot()["gauges"]
        assert gauges == {"realloc.full_recomputes": 3,
                          "realloc.mean_ratio": 0.5,
                          "realloc.active": 1}

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}


def _make_span(name, start, end, depth=0, thread="MainThread",
               virtual=None, **attrs):
    vstart, vend = virtual if virtual else (None, None)
    return Span(name=name, wall_start=start, wall_end=end,
                virtual_start=vstart, virtual_end=vend,
                depth=depth, thread=thread, attrs=attrs)


class TestExporters:
    def test_jsonl_round_trips(self):
        spans = [_make_span("a", 10.0, 10.5, flows=2),
                 _make_span("b", 10.5, 11.0, virtual=(1.0, 2.0))]
        lines = spans_to_jsonl(spans).splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "a"
        assert first["wall_duration"] == pytest.approx(0.5)
        assert first["attrs"] == {"flows": 2}
        second = json.loads(lines[1])
        assert second["virtual_start"] == 1.0

    def test_empty_jsonl(self):
        assert spans_to_jsonl([]) == ""

    def test_chrome_trace_structure(self):
        spans = [_make_span("realloc.solve", 100.0, 100.25),
                 _make_span("scenario.simulate", 100.25, 101.0,
                            virtual=(0.0, 30.0))]
        doc = chrome_trace_events(spans)
        events = doc["traceEvents"]
        # metadata names both tracks
        meta = [e for e in events if e["ph"] == "M"
                and e["name"] == "process_name"]
        assert {e["pid"] for e in meta} == {1, 2}
        xs = [e for e in events if e["ph"] == "X"]
        wall = [e for e in xs if e["pid"] == 1]
        virt = [e for e in xs if e["pid"] == 2]
        assert len(wall) == 2
        # wall timeline normalized: earliest span starts at ts=0
        assert min(e["ts"] for e in wall) == 0.0
        solve = next(e for e in wall if e["name"] == "realloc.solve")
        assert solve["dur"] == pytest.approx(0.25 * 1e6)
        assert solve["cat"] == "realloc"
        # only the virtual-clocked span lands on the virtual track
        assert [e["name"] for e in virt] == ["scenario.simulate"]
        assert virt[0]["dur"] == pytest.approx(30.0 * 1e6)

    def test_chrome_trace_counter_events(self):
        snapshot = {"counters": {"scenario.runs": 4},
                    "gauges": {"realloc.ratio": 0.5, "note": "skip-me"}}
        doc = chrome_trace_events([], snapshot)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert {e["name"] for e in counters} == {"scenario.runs",
                                                "realloc.ratio"}
        assert all(isinstance(e["args"]["value"], (int, float))
                   for e in counters)

    def test_chrome_trace_is_json_serializable(self):
        spans = [_make_span("a", 0.0, 1.0, count=3)]
        json.dumps(chrome_trace_events(spans))  # must not raise

    def test_top_spans_aggregation(self):
        spans = [_make_span("a", 0.0, 1.0),
                 _make_span("a", 1.0, 1.5),
                 _make_span("b", 0.0, 0.1)]
        rows = top_spans(spans)
        assert [r["name"] for r in rows] == ["a", "b"]
        assert rows[0]["count"] == 2
        assert rows[0]["total_s"] == pytest.approx(1.5)
        assert rows[0]["mean_s"] == pytest.approx(0.75)
        assert rows[0]["max_s"] == pytest.approx(1.0)

    def test_top_spans_report_text(self):
        report = top_spans_report([_make_span("x", 0.0, 0.5)])
        assert "top spans by total wall time" in report
        assert "x" in report
        assert "(no spans recorded)" in top_spans_report([])


class TestScenarioDeterminism:
    """The acceptance clause: fingerprints bit-for-bit identical with
    tracing on and off."""

    def _churn_spec(self, seed):
        """``dataplane_churn``-shaped input at k=4: static ECMP, short
        flows arriving and leaving, a flap storm — recomputes, sealed
        accrual segments and replays, no control plane."""
        import random
        from repro.scenarios import (ProtocolRecipe, ScenarioSpec,
                                     TopologyRecipe, TrafficRecipe)
        from repro.scenarios.generators import flap_storm

        topology = TopologyRecipe("fattree", {"k": 4, "device": "router"})
        topo = topology.build()
        rng = random.Random(seed)
        matrix = []
        for __ in range(40):
            src, dst = rng.sample(topo.hosts(), 2)
            matrix.append([src, dst, rng.uniform(1e6, 40e6)])
        return ScenarioSpec(
            name="churn", seed=seed, duration=12.0, topology=topology,
            protocol=ProtocolRecipe("static", {"ecmp": True}),
            traffic=TrafficRecipe(pattern="matrix", flows=matrix,
                                  start_time=1.0, duration=4.0, stagger=5.0),
            injections=flap_storm(topo, links=3, start=2.0, spread=2.0,
                                  period=2.0, cycles=2, rng=rng))

    def _result(self, seed=0, bgp=False, ospf=False, churn=False,
                sdn=False):
        from repro.scenarios import (ProtocolRecipe, ScenarioRunner,
                                     TopologyRecipe, generate_scenario)
        if churn:
            return ScenarioRunner().run(self._churn_spec(seed))
        routed = {}
        if sdn:
            routed = dict(
                topology=TopologyRecipe("fattree",
                                        {"k": 4, "device": "switch"}),
                protocol=ProtocolRecipe("sdn", {}))
        if bgp or ospf:
            routed = dict(
                topology=TopologyRecipe("fattree",
                                        {"k": 4, "device": "router"}),
                protocol=(ProtocolRecipe("bgp", {"max_paths": 2}) if bgp
                          else ProtocolRecipe("ospf", {"hello_interval": 1.0,
                                                       "dead_interval": 4.0})))
        spec = generate_scenario(seed, pattern="k-random-links",
                                 duration=30.0, **routed)
        return ScenarioRunner().run(spec)

    def _run(self, seed=0, **kind):
        from repro.scenarios import result_fingerprint
        return result_fingerprint(self._result(seed, **kind).to_dict())

    @pytest.mark.parametrize("kind", [{}, {"bgp": True}, {"ospf": True},
                                      {"churn": True}, {"sdn": True}],
                             ids=["ospf-wan", "bgp-fattree", "ospf-fattree",
                                  "dataplane-churn", "sdn-fattree"])
    def test_fingerprint_unmoved_by_tracing(self, kind, monkeypatch):
        if "churn" in kind:
            # Forty flows: below the size at which the engine's rule
            # picks arrays, and the mirror's spans are what is checked.
            monkeypatch.setattr(arrays_module, "ARRAYS_MIN_FLOWS", 0)
        baseline = self._run(**kind)
        enable_tracing()
        try:
            traced = self._run(**kind)
        finally:
            disable_tracing()
        assert traced == baseline
        # and the traced run actually recorded something
        names = {sp.name for sp in TRACER.spans()}
        assert "scenario.run" in names
        assert "scenario.simulate" in names
        runs = [sp for sp in TRACER.spans() if sp.name == "clock.fti_run"]
        if "churn" not in kind:
            # One span per run of FTI ticks, on the virtual-time track.
            assert {sp.attrs["ended_by"] for sp in runs} >= {
                "event", "fallback"}
            assert all(sp.attrs["ticks"] >= 1 and
                       sp.virtual_end >= sp.virtual_start for sp in runs)
        else:
            assert not runs  # no control plane: the clock never ticks
            # Counter work shows where it now happens: one span per
            # replay of the sealed accrual timeline.
            replays = [sp for sp in TRACER.spans()
                       if sp.name == "realloc.accrue"]
            assert replays and all(sp.attrs["segments"] >= 1
                                   for sp in replays)

    def test_realloc_counters_reach_diagnostics_and_metrics(
            self, monkeypatch):
        monkeypatch.setattr(arrays_module, "ARRAYS_MIN_FLOWS", 0)
        result = self._result(churn=True)
        stats = result.diagnostics["realloc"]
        assert stats["accrual_segments"] > stats["accrual_replays"] > 0
        assert stats["epoch_notifications"] >= stats["entities_scanned"] > 0
        assert stats["undelivered"] == 0      # every flow has ended
        # What ran, not the requested spelling ("auto").
        from repro.dataplane.arrays import HAVE_NUMPY
        assert stats["kernel"] == ("arrays" if HAVE_NUMPY else "heap")
        gauges = metrics().snapshot()["gauges"]
        for key in ("accrual_segments", "accrual_replays",
                    "epoch_notifications", "entities_scanned",
                    "undelivered"):
            assert gauges[f"realloc.{key}"] == stats[key], key

    def test_bgp_daemon_counters_reach_diagnostics_and_metrics(self):
        result = self._result(bgp=True)
        totals = result.diagnostics["bgp"]
        for key in ("decisions", "selection_changes", "exports",
                    "fib_installs"):
            assert totals[key] > 0, key
        assert totals["fib_withdrawals"] >= 0
        # Each is a count of the stage before it surviving.
        assert totals["selection_changes"] <= totals["decisions"]
        assert (totals["fib_installs"] + totals["fib_withdrawals"]
                <= totals["selection_changes"])
        gauges = metrics().snapshot()["gauges"]
        assert {k: gauges[f"bgp.{k}"] for k in totals} == totals
        # Counters ride in diagnostics, so they never reach a fingerprint.
        from repro.scenarios import result_fingerprint
        record = result.to_dict()
        assert result_fingerprint(record) == result_fingerprint(
            {**record, "diagnostics": {}})

    def test_ospf_daemon_counters_reach_diagnostics_and_metrics(self):
        result = self._result(ospf=True)
        totals = result.diagnostics["ospf"]
        for key in ("spf_runs", "hellos_sent", "lsus_sent", "lsas_received",
                    "lsas_accepted", "lsa_bodies_parsed"):
            assert totals[key] > 0, key
        # Each is a count of the stage before it surviving.
        assert (totals["lsa_bodies_parsed"] <= totals["lsas_accepted"]
                < totals["lsas_received"])
        assert totals["decode_errors"] == 0
        gauges = metrics().snapshot()["gauges"]
        assert {k: gauges[f"ospf.{k}"] for k in totals} == totals
        from repro.scenarios import result_fingerprint
        record = result.to_dict()
        assert result_fingerprint(record) == result_fingerprint(
            {**record, "diagnostics": {}})

    def test_openflow_counters_reach_diagnostics_and_metrics(self):
        result = self._result(sdn=True)
        totals = result.diagnostics["openflow"]
        for key in ("agent_rx_flow_mod", "agent_tx_packet_in",
                    "agent_flow_mods_applied", "agent_table_lookups",
                    "agent_expiry_checks", "controller_rx_packet_in",
                    "controller_tx_flow_mod", "controller_match_intern_hits",
                    "controller_match_intern_misses", "app_flows_placed",
                    "app_entries_installed", "app_path_dag_builds"):
            assert totals[key] > 0, key
        # Both ends counted the same messages; nothing was malformed,
        # no table had anything to sweep or anything but exact entries.
        assert totals["agent_rx_flow_mod"] == totals["controller_tx_flow_mod"]
        assert totals["controller_rx_packet_in"] == totals["agent_tx_packet_in"]
        assert (totals["agent_flow_mods_applied"]
                == totals["app_entries_installed"])
        for key in ("agent_decode_errors", "controller_decode_errors",
                    "agent_expiry_sweeps", "agent_table_scans"):
            assert totals[key] == 0, key
        assert totals["agent_table_index_hits"] == totals["agent_table_lookups"]
        gauges = metrics().snapshot()["gauges"]
        assert {k: gauges[f"openflow.{k}"] for k in totals} == totals
        from repro.scenarios import result_fingerprint
        record = result.to_dict()
        assert result_fingerprint(record) == result_fingerprint(
            {**record, "diagnostics": {}})

    def test_virtual_clock_uninstalled_after_run(self):
        enable_tracing()
        self._run()
        assert TRACER._virtual_clock is None


class TestHeartbeatTelemetryGuards:
    """`_on_heartbeat` must treat inbound telemetry as hostile."""

    @pytest.fixture
    def coordinator(self, tmp_path):
        from repro.fleet.coordinator import FleetCoordinator
        from repro.results import ResultStore
        store = ResultStore(str(tmp_path / "store"))
        coord = FleetCoordinator(
            [{"name": "s0", "seed": 0}], store, chunk_size=1,
            lease_timeout=5.0)
        # Registered worker without the socket dance.
        coord._worker_info["w1"] = {"records": 0, "chunks_done": 0,
                                    "reconnects": 0, "last_seen": 0.0}
        return coord

    def test_well_formed_telemetry_lands_in_status(self, coordinator):
        coordinator._on_heartbeat("w1", {
            "type": "heartbeat",
            "stats": {"chunks": 2, "records": 7, "errors": 0,
                      "reconnects": 1},
            "metrics": {"counters": {"fleet.worker.records": 7}},
        })
        entry = coordinator.status()["workers"]["w1"]
        assert entry["worker_stats"]["records"] == 7
        assert entry["reconnects"] == 1  # max(hello, heartbeat)
        assert entry["metrics_samples"] == 1
        fleet = coordinator.status()["fleet_metrics"]["counters"]
        assert fleet["fleet.worker.records"] == 7

    @pytest.mark.parametrize("payload", [
        {},                                       # bare keep-alive
        {"stats": "not-a-dict"},
        {"stats": ["list"]},
        {"metrics": 42},
        {"stats": {"records": "NaN-ish", "chunks": True,
                   "unknown_key": 9}},            # junk values/keys
    ])
    def test_hostile_telemetry_degrades_to_keepalive(self, coordinator,
                                                     payload):
        coordinator._on_heartbeat("w1", {"type": "heartbeat", **payload})
        entry = coordinator.status()["workers"]["w1"]
        assert entry.get("worker_stats", {}).get("records") is None
        assert entry.get("worker_stats", {}).get("chunks") is None

    def test_unknown_worker_is_ignored(self, coordinator):
        coordinator._on_heartbeat("ghost", {"type": "heartbeat",
                                            "stats": {"records": 1}})
        assert "ghost" not in coordinator.status()["workers"]

    def test_metrics_series_is_capped(self, coordinator):
        cap = coordinator.METRICS_SERIES_CAP
        for i in range(cap + 10):
            coordinator._on_heartbeat("w1", {
                "type": "heartbeat",
                "metrics": {"counters": {"tick": i}}})
        info = coordinator._worker_info["w1"]
        assert len(info["metrics_series"]) == cap
        # newest retained
        assert info["metrics_series"][-1]["counters"]["tick"] == cap + 9
