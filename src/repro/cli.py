"""Command-line interface: run the paper's experiments from a shell.

Subcommands:

* ``demo``     — the full demonstration (three TE schemes) on one
  fat-tree size; prints the timing and throughput table.
* ``fig1``     — the two-router BGP scenario; prints the mode-transition
  timeline of Figure 1.
* ``fig3``     — the Horse-vs-baseline execution-time comparison for a
  list of fat-tree sizes.
* ``scenario`` — the fault-injection scenario engine: ``scenario run``
  executes one generated (or JSON-loaded) scenario, ``scenario sweep``
  fans a seeded campaign out across worker processes.  Any sweep line
  can be reproduced bit-for-bit by ``scenario run`` with the same
  generator options and that line's seed.
* ``campaign`` — the durable half: ``campaign run`` streams a seeded
  sweep into an on-disk result store (JSONL + index sidecar),
  ``campaign resume`` finishes an interrupted sweep (only the
  missing (spec, seed) pairs run), ``campaign report`` prints
  percentile rollups (optionally exporting CSV), ``campaign check``
  exits non-zero when any SLO failed — a sweep as a regression gate —
  and ``campaign diff`` A/B-compares two stores record-for-record
  (non-zero exit on any divergence).  ``--workers N`` fans a sweep out
  over this box's cores; ``fleet serve`` is how it spans boxes.
* ``fleet``    — distributed fan-out: ``fleet serve`` coordinates a
  sweep over a length-prefixed JSON-over-TCP protocol, ``fleet join
  host:port`` turns any box into a worker, ``fleet status`` snapshots
  a running coordinator.  Chunks are leased with liveness heartbeats
  and stolen back from dead or silent workers (bound a run against a
  live-but-stuck worker with ``--wait-timeout``); the merged store is
  record-for-record identical to a single-box run.  ``fleet bench``
  pushes synthetic records through the protocol to measure framing +
  ingest + merge overhead in isolation.
* ``store``    — maintenance: ``store merge`` folds shard stores into
  one canonical store, dedup by (spec_hash, seed); ``store convert``
  rewrites a store in the other on-disk format (JSONL or columnar
  segments) preserving records and canonical digest bit-for-bit.
  Stores auto-detect their format on open; ``--store-format
  columnar`` on the store-creating commands (``campaign run``,
  ``fleet serve``, ``search run``, ``store merge``) picks the
  numpy-backed columnar layout for million-record campaigns.
* ``trace``    — telemetry: ``trace run`` executes one scenario with
  the span tracer armed and exports the timeline as Chrome
  trace-event JSON (drop it on https://ui.perfetto.dev) plus a text
  top-spans report; ``REPRO_OBS=1`` arms the tracer for *any*
  subcommand without changing results — spans and metrics live
  outside every fingerprint.
* ``search``   — adversarial scenario search: ``search run`` explores
  a scenario family (seeded random baseline, or an evolutionary loop
  that mutates the worst specs found — shifting injection times,
  swapping failed links within their shared-risk group, stretching
  flaps, scaling load) to maximize an objective (convergence time,
  recovery time, delivered shortfall, or any metric expression);
  ``search resume`` finishes a killed search exactly (the store *is*
  the search state), ``search report`` prints the ranked leaderboard
  of worst cases — every entry replayable verbatim via ``repro
  scenario run --spec`` on the file ``--save-worst`` writes.

SLO assertions (``--slo``) ride the specs and are evaluated inside
the runner, e.g. ``--slo converged_within=20 --slo
min_delivered_fraction=0.9 --slo "expr=recomputations < 500"``.

Examples::

    python -m repro.cli demo --k 4 --duration 20
    python -m repro.cli fig1
    python -m repro.cli fig3 --sizes 4,6 --scale 0.02
    python -m repro.cli scenario sweep --count 20 --workers 4
    python -m repro.cli scenario run --seed 7 --pattern flap-storm
    python -m repro.cli campaign run --store sweep/ --count 200 \
        --workers 8 --slo converged_within=30
    python -m repro.cli campaign resume --store sweep/ --count 200 \
        --workers 8 --slo converged_within=30
    python -m repro.cli campaign report --store sweep/ --csv sweep.csv
    python -m repro.cli campaign check --store sweep/
    python -m repro.cli campaign diff baseline_store/ candidate_store/
    python -m repro.cli fleet serve --store sweep/ --port 7654 --count 1000
    python -m repro.cli fleet join otherbox:7654
    python -m repro.cli fleet status otherbox:7654
    python -m repro.cli store merge merged/ shard_a/ shard_b/
    python -m repro.cli store convert sweep/ sweep_col/ --to columnar
    python -m repro.cli fleet bench --records 5000 --workers 4
    python -m repro.cli search run --store hunt/ --budget 32 \
        --pattern flap-storm --objective delivered_shortfall
    python -m repro.cli search resume --store hunt/
    python -m repro.cli search report --store hunt/ --save-worst worst.json
    python -m repro.cli scenario run --spec worst.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shlex
import socket
import sys
import time
from typing import List

from repro import __version__
from repro.api import Experiment, setup_bgp_for_routers
from repro.api.demo import DemoSettings, run_full_demonstration
from repro.baseline import PacketLevelEmulator
from repro.core import SimulationConfig
from repro.core.errors import ConfigurationError, SimulationError
from repro.fleet import (
    FleetExecutor,
    ProtocolError,
    TcpTransport,
    parse_address,
    recv_message,
    resume_coordinator,
    send_message,
    worker_main,
)
from repro.fleet.bench import run_protocol_bench
from repro.obs import (
    TRACER,
    enable_tracing,
    maybe_enable_from_env,
    metrics,
    top_spans,
    top_spans_report,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.results import (
    ResultStore,
    convert_store,
    diff_stores,
    slo_from_kv,
    write_csv_rows,
)
from repro.scenarios import (
    TRAFFIC_FAMILIES,
    Campaign,
    ProtocolRecipe,
    ScenarioRunner,
    ScenarioSpec,
    SearchConfig,
    TopologyRecipe,
    generate_scenario,
    leaderboard,
    leaderboard_digest,
    leaderboard_report,
    load_search_config,
    run_search,
    worst_spec,
)
from repro.scenarios.generators import PATTERNS
from repro.scenarios.search import STRATEGIES
from repro.scenarios.spec import PROTOCOL_KINDS, TOPOLOGY_BUILDERS
from repro.symmetry import SymmetryMap, symmetry_map_for_spec
from repro.topology import FatTreeTopo
from repro.traffic import permutation_pairs

_STORE_FORMATS = ("jsonl", "columnar")


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_demo(args: argparse.Namespace) -> int:
    settings = DemoSettings(
        k=args.k,
        duration=args.duration,
        rate_bps=args.rate_gbps * 1e9,
        seed=args.seed,
    )
    report = run_full_demonstration(settings)
    hosts = args.k ** 3 // 4
    print(f"fat-tree k={args.k} ({hosts} hosts), "
          f"{args.duration:.0f}s per scheme, seed {args.seed}")
    print(f"{'scheme':<10} {'wall_s':>8} {'delivered':>10} {'agg_gbps':>9}")
    for name, result in report.results.items():
        print(f"{name:<10} {result.total_wall_seconds:>8.3f} "
              f"{result.flows_delivered:>4}/{result.flows_total:<5} "
              f"{result.mean_aggregate_rx_bps / 1e9:>9.2f}")
    print(f"consolidated wall time: {report.total_wall_seconds:.3f}s")
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    exp = Experiment("fig1", config=SimulationConfig(
        fti_increment=args.fti_increment,
        des_fallback_timeout=args.des_timeout,
    ))
    r1 = exp.add_router("r1", router_id="1.1.1.1")
    r2 = exp.add_router("r2", router_id="2.2.2.2")
    h1 = exp.add_host("h1", "10.1.0.10")
    h2 = exp.add_host("h2", "10.2.0.10")
    exp.add_link(h1, r1)
    exp.add_link(h2, r2)
    exp.add_link(r1, r2)
    daemons = setup_bgp_for_routers(exp, asn_map={"r1": 65001, "r2": 65002})
    exp.add_flow("h1", "h2", rate_bps=5e8, start_time=0.0,
                 duration=args.horizon - 1.0)
    result = exp.run(until=args.horizon)
    print(result.report.summary())
    print(f"sessions established: "
          f"{all(d.all_established() for d in daemons.values())}")
    print("mode transitions:")
    for line in exp.sim.mode_transition_log():
        print(f"  {line}")
    in_modes = exp.sim.clock.time_in_modes()
    print(f"time in DES {in_modes['des']:.2f}s / FTI {in_modes['fti']:.2f}s")
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    print(f"{'k':>2} {'horse_s':>9} {'baseline_s':>11} {'ratio':>7}")
    for k in sizes:
        start = time.perf_counter()
        run_full_demonstration(DemoSettings(
            k=k, duration=args.duration, realtime_factor=args.scale,
            settle=args.duration / 3, seed=args.seed,
        ))
        horse = time.perf_counter() - start

        topo = FatTreeTopo(k=k)
        emulator = PacketLevelEmulator(topo, time_scale=args.scale,
                                       seed=args.seed)
        start = time.perf_counter()
        emulator.setup()
        pairs = permutation_pairs(topo.hosts(), seed=args.seed)
        for __ in range(3):
            emulator.run_udp_workload(pairs, duration=args.duration,
                                      packets_per_second=args.pps)
        emulator.teardown()
        baseline = time.perf_counter() - start
        ratio = baseline / horse if horse > 0 else float("inf")
        print(f"{k:>2} {horse:>9.2f} {baseline:>11.2f} {ratio:>6.1f}x")
    return 0


def _parse_kv_params(pairs: "List[str] | None") -> dict:
    """``key=value`` strings -> dict with numbers parsed as numbers
    and ``true``/``false`` as booleans, as a spec file spells them."""
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"bad parameter {pair!r}; expected key=value")
        key, raw = pair.split("=", 1)
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = {"true": True, "false": False}.get(raw, raw)
        params[key.strip()] = value
    return params


def _parse_slos(raw_slos: "List[str] | None"):
    """``--slo kind=value`` strings -> SLO objects.

    ``converged_within=20``, ``max_recovery_time=10``,
    ``min_delivered_fraction=0.9``, ``max_control_messages=5000``, and
    ``expr=<metric expression>`` (everything after the first ``=`` is
    the expression).  Kinds and value coercions come from the one
    registry in :mod:`repro.results.slo`, which also words the error
    for an unknown kind or an unusable (or missing) value.
    """
    slos = []
    for raw in raw_slos or []:
        kind, _, value = raw.partition("=")
        slo = slo_from_kv(kind.strip(), value.strip())
        slo.validate()
        slos.append(slo)
    return slos


def _recipes_from_args(args: argparse.Namespace):
    """The (topology, protocol) recipes of the family options."""
    topology = TopologyRecipe(args.topo, _parse_kv_params(args.topo_param))
    protocol = None
    if args.protocol is not None:
        protocol = ProtocolRecipe(args.protocol,
                                  _parse_kv_params(args.protocol_param))
    return topology, protocol


def _build_generated_spec(args: argparse.Namespace, seed: int):
    """The scenario a (generator options, seed) pair describes —
    shared by ``scenario run``, ``scenario sweep`` and the ``campaign``
    commands so a sweep line reproduces exactly."""
    topology, protocol = _recipes_from_args(args)
    spec = generate_scenario(
        seed,
        pattern=args.pattern,
        topology=topology,
        protocol=protocol,
        duration=args.duration,
        pattern_params=_parse_kv_params(args.pattern_param),
        traffic_family=args.traffic_family,
        traffic_params=_parse_kv_params(args.traffic_param),
    )
    spec.slos = _parse_slos(args.slo)
    return spec


def _load_spec(path: str, extra_slos):
    """A scenario spec file; ``extra_slos`` (the CLI-given ones)
    compose with whatever the file carries."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        spec = ScenarioSpec.from_json(text)
    except ValueError as exc:  # not JSON; a JSON misfit is already a
        # ConfigurationError naming the field (ScenarioSpec.from_dict).
        raise ConfigurationError(
            f"cannot load scenario spec {path!r}: {exc!r}") from exc
    spec.slos = list(spec.slos) + extra_slos
    return spec


def _spec_from_args(args: argparse.Namespace):
    """The spec-or-seed option group -> one scenario."""
    if args.spec is not None:
        return _load_spec(args.spec, _parse_slos(args.slo))
    return _build_generated_spec(args, args.seed)


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if args.save_spec:
        with open(args.save_spec, "w", encoding="utf-8") as handle:
            handle.write(spec.to_json() + "\n")
    result = ScenarioRunner().run(spec)
    if args.json:
        _emit_json(result.to_dict())
    else:
        print(result.summary())
        for outcome in result.injections:
            recovery = (f"{outcome.recovery_seconds:.3f}s"
                        if outcome.recovery_seconds is not None
                        else "not recovered")
            print(f"  {outcome.label:<44} recovery {recovery}")
        for verdict in result.slos:
            observed = ("" if verdict.observed is None
                        else f" observed={verdict.observed:g}")
            print(f"  SLO {verdict.slo:<40} {verdict.status}{observed}")
        print(f"wall {result.wall_seconds:.3f}s, "
              f"{result.events_fired} events, "
              f"{result.recomputations} reallocations")
    return 0 if result.slos_ok else 1


def _cmd_scenario_sweep(args: argparse.Namespace) -> int:
    outcome = _campaign_from_args(args).run()
    # Non-zero when any SLO failed OR any scenario crashed: the
    # fault-isolated workers keep the sweep running, but a crash must
    # not read as success to a calling script.
    ok = outcome.slo_failures == 0 and outcome.failed_count == 0
    if args.json:
        _emit_json([r.to_dict() for r in outcome.results])
    else:
        print(outcome.summary())
        print("reproduce any line: repro scenario run --seed <seed> "
              + _generator_options_string(args))
    return 0 if ok else 1


def _generator_options_string(args: argparse.Namespace) -> str:
    """The generator options of ``args`` as a shell fragment, so the
    printed reproduce command really does rebuild the same scenario."""
    parts = [f"--pattern {args.pattern}", f"--topo {args.topo}",
             f"--duration {args.duration:g}"]
    if args.protocol is not None:
        parts.append(f"--protocol {args.protocol}")
    if args.traffic_family is not None:
        parts.append(f"--traffic-family {args.traffic_family}")
    for flag, pairs in (("--pattern-param", args.pattern_param),
                        ("--topo-param", args.topo_param),
                        ("--protocol-param", args.protocol_param),
                        ("--traffic-param", args.traffic_param)):
        for pair in pairs or []:
            parts.append(f"{flag} {pair}")
    for slo in args.slo or []:
        parts.append(f"--slo {shlex.quote(slo)}")
    return " ".join(parts)


def _cmd_trace_run(args: argparse.Namespace) -> int:
    """Run one scenario with the span tracer armed and export the
    timeline as Chrome trace-event JSON (loadable in Perfetto /
    chrome://tracing), plus a text top-spans report.  Exit code as
    ``scenario run``: non-zero when an SLO failed."""
    spec = _spec_from_args(args)
    enable_tracing(args.capacity)
    TRACER.clear()
    result = ScenarioRunner().run(spec)
    spans = TRACER.spans()
    snapshot = metrics().snapshot()
    write_chrome_trace(args.out, spans, snapshot)
    if args.jsonl:
        write_spans_jsonl(args.jsonl, spans)
    if args.json:
        _emit_json({
            "result": result.to_dict(),
            "fingerprint": result.fingerprint(),
            "trace": args.out,
            "spans": len(spans),
            "spans_dropped": TRACER.dropped,
            "top_spans": top_spans(spans)[:args.top],
            "metrics": snapshot,
        })
    else:
        print(result.summary())
        print(f"trace: {args.out} ({len(spans)} span(s), "
              f"{TRACER.dropped} dropped)")
        if args.jsonl:
            print(f"spans jsonl: {args.jsonl}")
        print()
        print(top_spans_report(spans, args.top))
    return 0 if result.slos_ok else 1


def _campaign_from_args(args: argparse.Namespace):
    """The sweep option group -> a Campaign over its seed range."""
    seeds = range(args.seed_base, args.seed_base + args.count)
    return Campaign.seed_sweep(
        lambda seed: _build_generated_spec(args, seed),
        seeds, workers=args.workers,
    )


def _announce_fleet_address(address) -> None:
    """Print the line a worker pastes to join.  The bind address may
    be the listen wildcard, which is not a dialable destination — the
    printed command substitutes this machine's hostname."""
    host, port = address[0], address[1]
    if host in ("0.0.0.0", "::"):
        host = socket.gethostname()
    print(f"fleet coordinator listening on {address[0]}:{port} "
          f"-- join with:")
    print(f"  repro fleet join {host}:{port}")
    sys.stdout.flush()


def _campaign_stats_exit_code(stats, store) -> int:
    """The shared gate for campaign-style runs.

    Gate on the WHOLE store, not just this invocation: a resume that
    only runs passing leftovers must still exit non-zero when the
    interrupted half persisted failures — same contract as sweep.
    A fleet run that left chunks permanently failed produced NO
    records for those specs, which the store aggregate can't see, so
    it gates separately.
    """
    code = 0 if store.aggregate().gate_ok else 1
    if stats.fleet and (stats.fleet.get("unfinished")
                        or stats.fleet.get("failed_chunks")):
        code = 1
    return code


def _emit_campaign_stats(stats, as_json: bool) -> None:
    if as_json:
        _emit_json(dataclasses.asdict(stats))
    else:
        print(stats.summary())


def _cmd_topo_classes(args: argparse.Namespace) -> int:
    if args.spec is not None:
        symmetry_map = symmetry_map_for_spec(_load_spec(args.spec, []))
    else:
        recipe = TopologyRecipe(args.topo, _parse_kv_params(args.topo_param))
        symmetry_map = SymmetryMap.from_topo(recipe.build())
    print(symmetry_map.describe(max_members=args.max_members))
    return 0


def _cmd_topo_import(args: argparse.Namespace) -> int:
    params = {"path": args.file}
    if args.hosts_per_node != 1:
        params["hosts_per_node"] = args.hosts_per_node
    if args.device != "router":
        params["device"] = args.device
    recipe = TopologyRecipe("graphml", params)
    topo = recipe.build()  # validate before emitting anything
    text = json.dumps(recipe.to_dict(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    print(f"imported {topo.name}: {len(topo.host_specs)} hosts, "
          f"{len(topo.switch_specs)} devices, "
          f"{len(topo.link_specs)} links", file=sys.stderr)
    return 0


def _cmd_campaign_run(args: argparse.Namespace, resume: bool = False) -> int:
    # A resume has no --store-format: the store says what it is.
    store = ResultStore(args.store, create=not resume,
                        format=None if resume else args.store_format)
    campaign = _campaign_from_args(args)
    if not resume and len(store) > 0:
        raise SystemExit(
            f"store {args.store!r} already holds {len(store)} record(s); "
            f"use 'repro campaign resume' to finish an interrupted sweep")
    if resume and len(store) > 0:
        # spec_hash covers every generator option and SLO: a resume
        # with different flags would silently re-run all seeds and mix
        # two spec families in one store. Refuse instead.
        overlap = sum(1 for spec in campaign.specs
                      if (spec.spec_hash(), spec.seed) in store)
        if overlap == 0:
            raise SystemExit(
                f"none of this sweep's {len(campaign.specs)} (spec, seed) "
                f"pairs match the {len(store)} record(s) in "
                f"{args.store!r} — the generator/--slo options differ "
                f"from the original run; re-check them (or use "
                f"'campaign run' with a fresh store)")
    stats = campaign.run(store=store,
                         retry_errors=resume and args.retry_errors)
    _emit_campaign_stats(stats, args.json)
    if not args.json:
        print("inspect:  repro campaign report --store " + args.store)
        print("gate:     repro campaign check --store " + args.store)
    return _campaign_stats_exit_code(stats, store)


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    return _cmd_campaign_run(args, resume=True)


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    # Read-only: report must be safe to run against a live sweep.
    # store.aggregate() rolls up straight off metric columns when the
    # store is columnar; JSONL stores stream records as before.  The
    # CSV rides iter_csv_rows(), which columnar stores serve from the
    # index/metrics/SLO columns without decompressing healthy payloads.
    store = ResultStore(args.store, create=False, readonly=True)
    aggregate = store.aggregate()
    print(aggregate.report())
    if args.csv:
        rows = write_csv_rows(store.iter_csv_rows(), args.csv)
        print(f"wrote {rows} row(s) to {args.csv}")
    return 0


def _cmd_campaign_check(args: argparse.Namespace) -> int:
    """The regression gate: exit 0 iff every persisted SLO verdict
    passed and no scenario errored."""
    store = ResultStore(args.store, create=False, readonly=True)
    aggregate = store.aggregate()
    if aggregate.records == 0:
        # A gate needs evidence: an empty store (sweep died before its
        # first record, or wrong --store path) must not pass.
        print(f"check FAILED: store {args.store!r} holds no records")
        return 1
    if not aggregate.slo_tallies and aggregate.errors == 0:
        print(f"{aggregate.records} record(s), no SLOs attached — "
              f"nothing to check")
        return 0
    for label in sorted(aggregate.slo_tallies):
        tally = aggregate.slo_tallies[label]
        status = "ok" if tally.ok else "VIOLATED"
        print(f"{label:<44} {status} "
              f"(pass={tally.passed} fail={tally.failed} "
              f"error={tally.errored})")
    if aggregate.errors:
        print(f"{aggregate.errors} scenario(s) errored mid-run")
    if aggregate.gate_ok:
        print(f"check OK: {aggregate.records} record(s) clean")
        return 0
    print(f"check FAILED: {aggregate.gate_detail()}")
    return 1


def _cmd_campaign_diff(args: argparse.Namespace) -> int:
    """A/B store comparison; non-zero exit on any divergence (the
    controller-testing gate)."""
    store_a = ResultStore(args.store_a, create=False, readonly=True)
    store_b = ResultStore(args.store_b, create=False, readonly=True)
    if len(store_a) == 0 and len(store_b) == 0:
        # Same philosophy as `campaign check`: a gate needs evidence,
        # and two empty stores compared nothing.
        message = (f"both {args.store_a!r} and {args.store_b!r} hold no "
                   f"records — nothing was compared")
        if args.json:
            _emit_json({"identical": False, "error": message})
        else:
            print(f"diff FAILED: {message}")
        return 1
    diff = diff_stores(store_a, store_b)
    if args.json:
        _emit_json(diff.to_dict())
    else:
        print(diff.report())
    return 0 if diff.identical else 1


def _cmd_store_merge(args: argparse.Namespace) -> int:
    """Concatenate shard stores into one, dedup by (spec_hash, seed)."""
    target = ResultStore(args.target, format=args.store_format)
    sources = [ResultStore(path, create=False, readonly=True)
               for path in args.sources]
    merged = target.merge_from(sources)
    if args.compact:
        target.compact()
    target.record_provenance({
        "transport": "merge",
        "merged": merged,
        "merged_from": list(args.sources),
        "repro_version": __version__,
    })
    print(f"merged {merged} record(s) from {len(sources)} store(s) "
          f"into {args.target} ({len(target)} total)")
    return 0


def _cmd_store_convert(args: argparse.Namespace) -> int:
    """Rewrite a store in the other on-disk format.  The record set,
    dedup state and canonical digest are preserved bit-for-bit; only
    the bytes on disk change."""
    source = ResultStore(args.source, create=False, readonly=True)
    target = convert_store(source, args.target, args.to)
    print(f"converted {len(target)} record(s): {args.source} "
          f"({source.storage_format}) -> {args.target} "
          f"({target.storage_format})")
    print(f"canonical digest {target.canonical_digest()}")
    return 0


def _cmd_fleet_bench(args: argparse.Namespace) -> int:
    """Measure fleet protocol overhead with synthetic records — no
    simulation runs, so records/s isolates framing + ingest + merge."""
    stats = run_protocol_bench(
        records=args.records,
        workers=args.workers,
        chunk_size=args.chunk_size,
        store_format=args.store_format,
        store_path=args.store,
    )
    if args.json:
        _emit_json(stats)
        return 0
    print(f"fleet protocol bench: {stats['records']} record(s), "
          f"{stats['workers']} worker(s), "
          f"chunk_size={stats['chunk_size']}, "
          f"store={stats['store_format']}")
    print(f"  ingest wall     {stats['wall_seconds']:.3f}s")
    print(f"  throughput      {stats['records_per_second']:.0f} records/s")
    print(f"  merge wall      {stats['merge_seconds']:.3f}s")
    print(f"  bytes on wire   {stats['wire_bytes']} "
          f"({stats['wire_bytes_per_record']:.0f} B/record)")
    return 0


def _search_config_from_args(args: argparse.Namespace):
    topology, protocol = _recipes_from_args(args)
    return SearchConfig(
        family=args.pattern,
        strategy=args.strategy,
        objective=args.objective,
        budget=args.budget,
        population=args.population,
        elites=args.elites,
        seed=args.seed,
        duration=args.duration,
        topology=topology,
        protocol=protocol,
        pattern_params=_parse_kv_params(args.pattern_param),
        traffic_family=args.traffic_family,
        traffic_params=_parse_kv_params(args.traffic_param),
    )


def _emit_leaderboard(store, config, args,
                      stats=None) -> int:
    """Shared tail of the search commands: rank, print (or JSON),
    optionally save the worst spec for replay.  Exit 0 only when the
    leaderboard holds at least one healthy (non-errored) scenario — a
    search that measured nothing must not read as success."""
    # run/resume already ranked the store for their digest — reuse
    # those entries instead of a second full-store pass.
    if stats is not None and stats.entries:
        entries = stats.entries
    else:
        entries = leaderboard(store, config)
    healthy = any(entry.value is not None for entry in entries)
    if args.json:
        payload = {
            "config": config.to_dict(),
            "digest": leaderboard_digest(entries),
            "leaderboard": [entry.to_dict()
                            for entry in entries[:args.top]],
        }
        if stats is not None:
            payload["stats"] = stats.to_dict()
        _emit_json(payload)
    else:
        if stats is not None:
            print(stats.summary())
        print(leaderboard_report(entries, config, top=args.top))
    if args.save_worst:
        # No healthy entry -> worst_spec raises and main() reports it.
        spec_dict = worst_spec(store, entries)
        with open(args.save_worst, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(spec_dict, indent=2, sort_keys=True)
                         + "\n")
        if not args.json:
            print(f"worst spec -> {args.save_worst}  (replay: "
                  f"repro scenario run --spec {args.save_worst})")
    return 0 if healthy else 1


def _cmd_search_run(args: argparse.Namespace) -> int:
    store = ResultStore(args.store, format=args.store_format)
    config = _search_config_from_args(args)
    stats = run_search(config, store, workers=args.workers)
    return _emit_leaderboard(store, config, args, stats=stats)


def _cmd_search_resume(args: argparse.Namespace) -> int:
    """Finish a killed search: the store carries the whole config, so
    no generator flags are re-given (and none can drift)."""
    store = ResultStore(args.store, create=False)
    config = load_search_config(store)
    stats = run_search(config, store, workers=args.workers)
    return _emit_leaderboard(store, config, args, stats=stats)


def _cmd_search_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store, create=False, readonly=True)
    return _emit_leaderboard(store, load_search_config(store), args)


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    """Coordinate a sweep for workers that join over TCP."""
    if args.resume:
        return _cmd_fleet_serve_resume(args)
    if not args.store:
        raise SystemExit("fleet serve needs --store DIR "
                         "(or --resume JOURNAL to continue a crashed run)")
    store = ResultStore(args.store, format=args.store_format)
    campaign = _campaign_from_args(args)
    # The tcp transport launches nothing, but `workers` still sizes
    # the chunk plan (~4 chunks per expected worker) — too few chunks
    # would leave late joiners idle and make each steal forfeit a
    # huge slice.
    executor = FleetExecutor(
        TcpTransport(),
        workers=args.expect_workers,
        chunk_size=args.chunk_size,
        lease_timeout=args.lease_timeout or 30.0,
        host=args.host, port=args.port,
        wait_timeout=args.wait_timeout,
        on_listening=_announce_fleet_address,
    )
    stats = campaign.run(store=store, executor=executor)
    _emit_campaign_stats(stats, args.json)
    return _campaign_stats_exit_code(stats, store)


def _cmd_fleet_serve_resume(args: argparse.Namespace) -> int:
    """Continue a crashed fleet run from its journal.  No generator
    flags: the journal's plan carries the exact chunk list, and what
    already completed (target store + surviving shards) is skipped or
    re-ingested rather than re-run."""
    coordinator = resume_coordinator(
        args.resume,
        host=args.host, port=args.port,
        # None -> the crashed run's own value, from the plan line.
        lease_timeout=args.lease_timeout)
    if args.store and os.path.abspath(args.store) != coordinator.store.path:
        raise SystemExit(
            f"--store {args.store!r} is not the journal's store "
            f"{coordinator.store.path!r}; omit --store when resuming")
    coordinator.start()
    _announce_fleet_address(coordinator.address)
    try:
        if not coordinator.wait(args.wait_timeout):
            print(f"fleet resume: not finished after "
                  f"{args.wait_timeout}s; merging what completed",
                  file=sys.stderr)
        coordinator.drain()
    finally:
        coordinator.stop()
        stats = coordinator.finish(transport="tcp")
    if args.json:
        _emit_json(stats.to_dict())
    else:
        print(f"fleet resume: {stats.merged} record(s) merged into "
              f"{coordinator.store.path} "
              f"({stats.reingested_records} re-ingested from surviving "
              f"shards, {stats.requeued_lost} chunk(s) re-run)")
        print(f"  unfinished={stats.unfinished} "
              f"failed_chunks={stats.failed_chunks} "
              f"reclaimed={stats.reclaimed} "
              f"stopped_cleanly={stats.stopped_cleanly}")
    if stats.unfinished or stats.failed_chunks:
        return 1
    return 0 if coordinator.store.aggregate().gate_ok else 1


def _cmd_fleet_join(args: argparse.Namespace) -> int:
    """Work for a coordinator until it runs out of chunks."""
    host, port = parse_address(args.address)
    return worker_main(host, port, worker_id=args.worker_id,
                       connect_timeout=args.connect_timeout,
                       reconnect_attempts=args.reconnect_attempts)


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    """One status snapshot from a running coordinator."""
    host, port = parse_address(args.address)
    try:
        with socket.create_connection((host, port), timeout=5.0) as sock:
            send_message(sock, {"type": "status"})
            reply = recv_message(sock)
    except (OSError, ProtocolError) as exc:
        # Neither error names the address the user typed.
        raise SystemExit(f"cannot reach coordinator at {args.address}: {exc}")
    if reply is None or reply.get("type") != "status_reply":
        raise SystemExit(f"unexpected reply from {args.address}: {reply}")
    status = reply.get("status", {})
    if args.json:
        _emit_json(status)
        return 0
    chunks = status.get("chunks", {})
    print(f"chunks: {chunks.get('done', 0)}/{chunks.get('total', 0)} done, "
          f"{chunks.get('leased', 0)} leased, "
          f"{chunks.get('pending', 0)} pending, "
          f"{chunks.get('failed', 0)} failed")
    print(f"records ingested: {status.get('records_ingested', 0)} "
          f"({status.get('duplicates_dropped', 0)} duplicate(s) dropped, "
          f"{status.get('reclaimed', 0)} lease(s) reclaimed)")
    for name, info in sorted(status.get("workers", {}).items()):
        state = "up" if info.get("connected") else "gone"
        print(f"  worker {name:<24} {state:<5} "
              f"records={info.get('records', 0)} "
              f"chunks={info.get('chunks_done', 0)} "
              f"reconnects={info.get('reconnects', 0)} "
              f"idle={info.get('idle_seconds', 0):.1f}s")
    quarantined = status.get("quarantined", [])
    print(f"quarantined: {len(quarantined)}"
          + (f" ({', '.join(quarantined)})" if quarantined else ""))
    print(f"done: {status.get('done')}")
    return 0


# -- option groups: each is declared here, once ------------------------------

def _add_sweep_options(parser: argparse.ArgumentParser,
                       workers: bool = True) -> None:
    """The seed range of a sweep and the local pool that runs it
    (``fleet serve`` has no local pool)."""
    parser.add_argument("--count", type=int, default=20,
                        help="number of seeds to sweep")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed of the sweep")
    if workers:
        parser.add_argument("--workers", type=int, default=None,
                            help="worker processes (default: all usable "
                                 "CPUs, cgroup-aware)")


def _add_spec_or_seed_options(parser: argparse.ArgumentParser) -> None:
    """One scenario: generated from a seed, or loaded from a file."""
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed (ignored with --spec)")
    parser.add_argument("--spec", default=None, metavar="FILE",
                        help="load the scenario from a JSON spec file")


def _add_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", required=True, metavar="DIR",
                        help="result store directory")


def _add_store_format_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store-format", default=None, choices=_STORE_FORMATS,
        help="on-disk format when the store is created (default "
             "jsonl; an existing store's format is auto-detected "
             "and this flag must match it)")


def _add_family_options(parser: argparse.ArgumentParser) -> None:
    """The scenario-family knobs: failure pattern, topology, protocol,
    traffic matrix, horizon — shared by the scenario/campaign commands
    and ``search run``.  Every ``choices`` is the registry that
    validates the value anyway, so the two cannot drift."""
    parser.add_argument(
        "--pattern", default="k-random-links", choices=list(PATTERNS),
        help="failure pattern to generate (srlg: correlated failures "
             "of whole shared-risk link groups)")
    parser.add_argument(
        "--pattern-param", action="append", metavar="KEY=VALUE",
        help="pattern tunable (e.g. k=3, cycles=4, groups=2); repeatable")
    parser.add_argument(
        "--topo", default="wan", choices=list(TOPOLOGY_BUILDERS),
        help="topology recipe")
    parser.add_argument(
        "--topo-param", action="append", metavar="KEY=VALUE",
        help="topology parameter (e.g. k=4, num_spines=4); repeatable")
    parser.add_argument(
        "--protocol", default=None, choices=PROTOCOL_KINDS,
        help="control plane (default: fast-timer OSPF)")
    parser.add_argument(
        "--protocol-param", action="append", metavar="KEY=VALUE",
        help="protocol timer (e.g. hold_time=3); repeatable")
    parser.add_argument("--duration", type=float, default=40.0,
                        help="simulated horizon per scenario, seconds")
    parser.add_argument(
        "--traffic-family", default=None, choices=TRAFFIC_FAMILIES,
        help="traffic-matrix family (default: a plain permutation)")
    parser.add_argument(
        "--traffic-param", action="append", metavar="KEY=VALUE",
        help="traffic-matrix tunable (e.g. rate_bps=5e8, "
             "elephant_factor=8); repeatable")


def _add_scenario_generator_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``scenario run`` and ``scenario sweep``."""
    _add_family_options(parser)
    parser.add_argument(
        "--slo", action="append", metavar="KIND=VALUE",
        help="SLO assertion evaluated in-run (converged_within=S, "
             "max_recovery_time=S, min_delivered_fraction=F, "
             "max_control_messages=N, expr=EXPRESSION); repeatable")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of a table")


def _add_search_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--top", type=int, default=10,
                        help="leaderboard entries to show")
    parser.add_argument("--save-worst", default=None, metavar="FILE",
                        help="write the worst spec's JSON for "
                             "replay via 'scenario run --spec'")
    parser.add_argument("--json", action="store_true",
                        help="emit stats + leaderboard as JSON")


def _add_command(sub, name: str, func, **kwargs) -> argparse.ArgumentParser:
    """One leaf subcommand: its handler, and (``what``) the name an
    error line starts with."""
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(func=func, what=parser.prog)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = _add_command(sub, "demo", _cmd_demo,
                        help="run the three-TE-scheme demonstration")
    demo.add_argument("--k", type=int, default=4)
    demo.add_argument("--duration", type=float, default=20.0)
    demo.add_argument("--rate-gbps", type=float, default=1.0)
    demo.add_argument("--seed", type=int, default=42)

    fig1 = _add_command(sub, "fig1", _cmd_fig1,
                        help="two-router BGP mode transitions")
    fig1.add_argument("--horizon", type=float, default=10.0)
    fig1.add_argument("--fti-increment", type=float, default=0.001)
    fig1.add_argument("--des-timeout", type=float, default=0.1)

    fig3 = _add_command(sub, "fig3", _cmd_fig3,
                        help="Horse vs baseline execution time")
    fig3.add_argument("--sizes", default="4,6,8")
    fig3.add_argument("--duration", type=float, default=30.0)
    fig3.add_argument("--scale", type=float, default=0.02)
    fig3.add_argument("--pps", type=float, default=150.0)
    fig3.add_argument("--seed", type=int, default=42)

    scenario = sub.add_parser(
        "scenario", help="declarative fault-injection scenarios")
    scenario_sub = scenario.add_subparsers(dest="scenario_command",
                                           required=True)

    run = _add_command(
        scenario_sub, "run", _cmd_scenario_run,
        help="run one scenario (generated by seed, or from JSON)")
    _add_spec_or_seed_options(run)
    run.add_argument("--save-spec", default=None, metavar="FILE",
                     help="write the scenario's JSON spec before running")
    _add_scenario_generator_options(run)

    sweep = _add_command(
        scenario_sub, "sweep", _cmd_scenario_sweep,
        help="run a seeded campaign across worker processes")
    _add_sweep_options(sweep)
    _add_scenario_generator_options(sweep)

    topo = sub.add_parser(
        "topo", help="topology tools: symmetry classes, GraphML import")
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)

    tclasses = _add_command(
        topo_sub, "classes", _cmd_topo_classes,
        help="detect structural automorphism classes and compression")
    tclasses.add_argument("--spec", default=None, metavar="FILE",
                          help="scenario spec JSON: uses its topology with "
                               "every injection target pinned")
    tclasses.add_argument("--topo", default="fattree",
                          choices=list(TOPOLOGY_BUILDERS),
                          help="topology recipe kind (ignored with --spec)")
    tclasses.add_argument("--topo-param", action="append", metavar="K=V",
                          help="topology builder parameter (repeatable)")
    tclasses.add_argument("--max-members", type=int, default=6,
                          help="class members listed per row")

    timport = _add_command(
        topo_sub, "import", _cmd_topo_import,
        help="import a GraphML file as a topology recipe")
    timport.add_argument("file", help="GraphML file (topology-zoo style)")
    timport.add_argument("--hosts-per-node", type=int, default=1,
                         help="hosts attached to every imported node")
    timport.add_argument("--device", choices=("router", "switch"),
                         default="router",
                         help="device kind for imported nodes")
    timport.add_argument("--out", default=None, metavar="FILE",
                         help="write the recipe JSON here (default stdout)")

    trace = sub.add_parser(
        "trace",
        help="telemetry: run a scenario with the span tracer armed "
             "and export a Perfetto-loadable timeline")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trun = _add_command(
        trace_sub, "run", _cmd_trace_run,
        help="trace one scenario (generated by seed, or from "
             "a JSON spec) into Chrome trace-event JSON")
    _add_spec_or_seed_options(trun)
    trun.add_argument("--out", default="trace.json", metavar="FILE",
                      help="trace-event JSON output path "
                           "(default trace.json; open in "
                           "https://ui.perfetto.dev)")
    trun.add_argument("--jsonl", default=None, metavar="FILE",
                      help="also dump raw spans as JSONL")
    trun.add_argument("--top", type=int, default=20,
                      help="rows in the top-spans report (default 20)")
    trun.add_argument("--capacity", type=int, default=None,
                      help="span ring-buffer capacity (default 65536; "
                           "oldest spans are dropped beyond it)")
    _add_scenario_generator_options(trun)

    campaign = sub.add_parser(
        "campaign",
        help="durable sweeps: stream to a result store, resume, "
             "report, gate on SLOs")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    crun = _add_command(
        campaign_sub, "run", _cmd_campaign_run,
        help="run a seeded sweep, streaming results to a store")
    _add_store_option(crun)
    _add_sweep_options(crun)
    _add_store_format_option(crun)
    _add_scenario_generator_options(crun)

    cresume = _add_command(
        campaign_sub, "resume", _cmd_campaign_resume,
        help="finish an interrupted sweep: only (spec, seed) pairs "
             "missing from the store run")
    _add_store_option(cresume)
    _add_sweep_options(cresume)
    cresume.add_argument(
        "--retry-errors", action="store_true",
        help="also re-run scenarios whose persisted record is an "
             "error result, superseding it")
    _add_scenario_generator_options(cresume)

    creport = _add_command(
        campaign_sub, "report", _cmd_campaign_report,
        help="percentile/mean rollups over a store")
    _add_store_option(creport)
    creport.add_argument("--csv", default=None, metavar="FILE",
                         help="also export one CSV row per scenario")

    ccheck = _add_command(
        campaign_sub, "check", _cmd_campaign_check,
        help="regression gate: non-zero exit if any SLO failed or any "
             "scenario errored")
    _add_store_option(ccheck)

    cdiff = _add_command(
        campaign_sub, "diff", _cmd_campaign_diff,
        help="A/B-compare two stores of the same spec family; "
             "non-zero exit on any divergence")
    cdiff.add_argument("store_a", metavar="STORE_A",
                       help="reference store directory")
    cdiff.add_argument("store_b", metavar="STORE_B",
                       help="candidate store directory")
    cdiff.add_argument("--json", action="store_true",
                       help="emit the diff as JSON")

    store = sub.add_parser(
        "store", help="result-store maintenance (merge shards, ...)")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    smerge = _add_command(
        store_sub, "merge", _cmd_store_merge,
        help="concatenate stores into one, dedup by (spec_hash, seed) "
             "— healthy records supersede error records")
    smerge.add_argument("target", metavar="TARGET",
                        help="destination store (created if missing)")
    smerge.add_argument("sources", nargs="+", metavar="SOURCE",
                        help="shard store directories to fold in")
    smerge.add_argument("--compact", action="store_true",
                        help="also rewrite the target dropping "
                             "superseded/dead bytes")
    _add_store_format_option(smerge)

    sconvert = _add_command(
        store_sub, "convert", _cmd_store_convert,
        help="rewrite a store in the other on-disk format "
             "(jsonl <-> columnar); records and digest are preserved")
    sconvert.add_argument("source", metavar="SOURCE",
                          help="existing store directory")
    sconvert.add_argument("target", metavar="TARGET",
                          help="destination directory (created; must "
                               "not already hold a store)")
    sconvert.add_argument("--to", required=True, choices=_STORE_FORMATS,
                          help="target on-disk format")

    search = sub.add_parser(
        "search",
        help="adversarial scenario search: find the specs that "
             "maximize an objective (worst-case hunting)")
    search_sub = search.add_subparsers(dest="search_command", required=True)

    srun = _add_command(
        search_sub, "run", _cmd_search_run,
        help="run a seeded, resumable adversarial search")
    _add_store_option(srun)
    srun.add_argument("--budget", type=int, default=32,
                      help="total scenario evaluations")
    srun.add_argument("--population", type=int, default=8,
                      help="scenarios per generation")
    srun.add_argument("--elites", type=int, default=2,
                      help="top specs each generation mutates from")
    srun.add_argument("--strategy", default="evolve", choices=STRATEGIES,
                      help="random sampling baseline, or the "
                           "evolutionary perturbation loop")
    srun.add_argument("--objective", default="delivered_shortfall",
                      help="what to maximize: convergence_time, "
                           "recovery_time, delivered_shortfall, or any "
                           "metric expression (higher = worse)")
    srun.add_argument("--seed", type=int, default=0,
                      help="search seed (candidate derivation root)")
    srun.add_argument("--workers", type=int, default=None,
                      help="worker processes per generation (default: "
                           "all usable CPUs, cgroup-aware)")
    _add_store_format_option(srun)
    _add_family_options(srun)
    _add_search_output_options(srun)

    sresume = _add_command(
        search_sub, "resume", _cmd_search_resume,
        help="finish a killed search exactly (config comes from the "
             "store; only missing scenarios run)")
    _add_store_option(sresume)
    sresume.add_argument("--workers", type=int, default=None,
                         help="worker processes per generation")
    _add_search_output_options(sresume)

    sreport = _add_command(
        search_sub, "report", _cmd_search_report,
        help="ranked worst-case leaderboard of a search store")
    _add_store_option(sreport)
    _add_search_output_options(sreport)

    fleet = sub.add_parser(
        "fleet",
        help="distributed campaigns: one coordinator, workers anywhere")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fserve = _add_command(
        fleet_sub, "serve", _cmd_fleet_serve,
        help="coordinate a sweep for TCP workers (repro fleet join)")
    # Not _add_store_option: --resume derives the store from the
    # journal's plan, so --store is only required for fresh runs.
    fserve.add_argument("--store", required=False, default=None,
                        metavar="DIR", help="result store directory "
                        "(required unless --resume)")
    fserve.add_argument("--resume", default=None, metavar="JOURNAL",
                        help="continue a crashed run from its journal "
                             "(<store>/fleet-journal.jsonl); surviving "
                             "worker shards are re-ingested, not re-run, "
                             "and generator flags are ignored")
    _add_sweep_options(fserve, workers=False)
    fserve.add_argument("--host", default="0.0.0.0",
                        help="listen address (default: all interfaces)")
    fserve.add_argument("--port", type=int, default=0,
                        help="listen port (default: ephemeral, printed)")
    fserve.add_argument("--expect-workers", type=int, default=4,
                        metavar="N",
                        help="how many workers will join — sizes the "
                             "chunk plan (~4 chunks per worker) so "
                             "everyone gets work and a steal forfeits "
                             "little (default 4)")
    _add_store_format_option(fserve)
    fserve.add_argument("--chunk-size", type=int, default=None,
                        help="scenarios per lease (default: ~4 chunks "
                             "per worker)")
    fserve.add_argument("--lease-timeout", type=float, default=None,
                        help="seconds without any frame (records or "
                             "liveness heartbeats) from a worker before "
                             "its chunks are reclaimed (default 30; a "
                             "resume defaults to the crashed run's "
                             "value); bound a run with a live-but-stuck "
                             "worker via --wait-timeout")
    fserve.add_argument("--wait-timeout", type=float, default=None,
                        help="give up if the sweep is not finished after "
                             "this many seconds (completed records are "
                             "still merged; resume finishes the rest)")
    _add_scenario_generator_options(fserve)
    fserve.set_defaults(workers=None)

    fjoin = _add_command(
        fleet_sub, "join", _cmd_fleet_join,
        help="work for a coordinator until its sweep finishes")
    fjoin.add_argument("address", metavar="HOST:PORT",
                       help="coordinator address printed by fleet serve")
    fjoin.add_argument("--worker-id", default=None,
                       help="worker name (default: hostname-pid)")
    fjoin.add_argument("--reconnect-attempts", type=int, default=5,
                       help="lost sessions to survive before giving up "
                            "(seeded exponential backoff between tries)")
    fjoin.add_argument("--connect-timeout", type=float, default=10.0,
                       help="seconds to keep retrying the first connect")

    fstatus = _add_command(
        fleet_sub, "status", _cmd_fleet_status,
        help="snapshot a running coordinator's progress")
    fstatus.add_argument("address", metavar="HOST:PORT",
                         help="coordinator address")
    fstatus.add_argument("--json", action="store_true",
                         help="emit the snapshot as JSON")

    fbench = _add_command(
        fleet_sub, "bench", _cmd_fleet_bench,
        help="measure fleet protocol overhead (synthetic records, no "
             "simulation): framing + ingest + merge records/s")
    fbench.add_argument("--records", type=int, default=2000,
                        help="synthetic records to push through the "
                             "protocol")
    fbench.add_argument("--workers", type=int, default=2,
                        help="synthetic TCP workers")
    fbench.add_argument("--chunk-size", type=int, default=None,
                        help="scenarios per lease (default: ~4 chunks "
                             "per worker)")
    fbench.add_argument("--store", default=None, metavar="DIR",
                        help="keep the merged store here (default: a "
                             "temporary directory, deleted)")
    _add_store_format_option(fbench)
    fbench.add_argument("--json", action="store_true",
                        help="emit the measurements as JSON")

    return parser


def main(argv: "List[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    # REPRO_OBS=1 arms the span tracer for any subcommand; tracing is
    # observation-only, so fingerprints and digests stay bit-for-bit.
    maybe_enable_from_env()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SimulationError, OSError) as exc:
        # The one place a library or file error becomes an exit code:
        # one "<command>: <why>" line on stderr, status 1, no traceback.
        raise SystemExit(f"{args.what}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
