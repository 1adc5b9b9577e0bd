"""Integration: the fleet subsystem end to end — the acceptance
contract that a fleet run (including one with a SIGKILLed worker whose
chunks are reclaimed) merges into a store record-for-record identical
to the same sweep run single-box, plus work stealing, chunk retry, and
the fleet/diff/merge CLI surface."""

import contextlib
import io
import os
import socket
import subprocess
import sys
import threading

import pytest

import repro
from repro import cli
from repro.core.errors import ConfigurationError
from repro.fleet import (
    FleetCoordinator,
    recv_message,
    send_message,
    worker_main,
)
from repro.fleet.coordinator import PLAN_KEY
from repro.fleet.protocol import PROTOCOL_VERSION
from repro.results import ResultStore, diff_stores
from repro.scenarios import Campaign, ScenarioSpec, generate_scenario

BASE = ["--duration", "30"]


def gen_spec(seed):
    """A realistic generated scenario (WAN/OSPF k-random-links)."""
    return generate_scenario(seed, pattern="k-random-links", duration=30.0)


def tiny_spec(seed):
    """A fast scenario for the many-run orchestration tests."""
    return ScenarioSpec(name=f"tiny-{seed}", seed=seed, duration=3.0)


def index_signature(store):
    """The index, minus byte offsets (record bytes legitimately differ
    in the volatile wall_seconds/diagnostics fields)."""
    return [(e.spec_hash, e.seed, e.name, e.fingerprint, e.error)
            for e in store.entries()]


def assert_stores_equal(reference, candidate):
    """The acceptance check: records + index, after canonical
    ordering, must agree on every deterministic bit."""
    assert candidate.keys() == reference.keys()
    assert index_signature(candidate) == index_signature(reference)
    assert candidate.fingerprints() == reference.fingerprints()
    assert candidate.canonical_digest() == reference.canonical_digest()
    assert diff_stores(reference, candidate).identical


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def join_env(**extra):
    """The environment a ``repro fleet join`` subprocess needs to
    import this checkout's package."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def serve_with_threads(coordinator, workers, wait_timeout=120.0):
    """Drive ``coordinator`` through serve() with one worker_main
    thread per entry of ``workers`` (its keyword arguments), started
    once it listens."""
    threads = []

    def launch(address):
        for index, options in enumerate(workers):
            thread = threading.Thread(target=worker_main,
                                      args=(*address, f"w{index}"),
                                      kwargs=options, daemon=True)
            thread.start()
            threads.append(thread)

    try:
        return coordinator.serve(wait_timeout=wait_timeout,
                                 on_listening=launch)
    finally:
        for thread in threads:
            thread.join(timeout=30.0)


def serve_pending(campaign, store, workers=2, **options):
    """What ``fleet serve`` does with a campaign, on worker threads:
    returns (skipped, FleetRunStats)."""
    pending, skipped = campaign.pending(store)
    coordinator = FleetCoordinator([spec.to_dict() for spec in pending],
                                   store, workers_hint=workers, **options)
    return skipped, serve_with_threads(coordinator, [{}] * workers)


def run_fleet_like_the_cli(store_path, *extra):
    """``repro fleet serve --count 2 --duration 30`` in-process, one
    spec per chunk, with two worker_main threads dialing its port
    until it listens — how a user starts workers beside a serve."""
    port = free_port()
    threads = [threading.Thread(
        target=worker_main, args=("127.0.0.1", port, f"w{index}"),
        kwargs={"connect_timeout": 3.0, "reconnect_attempts": 60,
                "backoff_base": 0.05, "backoff_max": 0.5,
                "backoff_seed": index},
        daemon=True) for index in range(2)]
    for thread in threads:
        thread.start()
    try:
        return run_cli(["fleet", "serve", "--store", store_path,
                        "--count", "2", "--host", "127.0.0.1",
                        "--port", str(port), "--chunk-size", "1",
                        "--wait-timeout", "120"] + BASE + list(extra))
    finally:
        for thread in threads:
            thread.join(timeout=30.0)


class TestFleetEqualsSingleBox:
    def test_inprocess_fleet_matches_single_box(self, tmp_path):
        seeds = range(6)
        single = ResultStore(str(tmp_path / "single"))
        Campaign.seed_sweep(gen_spec, seeds, workers=1).run(store=single)

        fleet_store = ResultStore(str(tmp_path / "fleet"))
        __, stats = serve_pending(
            Campaign.seed_sweep(gen_spec, seeds, workers=1), fleet_store,
            chunk_size=2, lease_timeout=30.0)
        assert stats.merged == 6
        assert stats.failed_chunks == 0
        assert_stores_equal(single, fleet_store)
        # shard directories are merged away
        assert not os.path.isdir(os.path.join(fleet_store.path, "shards"))
        # and the merged store is self-describing
        (run,) = fleet_store.metadata["runs"]
        assert run["transport"] == "fleet"
        assert run["workers"] == 2
        assert run["repro_version"] == repro.__version__
        assert run["merged_from"]

    def test_fleet_resume_completes_only_missing(self, tmp_path):
        """Fleet execution honors the store resume contract: pairs
        already persisted are skipped, and the completed store equals
        an uninterrupted single-box run."""
        full = ResultStore(str(tmp_path / "full"))
        Campaign.seed_sweep(tiny_spec, range(6), workers=1).run(store=full)

        part = ResultStore(str(tmp_path / "part"))
        Campaign.seed_sweep(tiny_spec, range(3), workers=1).run(store=part)
        skipped, stats = serve_pending(
            Campaign.seed_sweep(tiny_spec, range(6), workers=1),
            ResultStore(str(tmp_path / "part")), chunk_size=1)
        assert skipped == 3
        assert stats.merged == 3
        assert_stores_equal(full, ResultStore(str(tmp_path / "part")))


class TestWorkStealing:
    def test_sigkilled_worker_chunks_reclaimed_and_rerun(self, tmp_path):
        """The hard half of the acceptance criterion: a TCP worker is
        SIGKILLed mid-chunk; the coordinator reclaims on the dead
        connection, a second worker re-runs the chunk, duplicates are
        deduped, and the merged store still equals single-box."""
        specs = [tiny_spec(seed) for seed in range(6)]
        single = ResultStore(str(tmp_path / "single"))
        Campaign(specs, workers=1).run(store=single)

        store = ResultStore(str(tmp_path / "fleet"))
        coordinator = FleetCoordinator(
            [spec.to_dict() for spec in specs], store,
            chunk_size=3, lease_timeout=30.0)

        def launch(address):
            host, port = address
            # The victim: a real `repro fleet join` process that
            # SIGKILLs itself after streaming 2 of its chunk's 3
            # records (the self-kill test hook).
            victim = subprocess.run(
                [sys.executable, "-m", "repro.cli", "fleet", "join",
                 f"{host}:{port}", "--worker-id", "victim"],
                env=join_env(REPRO_FLEET_SELFKILL_AFTER="2"),
                timeout=120, capture_output=True)
            assert victim.returncode == -9  # SIGKILL, not a clean exit

            # A healthy worker finishes the sweep, including the
            # reclaimed chunk.
            assert worker_main(host, port, worker_id="healthy") == 0

        stats = coordinator.serve(wait_timeout=60.0, on_listening=launch)
        assert stats.reclaimed >= 1
        assert stats.duplicates_dropped >= 1   # the victim's partials
        assert stats.failed_chunks == 0
        assert stats.unfinished == 0
        assert sorted(stats.workers) == ["healthy", "victim"]
        assert_stores_equal(single, ResultStore(str(tmp_path / "fleet")))

    def test_silent_worker_lease_expires_and_is_stolen(self, tmp_path):
        """A worker that takes a lease and goes quiet (no records, no
        heartbeats) loses it after lease_timeout; a live worker steals
        the chunk and the sweep completes."""
        specs = [tiny_spec(seed) for seed in range(2)]
        store = ResultStore(str(tmp_path / "store"))
        coordinator = FleetCoordinator(
            [spec.to_dict() for spec in specs], store,
            chunk_size=1, lease_timeout=0.6)
        coordinator.start()
        zombie = socket.create_connection(coordinator.address, timeout=5.0)
        try:
            send_message(zombie, {"type": "hello", "worker": "zombie",
                                  "protocol": PROTOCOL_VERSION})
            assert recv_message(zombie)["type"] == "welcome"
            send_message(zombie, {"type": "request"})
            grant = recv_message(zombie)
            assert grant["type"] == "chunk"
            # ... and then say nothing, forever.

            thread = threading.Thread(
                target=worker_main,
                args=(*coordinator.address, "thief"), daemon=True)
            thread.start()
            assert coordinator.wait(60.0)
            thread.join(timeout=30.0)
        finally:
            zombie.close()
            coordinator.stop()
        stats = coordinator.finish()
        assert stats.reclaimed >= 1
        assert stats.unfinished == 0
        assert len(ResultStore(str(tmp_path / "store"))) == 2

    def test_all_workers_dead_fails_fast_and_salvages(self, tmp_path):
        """A run whose every worker died with work pending ends at
        ``wait_timeout`` instead of hanging — and whatever the dead
        worker already completed is merged into the store, so the next
        run re-runs only the genuinely unfinished specs."""
        store = ResultStore(str(tmp_path / "store"))
        campaign = Campaign([tiny_spec(seed) for seed in range(4)],
                            workers=1)
        pending, __ = campaign.pending(store)
        coordinator = FleetCoordinator(
            [spec.to_dict() for spec in pending], store,
            chunk_size=1, lease_timeout=2.0)

        def launch(address):
            victim = subprocess.run(
                [sys.executable, "-m", "repro.cli", "fleet", "join",
                 f"{address[0]}:{address[1]}", "--worker-id", "victim"],
                env=join_env(REPRO_FLEET_SELFKILL_AFTER="1"),
                timeout=120, capture_output=True)
            assert victim.returncode == -9

        with pytest.raises(ConfigurationError,
                           match=r"did not finish within 1\.0s"):
            coordinator.serve(wait_timeout=1.0, on_listening=launch)
        salvaged = ResultStore(str(tmp_path / "store"))
        assert len(salvaged) == 1  # the record sent before the SIGKILL
        # ...and a healthy second run completes only the other three.
        skipped, stats = serve_pending(campaign, salvaged, workers=1,
                                       chunk_size=1)
        assert skipped == 1
        assert stats.merged == 3
        full = ResultStore(str(tmp_path / "full"))
        Campaign([tiny_spec(seed) for seed in range(4)],
                 workers=1).run(store=full)
        assert_stores_equal(full, ResultStore(str(tmp_path / "store")))


class TestColumnarFleet:
    """Satellite of the columnar store: a fleet campaign whose target
    (and therefore shard) stores are columnar must survive a SIGKILLed
    worker and merge to the exact digest of a single-box JSONL run —
    the two formats and the two execution paths all agree."""

    def test_columnar_fleet_with_sigkill_matches_jsonl_single_box(
            self, tmp_path):
        numpy = pytest.importorskip("numpy")  # noqa: F841
        specs = [tiny_spec(seed) for seed in range(6)]
        single = ResultStore(str(tmp_path / "single"))
        Campaign(specs, workers=1).run(store=single)

        # segment_rows=2: the merge's leftover batches seal segments
        # mid-merge, exercising the tail/segment transition under load.
        store = ResultStore(str(tmp_path / "fleet"), format="columnar",
                            segment_rows=2)
        coordinator = FleetCoordinator(
            [spec.to_dict() for spec in specs], store,
            chunk_size=3, lease_timeout=30.0)

        def launch(address):
            host, port = address
            victim = subprocess.run(
                [sys.executable, "-m", "repro.cli", "fleet", "join",
                 f"{host}:{port}", "--worker-id", "victim"],
                env=join_env(REPRO_FLEET_SELFKILL_AFTER="2"),
                timeout=120, capture_output=True)
            assert victim.returncode == -9
            assert worker_main(host, port, worker_id="healthy") == 0

        stats = coordinator.serve(wait_timeout=60.0, on_listening=launch)
        assert stats.reclaimed >= 1
        assert stats.failed_chunks == 0
        assert stats.unfinished == 0
        assert stats.failed == 0

        merged = ResultStore(str(tmp_path / "fleet"))
        assert merged.storage_format == "columnar"
        assert merged.keys() == single.keys()
        assert merged.fingerprints() == single.fingerprints()
        assert merged.canonical_digest() == single.canonical_digest()
        assert diff_stores(single, merged).identical
        # shard stores (columnar too) were merged away
        assert not os.path.isdir(os.path.join(merged.path, "shards"))

    def test_cli_columnar_fleet_and_convert_round_trip(self, tmp_path):
        """The CI gating path in miniature: a columnar fleet campaign,
        converted to JSONL, diffs clean against the columnar original
        and against a plain JSONL run of the same sweep."""
        pytest.importorskip("numpy")
        base = str(tmp_path / "base")
        col = str(tmp_path / "col")
        code, __ = run_cli(["campaign", "run", "--store", base,
                            "--count", "2", "--workers", "1"] + BASE)
        assert code == 0
        code, __ = run_fleet_like_the_cli(col, "--store-format",
                                          "columnar")
        assert code == 0
        assert ResultStore(col, readonly=True).storage_format == "columnar"
        code, out = run_cli(["campaign", "diff", base, col])
        assert code == 0 and "equivalent" in out
        code, out = run_cli(["campaign", "report", "--store", col])
        assert code == 0 and "2 record(s)" in out
        back = str(tmp_path / "back")
        code, out = run_cli(["store", "convert", col, back,
                             "--to", "jsonl"])
        assert code == 0 and "converted 2 record(s)" in out
        code, __ = run_cli(["campaign", "diff", base, back])
        assert code == 0

    def test_cli_fleet_bench(self, tmp_path):
        """The protocol-overhead harness pushes synthetic records
        through real TCP workers and reports a deterministic digest."""
        import json as _json

        keep = str(tmp_path / "benchstore")
        code, out = run_cli(["fleet", "bench", "--records", "40",
                             "--workers", "2", "--chunk-size", "5",
                             "--store", keep, "--json"])
        assert code == 0
        stats = _json.loads(out)
        assert stats["records"] == 40
        assert stats["merged"] == 40
        assert stats["records_per_second"] > 0
        assert stats["wire_bytes_per_record"] > 0
        store = ResultStore(keep, readonly=True)
        assert len(store) == 40
        assert store.canonical_digest() == stats["store_digest"]


class TestChunkRetry:
    """chunk_error handling on synthetic payloads (no scenarios run):
    a failed chunk is re-leased, and exhausting its attempts marks it
    failed instead of looping forever."""

    def _client(self, coordinator, name):
        sock = socket.create_connection(coordinator.address, timeout=5.0)
        send_message(sock, {"type": "hello", "worker": name,
                            "protocol": PROTOCOL_VERSION})
        assert recv_message(sock)["type"] == "welcome"
        return sock

    def test_errored_chunk_requeued_then_failed(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        payloads = [{"name": "s0", "seed": 0}]
        coordinator = FleetCoordinator(payloads, store, chunk_size=1,
                                       lease_timeout=30.0,
                                       max_chunk_attempts=2)
        coordinator.start()
        try:
            with self._client(coordinator, "flaky") as sock:
                for attempt in range(2):
                    send_message(sock, {"type": "request"})
                    grant = recv_message(sock)
                    assert grant["type"] == "chunk"
                    assert grant["chunk"] == 0
                    send_message(sock, {"type": "chunk_error", "chunk": 0,
                                        "error": f"boom {attempt}"})
                # attempts exhausted -> the chunk fails and the run ends
                assert coordinator.wait(10.0)
                send_message(sock, {"type": "request"})
                assert recv_message(sock)["type"] == "done"
        finally:
            coordinator.stop()
        stats = coordinator.finish()
        assert stats.failed_chunks == 1
        assert stats.unfinished == 1
        assert len(store) == 0

    def test_status_snapshot_shape(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        coordinator = FleetCoordinator(
            [{"name": f"s{i}", "seed": i} for i in range(3)],
            store, chunk_size=1, lease_timeout=30.0)
        coordinator.start()
        try:
            with self._client(coordinator, "w") as sock:
                send_message(sock, {"type": "request"})
                assert recv_message(sock)["type"] == "chunk"
                status = coordinator.status()
                assert status["chunks"]["total"] == 3
                assert status["chunks"]["leased"] == 1
                assert status["chunks"]["pending"] == 2
                assert status["workers"]["w"]["connected"] is True
                assert status["done"] is False
        finally:
            coordinator.stop()


class TestFleetCli:
    def test_cli_fleet_run_matches_and_diffs_clean(self, tmp_path):
        base = str(tmp_path / "base")
        flt = str(tmp_path / "flt")
        code, __ = run_cli(["campaign", "run", "--store", base,
                            "--count", "2", "--workers", "1"] + BASE)
        assert code == 0
        code, out = run_fleet_like_the_cli(flt)
        assert code == 0
        assert "2/2 scenario(s) executed" in out
        code, out = run_cli(["campaign", "diff", base, flt])
        assert code == 0
        assert "equivalent" in out

    def test_cli_fleet_serve_counts_the_workers_that_joined(self, tmp_path):
        """A complete store leaves nothing to serve and nobody joins:
        the summary reports 0 workers, not ``--expect-workers``."""
        store = str(tmp_path / "store")
        code, __ = run_cli(["campaign", "run", "--store", store,
                            "--count", "2", "--workers", "1"] + BASE)
        assert code == 0
        code, out = run_cli(["fleet", "serve", "--store", store,
                             "--count", "2", "--host", "127.0.0.1",
                             "--expect-workers", "4"] + BASE)
        assert code == 0
        assert ("0/2 scenario(s) executed (2 already in store, 0 errored)"
                " on 0 worker(s)") in out

    @pytest.mark.parametrize("command", [
        ["campaign", "resume"],
        ["fleet", "serve", "--host", "127.0.0.1", "--wait-timeout", "2"],
    ], ids=["campaign-resume", "fleet-serve"])
    def test_cli_refuses_to_mix_two_sweeps_in_one_store(self, tmp_path,
                                                        command):
        """Different generator flags make a different sweep: continuing
        it in a store that holds none of its (spec, seed) pairs is
        refused before any scenario runs or any coordinator listens."""
        store = str(tmp_path / "store")
        code, __ = run_cli(["campaign", "run", "--store", store,
                            "--count", "2", "--workers", "1"] + BASE)
        assert code == 0
        buffer = io.StringIO()
        with pytest.raises(SystemExit, match=r"none of this sweep's 2 "
                           r"\(spec, seed\) pairs match"), \
                contextlib.redirect_stdout(buffer):
            cli.main(command + ["--store", store, "--count", "2",
                                "--duration", "45"])
        assert "listening" not in buffer.getvalue()
        assert len(ResultStore(store)) == 2

    def test_cli_diff_exits_nonzero_on_divergence(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        run_cli(["campaign", "run", "--store", a, "--count", "2",
                 "--workers", "1"] + BASE)
        run_cli(["campaign", "run", "--store", b, "--count", "1",
                 "--workers", "1"] + BASE)
        code, out = run_cli(["campaign", "diff", a, b])
        assert code == 1
        assert "only in A" in out
        code, out = run_cli(["campaign", "diff", a, b, "--json"])
        assert code == 1

    def test_cli_store_merge(self, tmp_path):
        shard_a = ResultStore(str(tmp_path / "shard_a"))
        Campaign.seed_sweep(tiny_spec, range(2), workers=1).run(
            store=shard_a)
        shard_b = ResultStore(str(tmp_path / "shard_b"))
        Campaign.seed_sweep(tiny_spec, range(1, 4), workers=1).run(
            store=shard_b)
        merged = str(tmp_path / "merged")
        code, out = run_cli(["store", "merge", merged,
                             str(tmp_path / "shard_a"),
                             str(tmp_path / "shard_b")])
        assert code == 0
        assert "merged 4 record(s)" in out
        store = ResultStore(merged)
        assert len(store) == 4
        assert [seed for __, seed in store.keys()] == [0, 1, 2, 3]
        assert store.metadata["runs"][0]["transport"] == "merge"

    def test_cli_fleet_status_unreachable(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            cli.main(["fleet", "status", "127.0.0.1:1"])

    def test_cli_fleet_join_bad_address(self):
        with pytest.raises(SystemExit, match="expected host:port"):
            cli.main(["fleet", "join", "nonsense"])


def run_cli_process(argv):
    """The CLI as a user meets it: a fresh process, exit code and
    stderr lines."""
    proc = subprocess.run([sys.executable, "-m", "repro.cli"] + argv,
                          env=join_env(), timeout=120,
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr.strip().splitlines()


class TestServeFailsClosed:
    """Every way a ``fleet serve`` can fail before or during serving
    ends in one ``repro <command>: <why>`` line and exit 1 — and a
    serve that never listened leaves no crashed-run plan behind."""

    def test_taken_port_leaves_no_plan(self, tmp_path):
        store = str(tmp_path / "store")
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            code, stderr = run_cli_process(
                ["fleet", "serve", "--store", store, "--count", "1",
                 "--host", "127.0.0.1", "--port", str(port)] + BASE)
        assert code == 1
        assert len(stderr) == 1 and "Address already in use" in stderr[0]
        assert PLAN_KEY not in ResultStore(store).metadata

    def test_coordinator_binds_before_writing_the_plan(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            coordinator = FleetCoordinator(
                [tiny_spec(0).to_dict()], store,
                port=holder.getsockname()[1])
            with pytest.raises(OSError):
                coordinator.start()
        assert PLAN_KEY not in ResultStore(store.path).metadata

    @pytest.mark.parametrize("command", ["join", "status", "serve"])
    def test_out_of_range_port_is_one_typed_error(self, tmp_path,
                                                  command):
        store = str(tmp_path / "store")
        argv = {
            "join": ["fleet", "join", "127.0.0.1:70000"],
            "status": ["fleet", "status", "127.0.0.1:70000"],
            "serve": ["fleet", "serve", "--store", store, "--count", "1",
                      "--host", "127.0.0.1", "--port", "70000"] + BASE,
        }[command]
        code, stderr = run_cli_process(argv)
        assert code == 1
        assert len(stderr) == 1, stderr
        assert stderr[0].startswith(f"repro fleet {command}: ")
        assert "70000" in stderr[0] and "65535" in stderr[0]
        if command == "serve":
            assert PLAN_KEY not in ResultStore(store).metadata

    @pytest.mark.parametrize("resume", [False, True],
                             ids=["fresh", "resume"])
    def test_wait_timeout_merges_then_fails(self, tmp_path, resume):
        """No worker ever joins: a fresh serve and a resumed one end
        the same way at ``--wait-timeout`` — exit 1, one stderr line
        naming the timeout, nothing merged, both specs unfinished, and
        the plan cleared by the merge."""
        store = str(tmp_path / "store")
        sweep = ["--count", "2", "--host", "127.0.0.1",
                 "--wait-timeout", "1"] + BASE
        if resume:
            # A crashed run of the same sweep: planned, never merged.
            args = cli.build_parser().parse_args(
                ["fleet", "serve", "--store", store] + sweep)
            coordinator = FleetCoordinator(
                [spec.to_dict() for spec in
                 cli._campaign_from_args(args).specs],
                ResultStore(store))
            coordinator.start()
            coordinator.stop()
            assert PLAN_KEY in ResultStore(store).metadata
            sweep = sweep + ["--resume"]
        code, stderr = run_cli_process(["fleet", "serve", "--store", store]
                                       + sweep)
        assert code == 1
        assert stderr == [
            f"repro fleet serve: fleet run did not finish within 1.0s: "
            f"0 completed record(s) merged into {store}, 2 scenario(s) "
            f"unfinished"]
        merged = ResultStore(store)
        assert len(merged) == 0
        assert PLAN_KEY not in merged.metadata
        assert merged.metadata["runs"][-1]["merged"] == 0
