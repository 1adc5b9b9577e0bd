"""Integration: fleet crash durability end to end.

The acceptance contract of the plan/resume/chaos work: kill the
coordinator at an arbitrary point (abandoned mid-run in process, or
SIGKILLed as a real ``fleet serve`` process), resume from the plan the
run left in its store's metadata, and the finished store is bit-for-bit the uninterrupted single-box
store — with the crashed run's surviving shard records *re-ingested*
(counted in FleetRunStats) instead of re-run.  Plus: the digest holds
under a seeded chaos schedule tearing worker connections, and a worker
that keeps erroring is quarantined.
"""

import contextlib
import io
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import cli
from repro.api.metrics import scenario_metrics
from repro.core.errors import ConfigurationError
from repro.fleet import (
    ChaosSchedule,
    FleetCoordinator,
    recv_message,
    resume_coordinator,
    send_message,
    worker_main,
)
from repro.fleet.coordinator import PLAN_KEY
from repro.fleet.protocol import PROTOCOL_VERSION
from repro.results import ResultStore, diff_stores, list_shards
from repro.results.records import make_record
from repro.results.store import SHARDS_DIR
from repro.scenarios import Campaign, ScenarioSpec
from repro.scenarios.campaign import run_scenario_dict_safe
from repro.scenarios.runner import result_fingerprint


def tiny_spec(seed):
    return ScenarioSpec(name=f"tiny-{seed}", seed=seed, duration=3.0)


def produce_record(payload):
    """Exactly what a fleet worker streams for one spec payload."""
    raw = run_scenario_dict_safe(payload)
    return make_record(payload, raw, fingerprint=result_fingerprint(raw),
                       metrics=scenario_metrics(raw))


def assert_stores_equal(reference, candidate):
    assert candidate.keys() == reference.keys()
    assert candidate.fingerprints() == reference.fingerprints()
    assert candidate.canonical_digest() == reference.canonical_digest()
    assert diff_stores(reference, candidate).identical


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


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


@pytest.fixture(scope="module")
def reference_store(tmp_path_factory):
    """One uninterrupted single-box run of the module's 4-spec sweep."""
    path = str(tmp_path_factory.mktemp("ref") / "store")
    store = ResultStore(path)
    Campaign([tiny_spec(seed) for seed in range(4)],
             workers=1).run(store=store)
    return ResultStore(path, readonly=True)


class TestCoordinatorCrashResume:
    """In-process coordinator death at parameterized kill points: the
    plan + surviving shards carry the run to the identical digest."""

    def _crash_after(self, coordinator, payloads, kill_after):
        """Drive the coordinator like a worker would, then vanish
        (socket slammed, no chunk_done for the tail) once
        ``kill_after`` records are ingested — and abandon the
        coordinator without finish(), exactly what a crash leaves."""
        if kill_after == 0:
            return
        sock = socket.create_connection(coordinator.address, timeout=5.0)
        try:
            send_message(sock, {"type": "hello", "worker": "crashy",
                                "protocol": PROTOCOL_VERSION})
            assert recv_message(sock)["type"] == "welcome"
            self._stream_records(sock, kill_after)
            # Sent is not ingested: the caller's stop() shuts the
            # server side down and discards unread frames, so wait for
            # the coordinator's own counters before vanishing.
            self._wait_ingested(coordinator, kill_after)
        finally:
            sock.close()

    @staticmethod
    def _stream_records(sock, kill_after):
        sent = 0
        while sent < kill_after:
            send_message(sock, {"type": "request"})
            grant = recv_message(sock)
            assert grant["type"] == "chunk"
            for payload in grant["specs"]:
                if sent >= kill_after:
                    return  # die mid-chunk
                send_message(sock, {"type": "record",
                                    "chunk": grant["chunk"],
                                    "record": produce_record(payload)})
                sent += 1
            # the chunk streamed fully before the crash point ->
            # its completion reaches the coordinator
            send_message(sock, {"type": "chunk_done",
                                "chunk": grant["chunk"]})

    @staticmethod
    def _wait_ingested(coordinator, records, chunk_size=2, deadline=30.0):
        give_up = time.monotonic() + deadline
        while time.monotonic() < give_up:
            status = coordinator.status()
            if (status["records_ingested"] >= records
                    and status["chunks"].get("done", 0)
                    >= records // chunk_size):
                return
            time.sleep(0.01)
        raise AssertionError(
            f"coordinator never ingested {records} record(s): "
            f"{coordinator.status()}")

    @pytest.mark.parametrize("kill_after", [0, 1, 2, 4])
    def test_resume_matches_uninterrupted_digest(self, tmp_path,
                                                 reference_store,
                                                 kill_after):
        specs = [tiny_spec(seed) for seed in range(4)]
        payloads = [spec.to_dict() for spec in specs]
        store_path = str(tmp_path / "fleet")
        store = ResultStore(store_path)
        coordinator = FleetCoordinator(payloads, store, chunk_size=2,
                                       lease_timeout=30.0)
        coordinator.start()
        try:
            self._crash_after(coordinator, payloads, kill_after)
        finally:
            # The crash: no drain, no finish — the lease table and
            # dedup map die with the process; only the plan and the
            # fsync'd shard appends survive.
            coordinator.stop()
        assert PLAN_KEY in ResultStore(store_path).metadata

        stats = serve_with_threads(resume_coordinator(store_path), [{}])

        full_chunks = kill_after // 2   # chunk_size=2, 2 chunks total
        assert stats.resumed is True
        assert stats.reingested_records == kill_after
        assert stats.reingested_chunks == full_chunks
        assert stats.requeued_lost == 2 - full_chunks
        assert stats.failed_chunks == 0
        assert stats.unfinished == 0
        assert stats.stopped_cleanly is True
        assert_stores_equal(reference_store, ResultStore(store_path))
        assert PLAN_KEY not in ResultStore(store_path).metadata

    def test_resume_after_death_mid_merge(self, tmp_path, reference_store):
        """Every chunk done, then the coordinator dies inside the merge:
        the plan is still there, every key is covered, so the resume
        re-runs nothing and re-ingests the whole sweep."""
        specs = [tiny_spec(seed) for seed in range(4)]
        payloads = [spec.to_dict() for spec in specs]
        store_path = str(tmp_path / "fleet")
        store = ResultStore(store_path)
        coordinator = FleetCoordinator(payloads, store, chunk_size=2,
                                       lease_timeout=30.0)
        coordinator.start()
        try:
            self._crash_after(coordinator, payloads, 4)
            assert coordinator.wait(0)
        finally:
            coordinator.stop()
        # The merge landed one record before the crash.
        (shard_path,) = list_shards(os.path.join(store_path, SHARDS_DIR))
        store.append(next(ResultStore(shard_path).iter_records()))

        stats = resume_coordinator(store_path).serve(wait_timeout=10.0)
        assert stats.requeued_lost == 0
        assert stats.reingested_chunks == 2
        assert stats.reingested_records == 3
        assert stats.unfinished == 0
        assert_stores_equal(reference_store, ResultStore(store_path))
        assert PLAN_KEY not in ResultStore(store_path).metadata


class TestResumeRefusals:
    def test_no_plan_means_nothing_to_resume(self, tmp_path):
        store = ResultStore(str(tmp_path / "fleet"))
        store.update_metadata({"purpose": "not a fleet run"})
        with pytest.raises(ConfigurationError, match="no fleet plan"):
            resume_coordinator(store.path)

    @pytest.mark.parametrize("damage", ["missing", "corrupt"])
    def test_lost_metadata_means_nothing_to_resume(self, tmp_path, damage):
        """The plan lives in meta.json: without a readable one the
        crashed run cannot be rebuilt, and resume says so."""
        store = ResultStore(str(tmp_path / "fleet"))
        coordinator = FleetCoordinator([tiny_spec(0).to_dict()], store)
        coordinator.start()
        coordinator.stop()
        assert PLAN_KEY in store.metadata
        if damage == "missing":
            os.remove(store.metadata_path)
        else:
            with open(store.metadata_path, "w", encoding="utf-8") as handle:
                handle.write('{"fleet_plan": {"chunks"')
        with pytest.raises(ConfigurationError, match="no fleet plan"):
            resume_coordinator(store.path)

    def test_finished_journal_refused(self, tmp_path, reference_store):
        """A run that merged cleanly clears its plan and has nothing to
        resume — its shards are gone, so a 'resume' would re-run
        everything under the false flag of crash recovery."""
        specs = [tiny_spec(seed) for seed in range(4)]
        store_path = str(tmp_path / "fleet")
        stats = serve_with_threads(FleetCoordinator(
            [spec.to_dict() for spec in specs], ResultStore(store_path),
            chunk_size=2), [{}, {}])
        assert stats.unfinished == 0
        assert PLAN_KEY not in ResultStore(store_path).metadata
        with pytest.raises(ConfigurationError, match="completed run"):
            resume_coordinator(store_path)


class TestChaosDigest:
    """The tentpole invariant: a fleet run under a seeded chaos
    schedule — torn frames, garbage, injected disconnects, reconnect
    storms — still merges to the uninterrupted single-box digest."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chaos_fleet_matches_single_box(self, tmp_path,
                                            reference_store, seed):
        specs = [tiny_spec(s) for s in range(4)]
        store_path = str(tmp_path / f"chaos-{seed}")
        # One schedule per worker, seeds a large odd stride apart so
        # the two fault streams are disjoint; generous reconnect
        # settings ride out every fault in the finite budget.
        schedules = [ChaosSchedule(seed=seed * 1_000_003 + index,
                                   fault_rate=0.7, max_faults=6)
                     for index in range(2)]
        stats = serve_with_threads(
            FleetCoordinator([spec.to_dict() for spec in specs],
                             ResultStore(store_path), chunk_size=1,
                             lease_timeout=30.0),
            [{"socket_wrapper": schedule, "reconnect_attempts": 64,
              "backoff_base": 0.01, "backoff_max": 0.25,
              "backoff_seed": seed * 7_919 + index}
             for index, schedule in enumerate(schedules)])
        assert sum(s.faults_injected for s in schedules) > 0, \
            "chaos schedule injected nothing; the test tested nothing"
        assert stats.unfinished == 0
        assert stats.failed_chunks == 0
        assert_stores_equal(reference_store, ResultStore(store_path))


class TestQuarantine:
    def test_repeated_chunk_errors_quarantine_the_worker(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        coordinator = FleetCoordinator(
            [{"name": "s0", "seed": 0}], store, chunk_size=1,
            lease_timeout=30.0, max_chunk_attempts=10, quarantine_after=2)
        coordinator.start()
        try:
            sock = socket.create_connection(coordinator.address,
                                            timeout=5.0)
            with sock:
                send_message(sock, {"type": "hello", "worker": "flaky",
                                    "protocol": PROTOCOL_VERSION})
                assert recv_message(sock)["type"] == "welcome"
                for attempt in range(2):
                    send_message(sock, {"type": "request"})
                    assert recv_message(sock)["type"] == "chunk"
                    send_message(sock, {"type": "chunk_error", "chunk": 0,
                                        "error": f"boom {attempt}"})
                # The second strike trips quarantine: an error frame,
                # then the connection is gone.
                reply = recv_message(sock)
                assert reply["type"] == "error"
                assert "quarantined" in reply["message"]
            # Re-hello under the same identity is refused outright.
            with socket.create_connection(coordinator.address,
                                          timeout=5.0) as sock2:
                send_message(sock2, {"type": "hello", "worker": "flaky",
                                     "protocol": PROTOCOL_VERSION})
                reply = recv_message(sock2)
                assert reply["type"] == "error"
                assert "quarantined" in reply["message"]
            assert coordinator.stats.quarantined == ["flaky"]
            assert coordinator.status()["quarantined"] == ["flaky"]
            # ...and a healthy worker still gets the re-queued chunk.
            with socket.create_connection(coordinator.address,
                                          timeout=5.0) as sock3:
                send_message(sock3, {"type": "hello", "worker": "ok",
                                     "protocol": PROTOCOL_VERSION})
                assert recv_message(sock3)["type"] == "welcome"
                send_message(sock3, {"type": "request"})
                assert recv_message(sock3)["type"] == "chunk"
        finally:
            coordinator.stop()


class TestSigkilledServeResume:
    """The CI chaos job in miniature: a real ``fleet serve`` process
    SIGKILLs itself mid-ingest; a worker outlives the dead window via
    reconnect/backoff; ``fleet serve --store … --resume`` on the same
    port picks
    the run up and lands the single-box digest."""

    def test_sigkill_serve_then_resume_identical(self, tmp_path):
        flags = ["--count", "4", "--seed-base", "0", "--duration", "30"]
        ref = str(tmp_path / "ref")
        code, __ = run_cli(["campaign", "run", "--store", ref,
                            "--workers", "1"] + flags)
        assert code == 0

        # Pick the port up front: the resumed coordinator must listen
        # where the surviving worker's reconnect loop is knocking.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        store_path = str(tmp_path / "fleet")
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_FLEET_COORD_SELFKILL_AFTER"] = "3"
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "fleet", "serve",
             "--store", store_path, "--host", "127.0.0.1",
             "--port", str(port), "--chunk-size", "1",
             "--expect-workers", "1"] + flags,
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

        exit_codes = []
        worker = threading.Thread(
            target=lambda: exit_codes.append(worker_main(
                "127.0.0.1", port, worker_id="survivor",
                connect_timeout=3.0, reconnect_attempts=60,
                backoff_base=0.05, backoff_max=0.5, backoff_seed=1)),
            daemon=True)
        worker.start()
        try:
            assert serve.wait(timeout=180) == -9  # SIGKILL, mid-ingest
        except Exception:
            serve.kill()
            raise

        assert PLAN_KEY in ResultStore(store_path).metadata
        code, out = run_cli(["fleet", "serve", "--store", store_path,
                             "--resume", "--host", "127.0.0.1", "--port", str(port),
                             "--wait-timeout", "150", "--json"])
        assert code == 0, out
        worker.join(timeout=60.0)
        stats = json.loads(out[out.index("{"):])
        assert stats["resumed"] is True
        assert stats["reingested_records"] == 3
        assert stats["requeued_lost"] == 1
        assert stats["unfinished"] == 0
        assert stats["failed_chunks"] == 0
        assert stats["stopped_cleanly"] is True
        assert exit_codes == [0]  # the worker rode out the crash

        assert_stores_equal(ResultStore(ref, readonly=True),
                            ResultStore(store_path, readonly=True))
        assert PLAN_KEY not in ResultStore(store_path).metadata
