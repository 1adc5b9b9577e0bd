"""Integration: fleet crash durability end to end.

The acceptance contract of the journal/resume/chaos work: kill the
coordinator at an arbitrary point (abandoned mid-run in process, or
SIGKILLed as a real ``fleet serve`` process), resume from the journal,
and the finished store is bit-for-bit the uninterrupted single-box
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
    ChaosTransport,
    FleetCoordinator,
    FleetExecutor,
    FleetJournal,
    default_journal_path,
    recv_message,
    resume_coordinator,
    send_message,
    worker_main,
)
from repro.fleet.protocol import PROTOCOL_VERSION
from repro.results import ResultStore, diff_stores
from repro.results.records import make_record
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
    journal + surviving shards carry the run to the identical digest."""

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
            # its completion makes it to the journal
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
            # dedup map die with the process; only the journal and the
            # fsync'd shard appends survive.
            coordinator.stop()
        journal_path = default_journal_path(store_path)
        assert os.path.exists(journal_path)

        resumed = resume_coordinator(journal_path)
        resumed.start()
        try:
            host, port = resumed.address
            thread = threading.Thread(target=worker_main,
                                      args=(host, port, "healer"),
                                      daemon=True)
            thread.start()
            assert resumed.wait(120.0)
            resumed.drain()
        finally:
            resumed.stop()
        stats = resumed.finish(transport="tcp")

        full_chunks = kill_after // 2   # chunk_size=2, 2 chunks total
        assert stats.resumed is True
        assert stats.reingested_records == kill_after
        assert stats.reingested_chunks == full_chunks
        assert stats.requeued_lost == 2 - full_chunks
        assert stats.failed_chunks == 0
        assert stats.unfinished == 0
        assert stats.stopped_cleanly is True
        assert_stores_equal(reference_store, ResultStore(store_path))

        events = [e["event"] for e in FleetJournal.read_events(journal_path)]
        assert events[0] == "plan"
        assert "resume" in events
        assert events[-1] == "finished"

    def test_resume_survives_torn_journal_tail(self, tmp_path,
                                               reference_store):
        """The journal's newest transitions are expendable: tear the
        tail (crash mid-append) and the resume still converges on the
        same digest, because coverage comes from disk."""
        specs = [tiny_spec(seed) for seed in range(4)]
        store_path = str(tmp_path / "fleet")
        coordinator = FleetCoordinator(
            [spec.to_dict() for spec in specs],
            ResultStore(store_path), chunk_size=2, lease_timeout=30.0)
        coordinator.start()
        try:
            self._crash_after(coordinator,
                              [spec.to_dict() for spec in specs], 3)
        finally:
            coordinator.stop()
        journal_path = default_journal_path(store_path)
        with open(journal_path, "ab") as handle:
            handle.write(b'{"event": "done", "chunk"')  # torn mid-append

        resumed = resume_coordinator(journal_path)
        resumed.start()
        try:
            thread = threading.Thread(target=worker_main,
                                      args=(*resumed.address, "healer"),
                                      daemon=True)
            thread.start()
            assert resumed.wait(120.0)
            resumed.drain()
        finally:
            resumed.stop()
        stats = resumed.finish(transport="tcp")
        assert stats.reingested_records == 3
        assert stats.unfinished == 0
        assert_stores_equal(reference_store, ResultStore(store_path))


class TestResumeRefusals:
    def test_no_plan_means_nothing_to_resume(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with FleetJournal(path, fresh=True) as journal:
            journal.append("lease", chunk=0, worker="w", attempts=1)
        with pytest.raises(ConfigurationError, match="no plan"):
            resume_coordinator(path)

    def test_finished_journal_refused(self, tmp_path, reference_store):
        """A journal whose run merged cleanly has nothing to resume —
        its shards are gone, so a 'resume' would re-run everything
        under the false flag of crash recovery."""
        specs = [tiny_spec(seed) for seed in range(4)]
        store_path = str(tmp_path / "fleet")
        stats = Campaign(specs, workers=1).run(
            store=ResultStore(store_path),
            executor=FleetExecutor(workers=2, transport="inprocess",
                                   chunk_size=2))
        assert stats.fleet["unfinished"] == 0
        with pytest.raises(ConfigurationError, match="completed run"):
            resume_coordinator(default_journal_path(store_path))

    def test_journal_false_disables_durability(self, tmp_path):
        """An explicitly journal-less run must not leave a journal
        behind (opt-out for stores on slow shared filesystems)."""
        store_path = str(tmp_path / "fleet")
        Campaign([tiny_spec(0)], workers=1).run(
            store=ResultStore(store_path),
            executor=FleetExecutor(workers=1, transport="inprocess",
                                   journal=False))
        assert not os.path.exists(default_journal_path(store_path))


class TestChaosDigest:
    """The tentpole invariant: a fleet run under a seeded chaos
    schedule — torn frames, garbage, injected disconnects, reconnect
    storms — still merges to the uninterrupted single-box digest."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chaos_fleet_matches_single_box(self, tmp_path,
                                            reference_store, seed):
        specs = [tiny_spec(s) for s in range(4)]
        store_path = str(tmp_path / f"chaos-{seed}")
        transport = ChaosTransport(seed=seed, fault_rate=0.7, max_faults=6)
        stats = Campaign(specs, workers=1).run(
            store=ResultStore(store_path),
            executor=FleetExecutor(workers=2, transport=transport,
                                   chunk_size=1, lease_timeout=30.0))
        assert transport.faults_injected() > 0, \
            "chaos schedule injected nothing; the test tested nothing"
        assert stats.fleet["unfinished"] == 0
        assert stats.fleet["failed_chunks"] == 0
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
    reconnect/backoff; ``fleet serve --resume`` on the same port picks
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

        journal_path = default_journal_path(store_path)
        code, out = run_cli(["fleet", "serve", "--resume", journal_path,
                             "--host", "127.0.0.1", "--port", str(port),
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
