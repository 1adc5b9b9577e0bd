"""Unit: the fleet wire protocol — round-trips, and the robustness
contract that truncated/garbage frames surface as ProtocolError (and
never crash a live coordinator), including disconnects torn through
the length prefix or the payload by the chaos harness."""

import os
import socket
import struct

import pytest

from repro.fleet import (
    ChaosSchedule,
    FleetCoordinator,
    ProtocolError,
    encode_frame,
    parse_address,
    recv_message,
    send_message,
)
from repro.fleet.protocol import PROTOCOL_VERSION, decode_payload
from repro.results import ResultStore


def sock_pair():
    return socket.socketpair()


class TestFrames:
    def test_round_trip(self):
        a, b = sock_pair()
        with a, b:
            message = {"type": "record", "chunk": 3,
                       "record": {"spec_hash": "ab", "seed": 7,
                                  "metrics": {"x": 1.5}}}
            send_message(a, message)
            assert recv_message(b) == message

    def test_many_frames_in_sequence(self):
        a, b = sock_pair()
        with a, b:
            for index in range(50):
                send_message(a, {"type": "heartbeat", "n": index})
            for index in range(50):
                assert recv_message(b)["n"] == index

    def test_clean_eof_is_none(self):
        a, b = sock_pair()
        with b:
            a.close()
            assert recv_message(b) is None

    def test_truncated_header_is_protocol_error(self):
        a, b = sock_pair()
        with b:
            a.sendall(b"\x00\x00")  # half a length prefix
            a.close()
            with pytest.raises(ProtocolError):
                recv_message(b)

    def test_truncated_payload_is_protocol_error(self):
        a, b = sock_pair()
        with b:
            frame = encode_frame({"type": "hello"})
            a.sendall(frame[:-3])  # header promises more than arrives
            a.close()
            with pytest.raises(ProtocolError):
                recv_message(b)

    def test_hostile_length_is_protocol_error(self):
        a, b = sock_pair()
        with a, b:
            a.sendall(struct.pack(">I", 1 << 31) + b"x")
            with pytest.raises(ProtocolError, match="exceeds"):
                recv_message(b)

    def test_garbage_json_is_protocol_error(self):
        for payload in (b"not json at all", b"[1, 2, 3]", b'"string"',
                        b"{}", b'{"no_type": 1}', b'{"type": 42}',
                        b"\xff\xfe\x00garbage"):
            with pytest.raises(ProtocolError):
                decode_payload(payload)

    def test_random_garbage_fuzz(self):
        """Random byte soup must always be an error or clean EOF,
        never an unhandled exception."""
        rng_bytes = os.urandom
        for trial in range(40):
            a, b = sock_pair()
            with b:
                blob = rng_bytes(trial * 7 % 97 + 1)
                a.sendall(blob)
                a.close()
                try:
                    while True:
                        if recv_message(b) is None:
                            break
                except ProtocolError:
                    pass


class TestParseAddress:
    def test_good(self):
        assert parse_address("somehost:7654") == ("somehost", 7654)
        assert parse_address("10.0.0.2:80") == ("10.0.0.2", 80)
        assert parse_address("h:1") == ("h", 1)
        assert parse_address("h:65535") == ("h", 65535)

    # A port outside 1..65535 must be refused here: getaddrinfo wraps
    # it instead (70000 dials 4464).
    @pytest.mark.parametrize("raw", ["nohost", ":99", "host:", "host:abc",
                                     "h:0", "h:65536", "h:70000", "h:-1"])
    def test_bad(self, raw):
        with pytest.raises(ProtocolError):
            parse_address(raw)


class TestCoordinatorSurvivesGarbage:
    """The acceptance clause: hostile bytes on the wire must not take
    the coordinator (or the sweep) down."""

    @pytest.fixture
    def coordinator(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        payloads = [{"name": f"s{i}", "seed": i} for i in range(2)]
        coord = FleetCoordinator(payloads, store, chunk_size=1,
                                 lease_timeout=5.0)
        coord.start()
        yield coord
        coord.stop()

    def _connect(self, coordinator):
        return socket.create_connection(coordinator.address, timeout=5.0)

    def test_garbage_connection_is_dropped_not_fatal(self, coordinator):
        with self._connect(coordinator) as sock:
            sock.sendall(b"\xde\xad\xbe\xef" * 64)
            # The coordinator answers with an error frame or just
            # hangs up; either way it keeps serving.
            sock.settimeout(5.0)
            try:
                while recv_message(sock) is not None:
                    pass
            except ProtocolError:
                pass
        # A well-behaved client still gets served afterwards.
        with self._connect(coordinator) as sock:
            send_message(sock, {"type": "status"})
            reply = recv_message(sock)
            assert reply["type"] == "status_reply"
            assert reply["status"]["chunks"]["total"] == 2

    def test_truncated_frame_then_reconnect(self, coordinator):
        sock = self._connect(coordinator)
        sock.sendall(encode_frame({"type": "hello", "worker": "w",
                                   "protocol": PROTOCOL_VERSION})[:-2])
        sock.close()  # torn mid-frame, like a SIGKILL
        with self._connect(coordinator) as sock2:
            send_message(sock2, {"type": "status"})
            assert recv_message(sock2)["type"] == "status_reply"

    def test_request_before_hello_rejected(self, coordinator):
        with self._connect(coordinator) as sock:
            send_message(sock, {"type": "request"})
            reply = recv_message(sock)
            assert reply["type"] == "error"

    def test_wrong_protocol_version_rejected(self, coordinator):
        with self._connect(coordinator) as sock:
            send_message(sock, {"type": "hello", "worker": "old",
                                "protocol": PROTOCOL_VERSION + 1})
            reply = recv_message(sock)
            assert reply["type"] == "error"
            assert "version" in reply["message"]

    def test_bad_record_rejected_but_survivable(self, coordinator):
        with self._connect(coordinator) as sock:
            send_message(sock, {"type": "hello", "worker": "w",
                                "protocol": PROTOCOL_VERSION})
            assert recv_message(sock)["type"] == "welcome"
            send_message(sock, {"type": "record", "chunk": 0,
                                "record": {"seed": "not-an-int"}})
            reply = recv_message(sock)
            assert reply["type"] == "error"
        with self._connect(coordinator) as sock2:
            send_message(sock2, {"type": "status"})
            assert recv_message(sock2)["type"] == "status_reply"

    def test_unhashable_chunk_id_rejected_not_fatal(self, coordinator):
        """A chunk_done/chunk_error whose id is not an int (e.g. an
        unhashable list) must come back as a protocol error, not kill
        the serving thread."""
        for payload in ({"type": "chunk_done", "chunk": []},
                        {"type": "chunk_error", "chunk": {"a": 1},
                         "error": "x"},
                        {"type": "chunk_done", "chunk": "zero"}):
            with self._connect(coordinator) as sock:
                send_message(sock, {"type": "hello", "worker": "w",
                                    "protocol": PROTOCOL_VERSION})
                assert recv_message(sock)["type"] == "welcome"
                send_message(sock, payload)
                assert recv_message(sock)["type"] == "error"
        with self._connect(coordinator) as sock:
            send_message(sock, {"type": "status"})
            assert recv_message(sock)["type"] == "status_reply"

    def test_record_outside_sweep_rejected(self, coordinator):
        """A record whose (spec_hash, seed) is not part of the sweep
        (mismatched worker build, or hostile) must not be ingested."""
        with self._connect(coordinator) as sock:
            send_message(sock, {"type": "hello", "worker": "rogue",
                                "protocol": PROTOCOL_VERSION})
            assert recv_message(sock)["type"] == "welcome"
            send_message(sock, {"type": "record", "chunk": 0,
                                "record": {"spec_hash": "feedfeedfeedfeed",
                                           "seed": 999, "result": {}}})
            assert recv_message(sock)["type"] == "error"
        assert coordinator.status()["records_ingested"] == 0

    def test_colliding_shard_names_uniquified(self, coordinator):
        """Worker ids that differ raw but sanitize to the same shard
        directory must not share it while both are connected."""
        from repro.results import shard_store_name

        socks, names = [], []
        try:
            for raw in ("w:1", "w;1"):
                sock = self._connect(coordinator)
                socks.append(sock)
                send_message(sock, {"type": "hello", "worker": raw,
                                    "protocol": PROTOCOL_VERSION})
                names.append(recv_message(sock)["worker"])
        finally:
            for sock in socks:
                sock.close()
        assert len({shard_store_name(name) for name in names}) == 2

    @pytest.mark.parametrize("cut", [0, 1, 2, 3])
    def test_chaos_disconnect_mid_length_prefix(self, coordinator, cut):
        """A scripted ChaosSocket kills the connection with only
        ``cut`` bytes of the 4-byte length prefix delivered; the
        coordinator reads it as a dead (or torn) peer and keeps
        serving."""
        raw = self._connect(coordinator)
        chaotic = ChaosSchedule(actions=[("pass", None),
                                         ("disconnect", cut)]).wrap(raw)
        send_message(chaotic, {"type": "hello", "worker": f"torn-{cut}",
                               "protocol": PROTOCOL_VERSION})
        assert recv_message(chaotic)["type"] == "welcome"
        with pytest.raises(ConnectionResetError):
            send_message(chaotic, {"type": "request"})
        with self._connect(coordinator) as sock:
            send_message(sock, {"type": "status"})
            assert recv_message(sock)["type"] == "status_reply"

    @pytest.mark.parametrize("cut", [4, 5, 11])
    def test_chaos_disconnect_mid_payload(self, coordinator, cut):
        """Same, but the tear lands inside the JSON payload: the
        header promised bytes that never arrive."""
        raw = self._connect(coordinator)
        chaotic = ChaosSchedule(actions=[("pass", None),
                                         ("disconnect", cut)]).wrap(raw)
        send_message(chaotic, {"type": "hello", "worker": f"torn-{cut}",
                               "protocol": PROTOCOL_VERSION})
        assert recv_message(chaotic)["type"] == "welcome"
        with pytest.raises(ConnectionResetError):
            send_message(chaotic, {"type": "heartbeat"})
        with self._connect(coordinator) as sock:
            send_message(sock, {"type": "status"})
            assert recv_message(sock)["type"] == "status_reply"

    def test_chaos_garbage_connection_survivable(self, coordinator):
        """A seeded chaos schedule escalates to garbage-then-hangup;
        the coordinator drops the worker, reclaims nothing it can't,
        and still serves the next client."""
        raw = self._connect(coordinator)
        chaotic = ChaosSchedule(actions=[("garbage", 32)]).wrap(raw)
        with pytest.raises(ConnectionResetError):
            send_message(chaotic, {"type": "hello", "worker": "noisy",
                                   "protocol": PROTOCOL_VERSION})
        with self._connect(coordinator) as sock:
            send_message(sock, {"type": "status"})
            assert recv_message(sock)["type"] == "status_reply"

    def test_worker_names_are_uniquified(self, coordinator):
        socks = []
        names = []
        try:
            for __ in range(2):
                sock = self._connect(coordinator)
                socks.append(sock)
                send_message(sock, {"type": "hello", "worker": "twin",
                                    "protocol": PROTOCOL_VERSION})
                reply = recv_message(sock)
                assert reply["type"] == "welcome"
                names.append(reply["worker"])
        finally:
            for sock in socks:
                sock.close()
        assert len(set(names)) == 2
        assert names[0] == "twin"
