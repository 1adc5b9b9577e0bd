"""Unit: the deterministic chaos harness — seeded schedules replay
exactly, fault budgets guarantee termination, and a ChaosSocket's
injected failures look to the receiver like the real network dying."""

import socket

import pytest

from repro.core.errors import ConfigurationError
from repro.fleet import (
    ChaosSchedule,
    ProtocolError,
    recv_message,
    schedule_from_env,
    send_message,
)
from repro.fleet.protocol import ConnectionClosed


def drain_actions(schedule, frames=200, nbytes=64):
    return [schedule.next_action(nbytes) for _ in range(frames)]


class TestScheduleDeterminism:
    def test_same_seed_same_plan(self):
        a = drain_actions(ChaosSchedule(seed=7, fault_rate=0.5))
        b = drain_actions(ChaosSchedule(seed=7, fault_rate=0.5))
        assert a == b
        assert any(kind != "pass" for kind, __ in a)

    def test_different_seeds_differ(self):
        a = drain_actions(ChaosSchedule(seed=1, fault_rate=0.5))
        b = drain_actions(ChaosSchedule(seed=2, fault_rate=0.5))
        assert a != b

    def test_budget_bounds_destructive_faults(self):
        schedule = ChaosSchedule(seed=3, fault_rate=1.0, max_faults=4)
        actions = drain_actions(schedule, frames=500)
        destructive = [kind for kind, __ in actions
                       if kind in ("disconnect", "garbage")]
        assert len(destructive) == 4
        assert schedule.exhausted()
        # benign reordering-style faults may continue past the budget
        assert any(kind in ("delay", "split") for kind, __ in actions[-50:])

    def test_tiny_frames_pass_untouched(self):
        schedule = ChaosSchedule(seed=0, fault_rate=1.0)
        assert schedule.next_action(1) == ("pass", None)

    def test_split_and_disconnect_cuts_in_range(self):
        schedule = ChaosSchedule(seed=5, fault_rate=1.0, max_faults=None)
        for __ in range(300):
            kind, arg = schedule.next_action(48)
            if kind == "split":
                assert 1 <= arg < 48
            elif kind == "disconnect":
                assert 0 <= arg < 48
            elif kind == "garbage":
                assert 1 <= arg <= schedule.garbage_max

    def test_scripted_actions_run_in_order_then_pass(self):
        schedule = ChaosSchedule(actions=[("delay", 0.0), ("split", 2)])
        assert schedule.next_action(10) == ("delay", 0.0)
        assert schedule.next_action(10) == ("split", 2)
        assert schedule.next_action(10) == ("pass", None)
        assert schedule.faults_injected == 0  # neither is budgeted

    def test_bad_fault_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="fault_rate"):
            ChaosSchedule(fault_rate=1.5)


class TestChaosSocket:
    def _pair(self, actions):
        a, b = socket.socketpair()
        schedule = ChaosSchedule(actions=actions)
        return schedule.wrap(a), b, schedule

    def test_pass_split_delay_deliver_intact(self):
        chaotic, peer, __ = self._pair(
            [("pass", None), ("split", 3), ("delay", 0.0)])
        with peer:
            for n in range(3):
                send_message(chaotic, {"type": "heartbeat", "n": n})
            for n in range(3):
                assert recv_message(peer)["n"] == n
        chaotic.close()

    def test_disconnect_mid_frame_raises_and_tears(self):
        """The sender sees a reset; the receiver sees a torn frame —
        exactly the pair of symptoms a real mid-send death produces."""
        chaotic, peer, schedule = self._pair([("disconnect", 5)])
        with peer:
            with pytest.raises(ConnectionResetError, match="chaos"):
                send_message(chaotic, {"type": "request"})
            with pytest.raises(ConnectionClosed):
                recv_message(peer)
        assert schedule.faults_injected == 1

    def test_garbage_then_hangup(self):
        chaotic, peer, __ = self._pair([("garbage", 16)])
        with peer:
            with pytest.raises(ConnectionResetError, match="garbage"):
                send_message(chaotic, {"type": "request"})
            with pytest.raises(ProtocolError):
                while recv_message(peer) is not None:
                    pass


class TestEnvHook:
    def test_absent_means_no_chaos(self):
        assert schedule_from_env({}) is None
        assert schedule_from_env({"REPRO_FLEET_CHAOS_SEED": ""}) is None

    def test_env_builds_a_schedule(self):
        schedule = schedule_from_env({
            "REPRO_FLEET_CHAOS_SEED": "42",
            "REPRO_FLEET_CHAOS_RATE": "0.9",
            "REPRO_FLEET_CHAOS_FAULTS": "3",
        })
        assert schedule.seed == 42
        assert schedule.fault_rate == 0.9
        assert schedule.max_faults == 3


class TestWorkerBackoff:
    def test_same_seed_same_delays(self):
        from repro.fleet import FleetWorker

        a = FleetWorker("h", 1, backoff_seed=9)
        b = FleetWorker("h", 1, backoff_seed=9)
        assert [a._backoff_delay(f) for f in range(1, 9)] \
            == [b._backoff_delay(f) for f in range(1, 9)]

    def test_default_seed_derives_from_identity(self):
        from repro.fleet import FleetWorker

        a = FleetWorker("h", 1, worker_id="stable")
        b = FleetWorker("h", 1, worker_id="stable")
        other = FleetWorker("h", 1, worker_id="different")
        same = [a._backoff_delay(f) for f in range(1, 6)]
        assert same == [b._backoff_delay(f) for f in range(1, 6)]
        assert same != [other._backoff_delay(f) for f in range(1, 6)]

    def test_delays_grow_jittered_and_capped(self):
        from repro.fleet import FleetWorker

        worker = FleetWorker("h", 1, backoff_base=0.1, backoff_max=5.0,
                             backoff_seed=3)
        for failure in range(1, 12):
            cap = min(5.0, 0.1 * 2 ** (failure - 1))
            delay = worker._backoff_delay(failure)
            # jitter stays in [0.5x, 1x] of the exponential cap —
            # never zero, never past backoff_max
            assert 0.5 * cap <= delay <= cap

