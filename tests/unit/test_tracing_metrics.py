"""Unit tests: message tracing and convergence metrics."""

import pytest

from repro.api import (
    Experiment,
    MessageTrace,
    bgp_convergence,
    classify,
    fti_share,
    ospf_convergence,
    setup_bgp_for_routers,
    setup_ospf_for_routers,
)
from repro.bgp.messages import BGPKeepalive, BGPOpen, BGPUpdate, PathAttributes
from repro.core import SimulationConfig
from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.openflow.messages import Hello, PacketIn
from repro.ospf.packets import OSPFHello


class TestClassify:
    def test_bgp_open(self):
        protocol, summary = classify(BGPOpen(asn=65001).encode())
        assert protocol == "bgp"
        assert "OPEN AS65001" in summary

    def test_bgp_update(self):
        update = BGPUpdate(
            attributes=PathAttributes(as_path=(1,),
                                      next_hop=IPv4Address("10.0.0.1")),
            nlri=[IPv4Prefix("10.1.0.0/24")],
        )
        protocol, summary = classify(update.encode())
        assert protocol == "bgp"
        assert "announce=1" in summary

    def test_bgp_batch(self):
        data = BGPOpen(asn=1).encode() + BGPKeepalive().encode()
        __, summary = classify(data)
        assert "OPEN" in summary and "KEEPALIVE" in summary

    def test_openflow(self):
        protocol, summary = classify(Hello(xid=1).encode())
        assert protocol == "openflow"
        assert "HELLO" in summary
        protocol, summary = classify(PacketIn(in_port=1, data=b"x").encode())
        assert "PACKET_IN" in summary

    def test_ospf(self):
        hello = OSPFHello(router_id=IPv4Address("1.1.1.1"),
                          neighbors=[IPv4Address("2.2.2.2")])
        protocol, summary = classify(hello.encode())
        assert protocol == "ospf"
        assert "neighbors=1" in summary

    def test_unknown(self):
        protocol, __ = classify(b"\x99" * 30)
        assert protocol == "unknown"

    # -- hostile input: classify must degrade, never raise ------------

    def test_empty_payload(self):
        assert classify(b"") == ("unknown", "0 bytes")

    def test_truncated_bgp_marker_is_unknown(self):
        from repro.bgp.messages import BGP_MARKER

        # marker present but shorter than a BGP header (19 bytes)
        protocol, __ = classify(BGP_MARKER + b"\x00\x13")
        assert protocol == "unknown"

    def test_bgp_marker_with_garbage_body(self):
        from repro.bgp.messages import BGP_MARKER

        protocol, summary = classify(BGP_MARKER + b"\xff" * 10)
        assert protocol == "bgp"
        assert "<undecodable>" in summary

    def test_bgp_valid_message_plus_trailing_garbage(self):
        data = BGPOpen(asn=7).encode() + b"\xde\xad\xbe\xef"
        protocol, summary = classify(data)
        assert protocol == "bgp"
        # the decoded prefix survives; the tail is flagged
        assert "OPEN AS7" in summary
        assert "<undecodable>" in summary

    def test_openflow_version_byte_with_invalid_type(self):
        from repro.openflow.constants import OFP_VERSION

        # version matches but the msg-type byte is garbage: not OF
        protocol, __ = classify(bytes([OFP_VERSION, 0xEE]) + b"\x00" * 10)
        assert protocol == "unknown"

    def test_openflow_header_lying_about_length(self):
        data = bytearray(Hello(xid=1).encode())
        data[2:4] = (100).to_bytes(2, "big")  # claims 100B, carries 8
        protocol, summary = classify(bytes(data))
        assert protocol == "openflow"
        assert "<undecodable>" in summary

    def test_truncated_ospf_body(self):
        from repro.ospf.packets import OSPF_VERSION

        # version + HELLO type, then garbage instead of a packet body
        protocol, summary = classify(
            bytes([OSPF_VERSION, 1]) + b"\xff" * 10)
        assert protocol == "ospf"
        assert summary == "<undecodable>"

    def test_random_garbage_never_raises(self):
        import random

        rng = random.Random(0)
        for __ in range(300):
            payload = bytes(rng.randrange(256)
                            for __ in range(rng.randrange(64)))
            protocol, summary = classify(payload)
            assert isinstance(protocol, str)
            assert isinstance(summary, str)


def two_router_bgp_exp():
    exp = Experiment("trace", config=SimulationConfig())
    r1 = exp.add_router("r1", router_id="1.1.1.1")
    r2 = exp.add_router("r2", router_id="2.2.2.2")
    h1 = exp.add_host("h1", "10.1.0.10")
    h2 = exp.add_host("h2", "10.2.0.10")
    exp.add_link(h1, r1)
    exp.add_link(h2, r2)
    exp.add_link(r1, r2)
    setup_bgp_for_routers(exp, asn_map={"r1": 65001, "r2": 65002})
    return exp


class TestMessageTrace:
    def test_records_full_conversation(self):
        exp = two_router_bgp_exp()
        trace = MessageTrace(exp.sim)
        exp.run(until=2.0)
        assert len(trace) >= 6  # 2 OPEN, >=2 KEEPALIVE, 2 UPDATE
        protocols = trace.by_protocol()
        assert protocols["bgp"] == len(trace)

    def test_record_fields(self):
        exp = two_router_bgp_exp()
        trace = MessageTrace(exp.sim)
        exp.run(until=2.0)
        first = trace.records[0]
        assert first.protocol == "bgp"
        assert "OPEN" in first.summary
        assert first.sender.startswith("bgpd-")
        assert first.size >= 19
        assert "bgp" in str(first)

    def test_activity_windows_match_fti_episodes(self):
        exp = two_router_bgp_exp()
        trace = MessageTrace(exp.sim)
        exp.run(until=10.0)
        windows = trace.activity_windows(quiet_gap=1.0)
        # one convergence burst at the start; keepalives not yet due
        # (30 s default), so exactly one window.
        assert len(windows) == 1
        start, end, count = windows[0]
        assert start < 0.1
        assert count == len(trace)

    def test_between(self):
        exp = two_router_bgp_exp()
        trace = MessageTrace(exp.sim)
        exp.run(until=2.0)
        early = trace.between(0.0, 0.5)
        assert len(early) == len(trace)
        assert trace.between(1.0, 2.0) == []

    def test_max_records_cap(self):
        exp = two_router_bgp_exp()
        trace = MessageTrace(exp.sim, max_records=3)
        exp.run(until=2.0)
        assert len(trace) == 3
        assert trace.dropped > 0

    def test_summary_lines(self):
        exp = two_router_bgp_exp()
        trace = MessageTrace(exp.sim)
        exp.run(until=2.0)
        lines = trace.summary_lines(limit=2)
        assert len(lines) == 2

    def test_last_activity(self):
        exp = two_router_bgp_exp()
        trace = MessageTrace(exp.sim)
        assert not trace.records
        exp.run(until=2.0)
        assert trace.records[-1].time == pytest.approx(
            exp.sim.clock.last_control_activity, abs=0.01
        )


class TestConvergenceMetrics:
    def test_bgp_report(self):
        exp = two_router_bgp_exp()
        exp.run(until=2.0)
        report = bgp_convergence(exp)
        assert report.converged
        assert report.all_sessions_up_at < 0.5
        assert report.sessions == 2
        assert report.routes_installed >= 2
        assert "sessions up" in report.summary()

    def test_bgp_not_converged_before_connect(self):
        exp = two_router_bgp_exp()
        # Do not run at all: nothing established.
        report = bgp_convergence(exp)
        assert not report.converged
        assert report.summary() == "not converged"

    def test_ospf_report(self):
        exp = Experiment("ospf-m", config=SimulationConfig())
        exp.add_router("r1", router_id="1.1.1.1")
        exp.add_router("r2", router_id="2.2.2.2")
        exp.add_link("r1", "r2")
        setup_ospf_for_routers(exp, hello_interval=0.5, dead_interval=2.0)
        exp.run(until=3.0)
        report = ospf_convergence(exp)
        assert report.converged
        assert report.sessions == 2

    def test_fti_share_sums_to_one(self):
        exp = two_router_bgp_exp()
        exp.run(until=5.0)
        share = fti_share(exp)
        assert share["des"] + share["fti"] == pytest.approx(1.0)
        assert share["des"] > 0.8  # mostly fast-forwarded

    def test_fti_share_empty_run(self):
        exp = Experiment("empty")
        share = fti_share(exp)
        assert share == {"des": 0.0, "fti": 0.0}


class TestScenarioMetrics:
    """The flat metric extraction SLOs and CSV exports address."""

    RESULT = {
        "name": "m", "seed": 4, "sim_seconds": 30.0, "events_fired": 100,
        "recomputations": 12, "converged": True, "convergence_time": 9.5,
        "flows_delivered": 3, "flows_total": 4,
        "delivered_bytes": 750.0, "demanded_bytes": 1000.0,
        "control_messages": 42, "control_bytes": 999,
        "injections": [
            {"label": "a", "at": 10.0, "recovered_at": 14.0},
            {"label": "b", "at": 12.0, "recovered_at": 13.0},
            {"label": "c", "at": 15.0, "recovered_at": None},
        ],
        "wall_seconds": 0.5,
    }

    def test_flattening(self):
        from repro.api import scenario_metrics

        metrics = scenario_metrics(self.RESULT)
        assert metrics["delivered_fraction"] == pytest.approx(0.75)
        assert metrics["control_messages"] == 42
        assert metrics["injection_count"] == 3
        assert metrics["recovered_count"] == 2
        assert metrics["unrecovered_count"] == 1
        assert metrics["max_recovery_seconds"] == pytest.approx(4.0)
        assert metrics["mean_recovery_seconds"] == pytest.approx(2.5)

    def test_no_demand_means_full_delivery(self):
        from repro.api import scenario_metrics

        metrics = scenario_metrics({"demanded_bytes": 0.0})
        assert metrics["delivered_fraction"] == 1.0
        assert metrics["max_recovery_seconds"] is None

    def test_v1_payload_defaults(self):
        """PR 1 era result dicts (no control stats) still flatten."""
        from repro.api import scenario_metrics

        old = {key: value for key, value in self.RESULT.items()
               if key not in ("control_messages", "control_bytes")}
        metrics = scenario_metrics(old)
        assert metrics["control_messages"] == 0
        assert metrics["converged"] is True
