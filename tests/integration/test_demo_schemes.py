"""Integration: the three TE schemes of the demonstration, end to end.

Checks the *semantics* the demo relies on: every flow eventually
delivered, control-plane activity patterns per scheme (bursty at start
for BGP/ECMP, periodic for Hedera), and the throughput ordering the
demo's closing graph shows (Hedera above the ECMP variants).
"""

import pytest

from repro.api.demo import (
    DemoSettings,
    run_bgp_ecmp,
    run_hedera,
    run_sdn_ecmp,
)
from repro.core import ClockMode

SETTINGS = DemoSettings(k=4, duration=20.0, settle=8.0)


@pytest.fixture(scope="module")
def results():
    return {
        "bgp": run_bgp_ecmp(SETTINGS),
        "hedera": run_hedera(SETTINGS),
        "sdn": run_sdn_ecmp(SETTINGS),
    }


class TestDelivery:
    def test_all_flows_delivered_everywhere(self, results):
        for name, result in results.items():
            assert result.flows_total == 16, name
            assert result.flows_delivered == 16, name

    def test_aggregate_positive_everywhere(self, results):
        for name, result in results.items():
            assert result.mean_aggregate_rx_bps > 1e9, name


class TestThroughputOrdering:
    def test_hedera_beats_both_ecmp_variants(self, results):
        hedera = results["hedera"].mean_aggregate_rx_bps
        assert hedera > results["sdn"].mean_aggregate_rx_bps
        assert hedera > results["bgp"].mean_aggregate_rx_bps

    def test_nothing_exceeds_physical_limit(self, results):
        for name, result in results.items():
            assert result.mean_aggregate_rx_bps <= 16e9 + 1e6, name


class TestControlPlanePatterns:
    def test_bgp_has_most_control_traffic(self, results):
        # A full BGP mesh converging produces far more messages than a
        # reactive OpenFlow app serving 16 flows.
        assert (results["bgp"].cm_stats["control_messages"]
                > results["sdn"].cm_stats["control_messages"])

    def test_bgp_installs_routes_sdn_installs_flow_mods(self, results):
        assert results["bgp"].cm_stats["route_installs"] > 0
        assert results["bgp"].cm_stats["flow_mods"] == 0
        assert results["sdn"].cm_stats["flow_mods"] > 0
        assert results["sdn"].cm_stats["route_installs"] == 0

    def test_hedera_polls_keep_waking_fti(self):
        # Run Hedera with a transition recorder: expect repeated
        # DES->FTI transitions roughly every poll interval.
        result = run_hedera(DemoSettings(k=4, duration=20.0,
                                         hedera_poll_interval=5.0))
        # The experiment object is not returned, so check indirectly:
        # mode transitions are counted in the report.
        assert result.report.mode_transitions >= 6  # >= 3 polls x 2

    def test_sdn_ecmp_control_concentrated_at_start(self):
        from repro.api import Experiment
        from repro.controllers import FiveTupleEcmpApp
        from repro.topology import FatTreeTopo
        exp = Experiment("burst", config=SETTINGS.sim_config())
        exp.load_topo(FatTreeTopo(k=4))
        app = FiveTupleEcmpApp(exp.topology_view())
        exp.use_controller(apps=[app])
        exp.add_demo_traffic(rate_bps=1e9, duration=20.0)
        exp.run(until=22.0)
        transitions = exp.sim.clock.transitions
        fti_entries = [t for t in transitions if t.to_mode is ClockMode.FTI]
        # One burst at startup; nothing should re-enter FTI later.
        assert len(fti_entries) == 1
        assert fti_entries[0].time < 0.5


class TestProcessHistory:
    def test_result_does_not_depend_on_earlier_runs(self):
        # Source ports are 40000 + flow id and the five-tuple ECMP hash
        # reads them: before every Experiment restarted numbering, the
        # 12th run in a process hashed its flows elsewhere.
        settings = DemoSettings(k=4, duration=12.0)
        runs = [run_sdn_ecmp(settings) for __ in range(12)]
        first = runs[0]
        for result in runs[1:]:
            assert result.mean_aggregate_rx_bps == first.mean_aggregate_rx_bps
            assert result.aggregate_series == first.aggregate_series
