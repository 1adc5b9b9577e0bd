"""Unit tests: the packet-level baseline emulator and the Experiment API."""

import pytest

from repro.api import Experiment
from repro.baseline import PacketLevelEmulator, SetupCosts
from repro.baseline.engine import PacketEngine
from repro.core.errors import ConfigurationError, TopologyError
from repro.topology import FatTreeTopo, star_topo
from repro.traffic import permutation_pairs


class TestPacketEngine:
    def test_runs_in_time_order(self):
        engine = PacketEngine()
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.run()
        assert fired == ["a", "b"]
        assert engine.events_processed == 2

    def test_run_until(self):
        engine = PacketEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run(until=2.0)
        assert fired == [1]
        assert engine.now == 2.0

    def test_schedule_after(self):
        engine = PacketEngine()
        fired = []
        engine.schedule(1.0, lambda: engine.schedule_after(0.5,
                                                           lambda: fired.append(1.5)))
        engine.run()
        assert engine.now == pytest.approx(1.5)
        assert fired == [1.5]

    def test_reset(self):
        engine = PacketEngine()
        engine.schedule(1.0, lambda: None)
        engine.reset()
        assert engine.pending() == 0
        assert engine.now == 0.0


class TestSetupCosts:
    def test_setup_total(self):
        costs = SetupCosts(per_host=1.0, per_switch=2.0, per_link=0.5,
                           controller=3.0)
        assert costs.setup_total(2, 3, 4) == pytest.approx(3 + 2 + 6 + 2)

    def test_teardown_total(self):
        costs = SetupCosts(per_host_teardown=0.1, per_switch_teardown=0.2)
        assert costs.teardown_total(10, 5) == pytest.approx(2.0)


class TestEmulator:
    def make(self, time_scale=0.0):
        topo = star_topo(4)
        return PacketLevelEmulator(topo, time_scale=time_scale), topo

    def test_requires_setup(self):
        emu, __ = self.make()
        with pytest.raises(TopologyError):
            emu.run_udp_workload([("h0", "h1")], duration=1.0)

    def test_all_packets_delivered(self):
        emu, topo = self.make()
        emu.setup()
        report = emu.run_udp_workload(
            permutation_pairs(topo.hosts(), seed=1),
            duration=2.0, packets_per_second=50,
        )
        assert report.packets_sent == 4 * 100
        assert report.packets_delivered == report.packets_sent

    def test_event_count_scales_with_hops(self):
        # Star topology: one send event (which forwards through the
        # edge switch inline) + one link-hop event per packet.
        emu, topo = self.make()
        emu.setup()
        report = emu.run_udp_workload([("h0", "h1")], duration=1.0,
                                      packets_per_second=10)
        assert report.packets_sent == 10
        assert report.events_processed == 20

    def test_modeled_setup_matches_costs(self):
        topo = star_topo(4)
        costs = SetupCosts(per_host=1.0, per_switch=2.0, per_link=0.5,
                           controller=0.0)
        emu = PacketLevelEmulator(topo, time_scale=0.0, costs=costs)
        emu.setup()
        assert emu.modeled_setup_seconds == pytest.approx(4 + 2 + 2)

    def test_time_scale_sleeps(self):
        import time
        topo = star_topo(2)
        costs = SetupCosts(per_host=1.0, per_switch=1.0, per_link=1.0,
                           controller=0.0)
        emu = PacketLevelEmulator(topo, time_scale=0.01, costs=costs)
        start = time.perf_counter()
        emu.setup()
        elapsed = time.perf_counter() - start
        assert elapsed >= 0.04  # 5 elements x 1s x 0.01

    def test_fattree_ecmp_paths_deliver(self):
        topo = FatTreeTopo(k=4)
        emu = PacketLevelEmulator(topo, time_scale=0.0)
        emu.setup()
        report = emu.run_udp_workload(
            permutation_pairs(topo.hosts(), seed=42),
            duration=1.0, packets_per_second=5,
        )
        assert report.packets_delivered == report.packets_sent
        assert report.packets_sent == 16 * 5

    def test_host_rates_measured(self):
        emu, topo = self.make()
        emu.setup()
        emu.run_udp_workload([("h0", "h1")], duration=2.0,
                             packets_per_second=100)
        rate = emu.host_rx_rate_bps("h1", duration=2.0)
        assert rate == pytest.approx(100 * 1500 * 8, rel=0.05)

    def test_rejects_negative_scale(self):
        with pytest.raises(TopologyError):
            PacketLevelEmulator(star_topo(2), time_scale=-1)


class TestExperimentApi:
    def test_double_controller_rejected(self):
        exp = Experiment("dup")
        exp.add_switch("s1")
        exp.use_controller()
        with pytest.raises(ConfigurationError):
            exp.use_controller()

    def test_direct_construction(self):
        exp = Experiment("direct")
        exp.add_host("h1", "10.0.0.1")
        exp.add_host("h2", "10.0.0.2")
        exp.add_router("r1")
        exp.add_link("h1", "r1")
        exp.add_link("h2", "r1")
        assert len(exp.network.nodes) == 3

    def test_result_fields(self):
        exp = Experiment("fields")
        exp.load_topo(star_topo(2))
        from repro.controllers import LearningSwitchApp
        exp.use_controller(apps=[LearningSwitchApp()])
        exp.add_flow("h0", "h1", rate_bps=1e6, start_time=0.2, duration=1.0)
        exp.add_flow("h1", "h0", rate_bps=1e6, start_time=0.1, duration=1.0)
        exp.add_stats(interval=0.25)
        result = exp.run(until=2.0)
        assert result.flows_total == 2
        assert result.flows_delivered == 2
        assert result.setup_wall_seconds >= 0
        assert result.total_wall_seconds >= result.report.wall_seconds
        assert result.cm_stats["flow_mods"] >= 2

    def test_add_traffic_pairs(self):
        exp = Experiment("pairs")
        exp.load_topo(star_topo(3))
        flows = exp.add_traffic([("h0", "h1"), ("h1", "h2")])
        assert len(flows) == 2
        assert len(exp.network.flows) == 2

    def test_topology_view_reflects_network(self):
        exp = Experiment("view")
        exp.load_topo(star_topo(3))
        view = exp.topology_view()
        assert view.switches() == ["s0"]
        assert len(view.hosts()) == 3
