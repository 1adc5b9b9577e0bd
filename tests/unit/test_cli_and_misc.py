"""Unit tests: the CLI and assorted smaller surfaces (stats export,
CM observers, link addressing, demo settings, clock forcing)."""

import io
import contextlib

import pytest

from repro import cli
from repro.api import link_addresses
from repro.api.demo import DemoSettings
from repro.core import ClockMode, HybridClock, Simulation, SimulationConfig
from repro.core.clock import ClockPolicy
from repro.dataplane import Network, StatsCollector
from repro.netproto.addr import IPv4Address
from repro.results import ResultStore


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class TestCli:
    def test_demo_command(self):
        code, out = run_cli(["demo", "--k", "4", "--duration", "5"])
        assert code == 0
        assert "bgp_ecmp" in out
        assert "hedera" in out
        assert "consolidated wall time" in out

    def test_fig1_command(self):
        code, out = run_cli(["fig1", "--horizon", "3"])
        assert code == 0
        assert "DES -> FTI" in out
        assert "sessions established: True" in out

    def test_fig3_command_small(self):
        code, out = run_cli([
            "fig3", "--sizes", "4", "--duration", "2",
            "--scale", "0.001", "--pps", "5",
        ])
        assert code == 0
        assert "ratio" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_parser_help_strings(self):
        parser = cli.build_parser()
        assert parser.prog == "repro"

    def test_version_flag(self):
        import repro
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in buffer.getvalue()


class TestScenarioCli:
    def test_scenario_run_by_seed(self):
        code, out = run_cli(["scenario", "run", "--seed", "6",
                             "--duration", "30"])
        assert code == 0
        assert "k-random-links-seed6" in out
        assert "recovery" in out
        assert "fp=" in out

    def test_scenario_run_reproduces_sweep_line(self, tmp_path):
        """A sweep record re-run by its seed matches bit-for-bit."""
        args = ["--pattern", "flap-storm", "--duration", "30"]
        store = str(tmp_path / "store")
        code, __ = run_cli(["campaign", "run", "--store", store,
                            "--count", "3", "--workers", "2"] + args)
        assert code == 0
        code, solo = run_cli(["scenario", "run", "--seed", "1"] + args)
        assert code == 0
        swept = next(record for record in ResultStore(store).iter_records()
                     if record["seed"] == 1)
        assert f"fp={swept['fingerprint']}" in solo

    def test_scenario_spec_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        code, first = run_cli(["scenario", "run", "--seed", "9",
                               "--duration", "30",
                               "--save-spec", str(path)])
        assert code == 0
        code, second = run_cli(["scenario", "run", "--spec", str(path)])
        assert code == 0
        assert first.splitlines()[0] == second.splitlines()[0]

    def test_scenario_run_json_output(self):
        import json
        code, out = run_cli(["scenario", "run", "--seed", "2",
                             "--duration", "30", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 2
        assert payload["converged"] is True

    def test_bad_pattern_param_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["scenario", "run", "--pattern-param", "nonsense"])


class TestStatsExport:
    def make_collector(self):
        sim = Simulation()
        net = Network()
        sim.attach_network(net)
        h1 = net.add_host("h1", "10.0.0.1")
        h2 = net.add_host("h2", "10.0.0.2")
        net.add_link(h1, h2)
        collector = StatsCollector(net, interval=0.5)
        collector.attach(sim)
        from repro.dataplane import FluidFlow
        net.add_flow(FluidFlow(h1, h2, demand_bps=4e8, start_time=0.0,
                               end_time=2.0))
        sim.run(until=2.0)
        return collector

    def test_rows_have_host_columns(self):
        collector = self.make_collector()
        samples = collector.samples
        assert len(samples) == 4
        assert "h2" in samples[0].host_rx_bps
        assert samples[0].aggregate_rx_bps == pytest.approx(4e8)

    def test_peak_and_detach(self):
        collector = self.make_collector()
        assert max(collector.aggregate_series()) == pytest.approx(4e8)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            StatsCollector(Network(), interval=0)


class TestConnectionManagerExtras:
    def test_observer_sees_every_send(self):
        sim = Simulation()

        class Endpoint:
            def __init__(self, name):
                self.name = name
                self.received = []

            def receive(self, channel, data, metadata):
                self.received.append(data)

        a, b = Endpoint("a"), Endpoint("b")
        channel = sim.cm.open_channel(a, b, latency=0.001)
        seen = []
        sim.cm.add_observer(lambda ch, recv, data: seen.append(data))
        channel.send(a, b"one")
        channel.send(b, b"two")
        sim.run(until=0.01)
        assert seen == [b"one", b"two"]
        assert a.received == [b"two"]
        assert b.received == [b"one"]
        assert channel.total_messages == 2
        assert channel.total_bytes == 6

    def test_closed_channel_drops_sends(self):
        sim = Simulation()

        class Endpoint:
            name = "x"

            def receive(self, channel, data, metadata):  # pragma: no cover
                raise AssertionError("should not be delivered")

        a, b = Endpoint(), Endpoint()
        channel = sim.cm.open_channel(a, b)
        channel.close()
        channel.send(a, b"lost")
        sim.run(until=0.01)
        assert channel.total_messages == 0

    def test_reopen_restores_delivery(self):
        sim = Simulation()

        class Endpoint:
            def __init__(self):
                self.received = []

            name = "x"

            def receive(self, channel, data, metadata):
                self.received.append(data)

        a, b = Endpoint(), Endpoint()
        channel = sim.cm.open_channel(a, b)
        channel.close()
        channel.reopen()
        channel.send(a, b"back")
        sim.run(until=0.01)
        assert b.received == [b"back"]

    def test_negative_latency_rejected(self):
        from repro.core.errors import ControlPlaneError
        sim = Simulation()

        class Endpoint:
            name = "x"

            def receive(self, *a):  # pragma: no cover
                pass

        with pytest.raises(ControlPlaneError):
            sim.cm.open_channel(Endpoint(), Endpoint(), latency=-1)


    def test_a_latency_that_went_negative_cannot_schedule_into_the_past(self):
        """``deliver`` pushes straight onto the queue after checking the
        one thing ``Scheduler.push`` would: ``now + latency`` is not in
        the past.  Nothing is delivered, counted or queued."""
        from repro.core.errors import SchedulingError
        sim = Simulation()

        class Endpoint:
            name = "x"

            def receive(self, *a):  # pragma: no cover
                raise AssertionError("should not be delivered")

        a, b = Endpoint(), Endpoint()
        channel = sim.cm.open_channel(a, b, latency=0.001)
        channel.latency = -0.5
        with pytest.raises(SchedulingError, match="negative latency"):
            channel.send(a, b"late")
        assert sim.cm.deliveries == 0
        assert sim.queue.stats["pushed"] == 0

    def test_a_delivery_is_one_event_and_one_push(self):
        from repro.core.events import (ControlDeliveryEvent, Event,
                                       PRIORITY_CONTROL)
        sim = Simulation()

        class Endpoint:
            name = "x"
            received = []

            def receive(self, channel, data, metadata):
                self.received.append((data, metadata, sim.clock.now))

        a, b = Endpoint(), Endpoint()
        channel = sim.cm.open_channel(a, b, latency=0.25)
        channel.send(a, b"bytes", metadata={"k": 1})
        assert sim.queue.stats["pushed"] == 1
        (event,) = list(sim.queue)
        assert type(event) is ControlDeliveryEvent
        # Every Event slot is set, as Event.__init__ would have.
        assert (event.time, event.priority, event.cancelled, event.seq) == (
            0.25, PRIORITY_CONTROL, False, 0)
        assert isinstance(event, Event) and event.sort_key() == (0.25, 0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            ControlDeliveryEvent(-1.0, channel, b, b"")
        sim.run(until=1.0)
        assert b.received == [(b"bytes", {"k": 1}, 0.25)]


class TestLinkAddressing:
    def test_pairs_distinct_and_ordered(self):
        a0, b0 = link_addresses(0)
        a1, b1 = link_addresses(1)
        assert len({int(a0), int(b0), int(a1), int(b1)}) == 4
        assert int(b0) == int(a0) + 1

    def test_within_private_space(self):
        a, b = link_addresses(1000)
        assert str(a).startswith("172.")


class TestDemoSettings:
    def test_horizon(self):
        settings = DemoSettings(duration=20.0, margin=2.0)
        assert settings.horizon == 22.0

    def test_sim_config_fields(self):
        settings = DemoSettings(fti_increment=0.002, seed=7,
                                clock_policy=ClockPolicy.PURE_DES)
        config = settings.sim_config()
        assert config.fti_increment == 0.002
        assert config.seed == 7
        assert config.clock_policy is ClockPolicy.PURE_DES


class TestClockForcing:
    def test_force_mode_records_transition(self):
        clock = HybridClock()
        clock.notify_control_activity()
        assert clock.mode is ClockMode.FTI
        assert clock.transitions[-1].reason == "control-plane activity"
        clock.notify_control_activity()  # same mode: no new transition
        assert len(clock.transitions) == 1

    def test_transition_str(self):
        clock = HybridClock()
        clock.notify_control_activity()
        text = str(clock.transitions[0])
        assert "DES -> FTI" in text
        assert "control-plane activity" in text
