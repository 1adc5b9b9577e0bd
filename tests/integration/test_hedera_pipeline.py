"""The Hedera pipeline end to end on a k=4 fat-tree: a golden pin of
what crosses the wire and when, recorded at the commit before the
pipeline was reworked to do each piece of work once."""

import hashlib

from repro.api import Experiment
from repro.controllers import HederaApp
from repro.controllers.hedera import estimate_demands
from repro.core.config import SimulationConfig
from repro.topology import FatTreeTopo


def hedera_k4(seed=1, **config):
    """The ``sdn_hedera`` benchmark workload at k=4."""
    exp = Experiment("hedera-k4", config=SimulationConfig(
        stats_interval=0.5, seed=seed, **config))
    exp.load_topo(FatTreeTopo(k=4))
    exp.network.recompute_min_interval = 0.005
    app = HederaApp(exp.topology_view(), poll_interval=5.0, nic_bps=1e9,
                    hash_seed=seed)
    exp.use_controller(apps=[app])
    exp.add_demo_traffic(rate_bps=1e9, duration=30.0)
    exp.add_stats(interval=0.5)
    return exp, app


class TestGoldenPin:
    def test_control_byte_streams_counts_and_schedule(self):
        exp, app = hedera_k4()
        streams = {}

        def record(channel, receiver, data):
            streams.setdefault((channel.label, receiver.name),
                               hashlib.sha256()).update(data)

        exp.sim.cm.add_observer(record)
        outcome = exp.run(until=32.0, settle=5.0, measure_until=30.0)
        exp.network.finalize_accounting()

        # sha256 over the ordered bytes of each direction of each of the
        # 20 channels, folded in channel order.
        folded = hashlib.sha256()
        for label, receiver in sorted(streams):
            folded.update(f"{label}>{receiver}="
                          f"{streams[label, receiver].hexdigest()}\n".encode())
        assert len(streams) == 40
        assert folded.hexdigest() == (
            "fafea34ac7c72ec2df7b9515940c507acdfc309831f41ebece57eca8b08b8204")
        assert outcome.cm_stats["control_messages"] == 325
        assert outcome.cm_stats["control_bytes"] == 38_832
        assert outcome.cm_stats["flow_mods"] == 133
        assert outcome.report.events_fired == 1_071
        assert app.large_flow_moves == 13
        assert (app.polls, app.scheduling_rounds) == (6, 6)
        delivered = sum(flow.delivered_bytes for flow in exp.network.flows)
        assert delivered.hex() == "0x1.588b92bf00000p+35"

        # Where the work went: every poll's entries read header-first,
        # one BFS per source edge switch, no table ever swept or scanned.
        controller = exp.controller.stats()
        assert controller["stats_entries_materialised"] == 0
        assert controller["stats_entries_header_first"] > 0
        assert controller["decode_errors"] == 0
        assert (controller["match_intern_misses"]
                < controller["match_intern_hits"])
        assert app.stats()["path_dag_builds"] <= 8
        agents = [agent.stats() for agent in exp.agents]
        assert sum(a["expiry_sweeps"] + a["table_scans"] + a["decode_errors"]
                   for a in agents) == 0
        assert sum(a["flow_mods_applied"] for a in agents) == 133


class CountingHedera(HederaApp):
    """Hedera that counts the placements idle expiry drops."""

    dropped = 0

    def forget_flow(self, flow):
        self.dropped += flow in self.large_placements
        super().forget_flow(flow)


class FullRoundHedera(CountingHedera):
    """The oracle: every round estimates and places from scratch."""

    def _schedule_round(self, poll):
        self._placed_inputs = None
        super()._schedule_round(poll)


def disturbed_run(app_class, monkeypatch):
    """k=4 Hedera whose entries idle out after 10 s, with one flow that
    stops at 12 s and a fabric link cut at 13 s (both drop large
    placements); returns what the run installed and delivered, and how
    many rounds estimated demands."""
    import repro.controllers.hedera as hedera

    estimates = []
    monkeypatch.setattr(hedera, "estimate_demands",
                        lambda pairs, _estimate=estimate_demands:
                        estimates.append(1) or _estimate(pairs))
    exp = Experiment("hedera-k4", config=SimulationConfig(
        stats_interval=0.5, seed=1))
    exp.load_topo(FatTreeTopo(k=4))
    exp.network.recompute_min_interval = 0.005
    app = app_class(exp.topology_view(), poll_interval=5.0, nic_bps=1e9,
                    hash_seed=1)
    app.idle_timeout = 10
    exp.use_controller(apps=[app])
    flows = exp.add_demo_traffic(rate_bps=1e9, duration=30.0)
    flows[0].end_time = 12.0
    exp.fail_link("a0_0", "c0_0", at=13.0)
    streams = hashlib.sha256()
    exp.sim.cm.add_observer(
        lambda channel, receiver, data: streams.update(data))
    outcome = exp.run(until=32.0)
    exp.network.finalize_accounting()
    return {
        "entries_installed": app.entries_installed,
        "flow_mods": outcome.cm_stats["flow_mods"],
        "control_bytes": outcome.cm_stats["control_bytes"],
        "placements": dict(app.large_placements),
        "moves": app.large_flow_moves,
        "dropped": app.dropped,
        "rounds": (app.polls, app.scheduling_rounds),
        "events": outcome.report.events_fired,
        "streams": streams.hexdigest(),
        "delivered": [flow.delivered_bytes for flow in exp.network.flows],
    }, len(estimates)


class TestRoundSkip:
    def test_a_round_repeating_the_last_one_changes_nothing(self,
                                                            monkeypatch):
        skipping, estimated = disturbed_run(CountingHedera, monkeypatch)
        full, full_estimated = disturbed_run(FullRoundHedera, monkeypatch)
        assert skipping == full
        assert full_estimated == skipping["rounds"][1]
        # Some rounds were skipped, others ran after a flow stopped, a
        # link failed and placements were dropped.
        assert skipping["dropped"] > 0
        assert 1 < estimated < full_estimated
