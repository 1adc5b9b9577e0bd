"""Integration: OSPF on the fat-tree — the pinned schedule, and hostile
bytes on every adjacency."""

from repro.scenarios import (
    ProtocolRecipe,
    ScenarioRunner,
    TopologyRecipe,
    generate_scenario,
)

CM_KEYS = ("deliveries", "control_bytes", "route_installs",
           "route_withdrawals")


def _spec():
    return generate_scenario(
        7, pattern="k-random-links",
        topology=TopologyRecipe("fattree", {"k": 4, "device": "router"}),
        protocol=ProtocolRecipe("ospf", {"hello_interval": 1.0,
                                         "dead_interval": 4.0}),
        duration=40.0, name="ospf-golden")


def _run(before=None):
    exp, __ = ScenarioRunner().materialize(_spec())
    if before is not None:
        before(exp)
    exp.run(until=40.0)
    return exp


def _totals(exp):
    """Every daemon's counters summed, as they reach a result."""
    return ScenarioRunner._diagnostics(exp)["ospf"]


class TestGoldenPin:
    """One small OSPF failure scenario pinned to literals (recorded at
    PR 13, before the LSU pipeline was reworked): a daemon change that
    moves a byte on the wire, an event in the schedule or a FIB
    operation shows up here, not only in a timing."""

    def test_result_fingerprint(self):
        result = ScenarioRunner().run(_spec())
        assert result.fingerprint() == "58c058cf682f1be2"
        assert (result.events_fired, result.recomputations) == (6629, 23)

    def test_wire_schedule_and_fib_counts(self):
        exp = _run()
        stats = exp.sim.cm.stats()
        assert {key: stats[key] for key in CM_KEYS} == {
            "deliveries": 5270, "control_bytes": 176582,
            "route_installs": 760, "route_withdrawals": 0}
        assert exp.sim.queue.stats["pushed"] == 6669
        totals = _totals(exp)
        assert {key: totals[key] for key in (
            "spf_runs", "hellos_sent", "lsus_sent", "lsdb", "routes")} == {
                "spf_runs": 100, "hellos_sent": 2798, "lsus_sent": 2508,
                "lsdb": 400, "routes": 152}
        # Flooding delivers most LSAs more than once; only the first
        # copy is accepted and only an accepted one is ever parsed.
        assert (totals["lsas_received"] > 2 * totals["lsas_accepted"]
                and totals["lsas_accepted"] >= totals["lsa_bodies_parsed"] > 0)
        assert totals["decode_errors"] == 0


class TestHostileBytes:
    def test_garbage_on_every_adjacency_changes_nothing_else(self):
        """Mid-run every daemon receives, from every neighbor, an LSU
        whose LSA count runs past the buffer.  The run finishes, the
        fabric converges to the same routes, and the message and byte
        counts move by exactly the injected packets."""
        garbage = bytes.fromhex("0204000c" "0a000001" "ffff" "0000")
        sent = []

        def inject(exp):
            def push():
                for daemon in exp.ospf_daemons.values():
                    for state in daemon.neighbors.values():
                        if state.channel.open:
                            state.channel.send(daemon, garbage)
                            sent.append(daemon.name)
            exp.sim.scheduler.after(12.0, push)

        clean, hostile = _run(), _run(inject)
        assert len(sent) >= 60
        clean_stats, stats = clean.sim.cm.stats(), hostile.sim.cm.stats()
        assert stats["deliveries"] == clean_stats["deliveries"] + len(sent)
        assert (stats["control_bytes"]
                == clean_stats["control_bytes"] + len(sent) * len(garbage))
        assert stats["route_installs"] == clean_stats["route_installs"]
        totals = _totals(hostile)
        assert totals["decode_errors"] == len(sent)
        assert {**totals, "decode_errors": 0} == _totals(clean)
        for name, daemon in hostile.ospf_daemons.items():
            twin = clean.ospf_daemons[name]
            assert daemon.full_neighbors() == twin.full_neighbors()
            assert daemon.lsdb.all_lsas() == twin.lsdb.all_lsas()
        for name in hostile.ospf_daemons:
            assert ([(str(e.prefix), e.next_hops) for e in
                     hostile.network.get_node(name).fib.entries()]
                    == [(str(e.prefix), e.next_hops) for e in
                        clean.network.get_node(name).fib.entries()])
