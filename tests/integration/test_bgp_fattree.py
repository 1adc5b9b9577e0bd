"""Integration: BGP on the fat-tree — convergence, ECMP, failure."""

import pytest

from repro.api import Experiment, setup_bgp_for_routers
from repro.core import SimulationConfig
from repro.topology import FatTreeTopo


@pytest.fixture(scope="module")
def converged():
    exp = Experiment("bgp-ft", config=SimulationConfig())
    topo = FatTreeTopo(k=4, device="router")
    exp.load_topo(topo)
    daemons = setup_bgp_for_routers(exp, asn_map=topo.asn, max_paths=2)
    exp.run(until=5.0)
    return exp, topo, daemons


class TestConvergence:
    def test_all_sessions_up(self, converged):
        __, __, daemons = converged
        for name, daemon in daemons.items():
            assert daemon.all_established(), name

    def test_every_edge_knows_every_subnet(self, converged):
        __, topo, daemons = converged
        subnets = set(topo.host_subnet.values())
        for edge in topo.edge_switches:
            loc_rib_prefixes = {str(p) for p in daemons[edge].loc_rib.prefixes()}
            assert subnets <= loc_rib_prefixes

    def test_edges_have_ecmp_uplink_routes(self, converged):
        exp, topo, __ = converged
        edge = exp.network.get_node("e0_0")
        # Routes to remote-pod subnets must use both aggs (max_paths=2).
        entry = edge.fib.lookup("10.3.0.2")
        assert entry is not None
        assert len(entry.next_hops) == 2

    def test_valley_free_as_paths(self, converged):
        # An edge's route to a remote pod: AS path length 3
        # (agg, core, agg... wait: edge->agg->core->agg->edge = the
        # advertised path passes agg, core, agg = 3 hops before the
        # originating edge, so path length 4 including the origin).
        __, topo, daemons = converged
        route = daemons["e0_0"].loc_rib.best(
            next(iter({p for e, p in topo.host_subnet.items() if e == "e3_1"}))
        )
        from repro.netproto.addr import IPv4Prefix
        route = daemons["e0_0"].loc_rib.best(IPv4Prefix("10.3.1.0/24"))
        assert route is not None
        assert len(route.attributes.as_path) == 4

    def test_intra_pod_shorter_than_inter_pod(self, converged):
        from repro.netproto.addr import IPv4Prefix
        __, __, daemons = converged
        intra = daemons["e0_0"].loc_rib.best(IPv4Prefix("10.0.1.0/24"))
        inter = daemons["e0_0"].loc_rib.best(IPv4Prefix("10.2.0.0/24"))
        assert len(intra.attributes.as_path) < len(inter.attributes.as_path)


class TestTrafficOverBgp:
    def test_permutation_fully_delivered(self):
        exp = Experiment("bgp-traffic", config=SimulationConfig())
        topo = FatTreeTopo(k=4, device="router")
        exp.load_topo(topo)
        setup_bgp_for_routers(exp, asn_map=topo.asn, max_paths=2)
        exp.add_demo_traffic(rate_bps=1e9, duration=5.0, start_time=0.0)
        result = exp.run(until=6.0)
        assert result.flows_delivered == 16

    def test_link_failure_reroutes(self):
        exp = Experiment("bgp-fail", config=SimulationConfig())
        topo = FatTreeTopo(k=4, device="router")
        exp.load_topo(topo)
        daemons = setup_bgp_for_routers(
            exp, asn_map=topo.asn, max_paths=2,
            hold_time=3.0, keepalive_interval=1.0,
        )
        flow = exp.add_flow("h0_0_0", "h2_0_0", rate_bps=1e9,
                            start_time=0.0, duration=40.0)
        exp.run(until=5.0)
        assert flow.path is not None and flow.path.delivered
        used_aggs = [n for n in flow.path.node_names() if n.startswith("a0_")]
        assert len(used_aggs) == 1
        used_agg = used_aggs[0]

        # Fail the e0_0 <-> used_agg link: session dies by hold timer.
        for link in exp.network.links:
            names = {node.name for node in link.endpoints()}
            if names == {"e0_0", used_agg}:
                link.set_up(False)
                break
        for channel in exp.sim.cm.channels:
            label_names = set(channel.label.replace("bgp ", "").split("-"))
            if label_names == {"e0_0", used_agg}:
                channel.close()
                break
        exp.network.invalidate_routing()
        exp.run(until=20.0)

        # The flow must be flowing again, via the other agg.
        assert flow.path is not None and flow.path.delivered
        new_aggs = [n for n in flow.path.node_names() if n.startswith("a0_")]
        assert new_aggs and new_aggs[0] != used_agg
        assert flow.rate_bps > 0


class TestGoldenPin:
    """One small BGP failure scenario pinned to literals (recorded at
    the PR-11 seed, before flush-time export): a daemon change that
    moves a byte on the wire, an event in the schedule or a FIB
    operation shows up here, not only in a timing."""

    @staticmethod
    def _spec():
        from repro.scenarios import (ProtocolRecipe, TopologyRecipe,
                                     generate_scenario)
        return generate_scenario(
            7, pattern="k-random-links",
            topology=TopologyRecipe("fattree", {"k": 4, "device": "router"}),
            protocol=ProtocolRecipe("bgp", {"max_paths": 2}),
            duration=40.0, name="bgp-golden")

    def test_result_fingerprint(self):
        from repro.scenarios import ScenarioRunner
        result = ScenarioRunner().run(self._spec())
        assert result.fingerprint() == "e3b1a9083e846bf0"
        assert (result.events_fired, result.recomputations) == (1125, 90)

    def test_wire_schedule_and_fib_counts(self):
        from repro.scenarios import ScenarioRunner
        exp, __ = ScenarioRunner().materialize(self._spec())
        exp.run(until=40.0)
        stats = exp.sim.cm.stats()
        assert {key: stats[key] for key in (
            "deliveries", "control_bytes",
            "route_installs", "route_withdrawals")} == {
                "deliveries": 630, "control_bytes": 26140,
                "route_installs": 285, "route_withdrawals": 0}
        assert exp.sim.queue.stats["pushed"] == 1253
        # The daemons' own counters agree with the Connection Manager's.
        totals = [daemon.stats() for daemon in exp.bgp_daemons.values()]
        assert sum(s["fib_installs"] for s in totals) == 285
        assert sum(s["updates_sent"] for s in totals) == 438
        assert sum(s["decisions"] for s in totals) == 462


class TestOneCopyOfEachValue:
    """The daemons of an experiment decode into one table: each route
    value they keep exists once, and the table lives and dies with the
    experiment."""

    def test_each_value_is_one_object(self, converged):
        exp, __, daemons = converged
        routes, prefixes = [], []
        for daemon in daemons.values():
            for prefix in daemon.loc_rib.prefixes():
                routes += daemon.loc_rib.multipath(prefix)
            for state in daemon.peers.values():
                routes += state.adj_rib_in.routes()
                prefixes += state.adj_rib_out.prefixes()
            prefixes += daemon.loc_rib.prefixes()
            prefixes += list(daemon._installed)
            router = exp.network.get_node(daemon.router_name)
            prefixes += [entry.prefix for entry in router.fib.entries()]
        prefixes += [route.prefix for route in routes]
        kinds = {
            "prefix": prefixes,
            "AS path": [route.attributes.as_path for route in routes],
            "next hop": [route.attributes.next_hop for route in routes
                         if route.attributes.next_hop is not None],
            "preference": [route.preference for route in routes],
        }
        for kind, values in kinds.items():
            assert len(set(values)) > 1, kind
            assert len({id(value) for value in values}) == len(set(values)), kind

    @staticmethod
    def _bgp_experiment():
        exp = Experiment("bgp-values", config=SimulationConfig())
        topo = FatTreeTopo(k=4, device="router")
        exp.load_topo(topo)
        setup_bgp_for_routers(exp, asn_map=topo.asn, max_paths=2)
        exp.run(until=1.0)
        return exp

    def test_the_table_is_the_experiments(self):
        import gc
        import weakref

        first, second = self._bgp_experiment(), self._bgp_experiment()
        tables = {id(d.values) for d in first.bgp_daemons.values()}
        assert len(tables) == 1
        table = next(iter(first.bgp_daemons.values())).values
        assert table.prefixes and table.as_paths and table.next_hops
        assert all(d.values is not table for d in second.bgp_daemons.values())
        dropped = weakref.ref(table)
        del first, table, tables
        gc.collect()
        assert dropped() is None
