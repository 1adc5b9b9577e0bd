"""Routing ignores traffic: BGP and OSPF send the same control messages
and program the same routes at the same instants whether or not flows
run.

A campaign that shares a control-plane history across scenarios which
differ only in traffic stands on this.  For BGP and OSPF, on a k=4
router fat-tree and on the WAN, a spec is run with its traffic and with
``traffic: none``: the control message and byte counts, and the timed
log of every route install and withdrawal the Connection Manager
performs, must be equal.  SDN is the counter-example: its reactive app
installs on packet-in, so traffic changes what the control plane does.
"""

import dataclasses

import pytest

from repro.scenarios import (
    ProtocolRecipe,
    ScenarioRunner,
    TopologyRecipe,
    TrafficRecipe,
    generate_scenario,
)

FATTREE = TopologyRecipe("fattree", {"k": 4, "device": "router"})
WAN = TopologyRecipe("wan", {})


def control_plane_history(spec):
    """(messages, bytes, timed route log) of one run of ``spec``, the
    log captured by wrapping the run's Connection Manager."""
    exp, __ = ScenarioRunner().materialize(spec)
    cm = exp.sim.cm
    log = []

    def logged(kind, call):
        def wrapper(*args):
            log.append((exp.sim.clock.now.hex(), kind, repr(args)))
            return call(*args)
        return wrapper

    cm.install_route = logged("install", cm.install_route)
    cm.withdraw_route = logged("withdraw", cm.withdraw_route)
    cm.record_flow_mod = logged("flow_mod", cm.record_flow_mod)
    exp.run(until=spec.duration)
    stats = cm.stats()
    return stats["control_messages"], stats["control_bytes"], log


def with_and_without_traffic(topology, protocol, seed):
    spec = generate_scenario(
        seed, topology=topology, protocol=protocol, duration=20.0,
        pattern_params={"window": (5.0, 10.0), "outage": 4.0})
    assert spec.traffic.pattern != "none"
    quiet = dataclasses.replace(spec, traffic=TrafficRecipe(pattern="none"))
    return control_plane_history(spec), control_plane_history(quiet)


@pytest.mark.parametrize("topology", [FATTREE, WAN], ids=["fattree", "wan"])
@pytest.mark.parametrize("protocol", [
    ProtocolRecipe("bgp", {}),
    ProtocolRecipe("ospf", {"hello_interval": 1.0, "dead_interval": 4.0}),
], ids=["bgp", "ospf"])
def test_routing_history_is_the_same_without_traffic(topology, protocol):
    loaded, quiet = with_and_without_traffic(topology, protocol, seed=1)
    messages, control_bytes, log = loaded
    assert messages > 0 and control_bytes > 0
    assert any(kind == "install" for __, kind, __ in log)
    assert loaded == quiet


def test_sdn_history_depends_on_traffic():
    # FiveTupleEcmpApp is reactive: a flow's first packet misses, the
    # switch sends a PACKET_IN and the app installs the flow's path.
    # Without traffic nothing misses, so the controller stays quiet.
    loaded, quiet = with_and_without_traffic(
        TopologyRecipe("fattree", {"k": 4}), ProtocolRecipe("sdn", {}),
        seed=1)
    assert loaded[0] > quiet[0]
    assert any(kind == "flow_mod" for __, kind, __ in loaded[2])
    assert loaded[2] != quiet[2]
