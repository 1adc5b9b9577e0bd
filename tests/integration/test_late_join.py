"""Inputs can join late: a scenario's control plane may run alone first.

A sweep that shares one converged bring-up across scenarios (ROADMAP
item 11) stands on this.  For ``none``, ``static``, BGP and OSPF specs,
:class:`LateJoinRunner` materializes the spec without its traffic and
injections and runs it to 1 ms before the earliest of them.  Only then
does it schedule the traffic, the injection outcomes and
``_check_recovery``'s hook, and the run continues to the horizon.  The
fingerprint must equal the plain runner's, with ``events_fired`` and
``sim_seconds`` summed over the two parts.  Every injection kind and
every ``generate_scenario`` pattern is covered.
"""

import dataclasses

import pytest

from repro.scenarios import (
    InjectionOutcome,
    Partition,
    ProtocolRecipe,
    ScenarioRunner,
    ScenarioSpec,
    TopologyRecipe,
    TrafficBurst,
    TrafficRecipe,
    generate_scenario,
    run_scenario,
)
from repro.scenarios.generators import PATTERNS
from repro.scenarios.injections import INJECTION_KINDS

SPLIT_BEFORE = 1e-3

FATTREE = TopologyRecipe("fattree", {"k": 4, "device": "router"})
WAN = TopologyRecipe("wan", {})
PROTOCOLS = {
    "none": ProtocolRecipe("none", {}),
    "static": ProtocolRecipe("static", {}),
    "bgp": ProtocolRecipe("bgp", {}),
    "ospf": ProtocolRecipe("ospf", {"hello_interval": 1.0,
                                    "dead_interval": 4.0}),
}


def earliest_input(spec):
    """The first instant traffic or an injection acts."""
    times = [injection.at for injection in spec.injections]
    if spec.traffic.pattern != "none":
        times.append(spec.traffic.start_time)
    return min(times)


class LateJoinRunner(ScenarioRunner):
    """Materializes the control plane alone, runs it to just before the
    first input, then lets the traffic, injections and recovery hook
    join.  ``bring_up`` keeps the first part's report."""

    bring_up = None

    def materialize(self, spec):
        quiet = dataclasses.replace(
            spec, traffic=TrafficRecipe(pattern="none"), injections=[])
        exp, __ = super().materialize(quiet)
        # The quiet spec's hook watches no outcome; the real one joins
        # below, in the position the plain runner gives it.
        exp.network.on_reallocation.pop()
        self.bring_up = exp.run(
            until=earliest_input(spec) - SPLIT_BEFORE).report

        self._setup_traffic(exp, spec)
        outcomes = [InjectionOutcome(label=label, at=at)
                    for injection in spec.injections
                    for at, label in injection.schedule(exp)]
        outcomes.sort(key=lambda o: (o.at, o.label))
        exp.network.on_reallocation.append(
            self._check_recovery(exp, outcomes))
        return exp, outcomes


def late_join(spec):
    runner = LateJoinRunner()
    result = runner.run(spec)
    if spec.protocol.kind in ("bgp", "ospf"):
        assert runner.bring_up.events_fired > 0  # the control plane ran
    result.events_fired += runner.bring_up.events_fired
    result.sim_seconds += runner.bring_up.simulated_seconds
    return result


def pattern_specs():
    for kind, protocol in PROTOCOLS.items():
        for pattern in PATTERNS:
            # OSPF's own default is the WAN; the rest run the fat-tree.
            topology = WAN if kind == "ospf" else FATTREE
            yield pytest.param(
                generate_scenario(1, pattern=pattern, topology=topology,
                                  protocol=protocol),
                id=f"{kind}-{pattern}")


def hand_built_specs():
    """The two kinds no pattern generates: a partition that heals and a
    traffic burst, on each protocol."""
    for kind, protocol in PROTOCOLS.items():
        injections = [
            Partition(at=6.0, group=["e0_0", "h0_0_0", "h0_0_1"],
                      heal_at=12.0),
            TrafficBurst(at=14.0, duration=4.0, flows=3, seed=5),
        ]
        yield pytest.param(
            ScenarioSpec(
                name=f"late-join-{kind}", seed=3, duration=30.0,
                topology=FATTREE, protocol=protocol,
                traffic=TrafficRecipe(pattern="permutation", start_time=2.0,
                                      duration=20.0),
                injections=injections),
            id=f"{kind}-partition-burst")


def test_every_pattern_and_injection_kind_is_covered():
    kinds = {injection.kind
             for param in list(pattern_specs()) + list(hand_built_specs())
             for injection in param.values[0].injections}
    assert kinds == set(INJECTION_KINDS)
    patterns = {param.id.split("-", 1)[1] for param in pattern_specs()}
    assert patterns == set(PATTERNS)


@pytest.mark.parametrize("spec", list(pattern_specs())
                         + list(hand_built_specs()))
def test_inputs_joining_late_keep_the_fingerprint(spec):
    plain = run_scenario(spec)
    late = late_join(spec)
    assert late.sim_seconds == plain.sim_seconds
    assert late.events_fired == plain.events_fired
    assert late.fingerprint() == plain.fingerprint()
