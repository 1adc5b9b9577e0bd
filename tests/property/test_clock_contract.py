"""Property: the clock policy and its two knobs never move a result.

The hybrid clock trades FTI ticks (wall pacing against the emulated
control plane) for DES jumps.  Which mode runs, how long an FTI tick
is and how long a quiet control plane waits before falling back to
DES change the tick counts, the transition log and the wall time —
and nothing else: every event fires at its own timestamp either way.
Each generated spec therefore runs under every combination of

* ``clock_policy`` ∈ {``HYBRID``, ``PURE_DES``, ``PURE_FTI``},
* ``fti_increment`` ∈ {0.001, 0.0007},
* ``des_fallback_timeout`` ∈ {0.1, 0.37},

and all twelve runs must give one fingerprint.  The three demo
experiments are held to the same contract on their own results.  A
divergence is a bug in the clock or in something that reads it, not
a tolerance to widen.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.demo import (
    DemoSettings,
    run_bgp_ecmp,
    run_hedera,
    run_sdn_ecmp,
)
from repro.core.clock import ClockPolicy
from repro.scenarios import ProtocolRecipe, TopologyRecipe, run_scenario
from repro.scenarios.generators import PATTERNS, generate_scenario

CLOCK_GRID = [
    {"clock_policy": policy, "fti_increment": increment,
     "des_fallback_timeout": timeout}
    for policy in (ClockPolicy.HYBRID, ClockPolicy.PURE_DES,
                   ClockPolicy.PURE_FTI)
    for increment in (0.001, 0.0007)
    for timeout in (0.1, 0.37)
]

ROUTER_FATTREE = TopologyRecipe("fattree", {"k": 4, "device": "router"})
SWITCH_FATTREE = TopologyRecipe("fattree", {"k": 4, "device": "switch"})

#: protocol -> (topology, recipe): every protocol kind a spec can name.
PROTOCOL_CASES = {
    "none": (ROUTER_FATTREE, ProtocolRecipe("none", {})),
    "static": (ROUTER_FATTREE, ProtocolRecipe("static", {})),
    "bgp": (ROUTER_FATTREE, ProtocolRecipe("bgp", {"max_paths": 2})),
    "ospf": (TopologyRecipe("wan", {}),
             ProtocolRecipe("ospf", {"hello_interval": 1.0,
                                     "dead_interval": 4.0})),
    "sdn": (SWITCH_FATTREE, ProtocolRecipe("sdn", {})),
}


@given(protocol=st.sampled_from(sorted(PROTOCOL_CASES)),
       pattern=st.sampled_from(sorted(PATTERNS)),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_scenario_fingerprint_ignores_the_clock(protocol, pattern, seed):
    topology, recipe = PROTOCOL_CASES[protocol]
    spec = generate_scenario(seed, pattern=pattern, topology=topology,
                             protocol=recipe, duration=30.0)
    results = [run_scenario(dataclasses.replace(spec,
                                                 sim_params=dict(variant)))
               for variant in CLOCK_GRID]
    assert all(result.error is None for result in results)
    fingerprints = {result.fingerprint() for result in results}
    assert len(fingerprints) == 1, fingerprints


def _demo_outcomes(run):
    outcomes, ticks = set(), set()
    for variant in CLOCK_GRID:
        result = run(DemoSettings(k=4, duration=12.0, **variant))
        outcomes.add((result.flows_delivered, result.mean_aggregate_rx_bps,
                      tuple(result.aggregate_series),
                      result.report.events_fired))
        ticks.add(result.report.fti_ticks)
    return outcomes, ticks


def test_demo_results_ignore_the_clock():
    for run in (run_hedera, run_sdn_ecmp, run_bgp_ecmp):
        outcomes, ticks = _demo_outcomes(run)
        assert len(outcomes) == 1, (run.__name__, outcomes)
        # The knobs are live: the variants really ran differently.
        assert len(ticks) > 1, run.__name__
