"""The six pinned workloads: ``--seed`` in, JSON-able program inputs out.

Everything here runs in the *parent* process.  The measured child only
ever sees the generated inputs (``ScenarioSpec.to_json`` payloads, or
plain parameter dicts for the two workloads that are not one spec), so
the program under test never learns which workload it is running.

Sizes are fixed; the seed picks *which* links fail, *which* hosts talk
and *when*, not the size of the run.  ``small=True`` is the same
recipe at k=4 with a handful of flows: the untimed warm-up every child
runs first, and the size ``--smoke`` and the smoke tests measure.
"""

import random

from repro.scenarios import (
    CapacityDegrade,
    ProtocolRecipe,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
    flap_storm,
    generate_scenario,
)
from repro.topology.fattree import FatTreeTopo

#: Failure patterns the campaign sweep cycles through, in order.
CAMPAIGN_PATTERNS = ("k-random-links", "flap-storm",
                     "rolling-maintenance", "gray-brownout")

#: (pod shift, rate) per flow a host originates in ``symmetry_orbit``
#: -- benchmarks/bench_symmetry.py's matrix, re-stated here because a
#: benchmark may not import from outside its own directory.
POD_SHIFT_RATES = ((1, 200e6), (2, 150e6), (3, 100e6),
                   (4, 80e6), (5, 60e6), (6, 40e6))


def _fattree(k):
    return TopologyRecipe("fattree", {"k": k, "device": "router"})


def _routed_fattree(name, seed, k, protocol):
    """Permutation traffic over a routed fat-tree; two random fabric
    links cut at seeded times and repaired 8 s later."""
    return generate_scenario(
        seed, pattern="k-random-links", topology=_fattree(k),
        protocol=protocol, duration=40.0, name=name)


def bgp_fattree(seed, small=False):
    return _routed_fattree(
        "bgp_fattree", seed, 4 if small else 8,
        ProtocolRecipe("bgp", {"max_paths": 4}))


def ospf_fattree(seed, small=False):
    return _routed_fattree(
        "ospf_fattree", seed, 4 if small else 6,
        ProtocolRecipe("ospf", {"hello_interval": 1.0,
                                "dead_interval": 4.0}))


def dataplane_churn(seed, small=False):
    """Short-lived random-pair flows arriving over 12.5 s on a static
    ECMP fat-tree (about 480 alive at the plateau) while eight links
    flap: DES only, no control plane."""
    k, flows, links = (4, 10, 2) if small else (8, 600, 8)
    topology = _fattree(k)
    topo = topology.build()
    rng = random.Random(seed)
    hosts = topo.hosts()
    matrix = []
    for _ in range(flows):
        src, dst = rng.sample(hosts, 2)
        matrix.append([src, dst, rng.uniform(1e6, 40e6)])
    return ScenarioSpec(
        name="dataplane_churn", seed=seed, duration=25.0,
        topology=topology,
        protocol=ProtocolRecipe("static", {"ecmp": True}),
        traffic=TrafficRecipe(pattern="matrix", flows=matrix,
                              start_time=1.0, duration=10.0, stagger=12.5),
        injections=flap_storm(topo, links=links, start=4.0, spread=4.0,
                              period=4.0, cycles=3, rng=rng),
    )


def symmetry_orbit(seed, small=False, symmetry=True):
    """Pod-shifted traffic matrix (every flow in a large automorphism
    class) while one seeded core router's whole link orbit is degraded
    every 0.5 s -- class-closed churn, the quotient layer's fast path.
    ``symmetry=False`` is the concrete twin the output check runs."""
    k, duration = (4, 20.0) if small else (8, 300.0)
    half = k // 2
    rng = random.Random(seed)
    core = f"c{rng.randrange(half)}_{rng.randrange(half)}"
    matrix = []
    for pod in range(k):
        for edge in range(half):
            for host in range(half):
                for shift, rate in POD_SHIFT_RATES[:k - 2]:
                    matrix.append([f"h{pod}_{edge}_{host}",
                                   f"h{(pod + shift) % k}_{edge}_{host}",
                                   rate])
    orbit = [(link.node_a, link.node_b)
             for link in FatTreeTopo(k=k, device="router").link_specs
             if core in (link.node_a, link.node_b)]
    injections = []
    at = 1.5
    while at + 0.5 < duration:
        injections.extend(
            CapacityDegrade(at=at, node_a=a, node_b=b, factor=0.5,
                            until=at + 0.25)
            for a, b in orbit)
        at += 0.5
    return ScenarioSpec(
        name="symmetry_orbit", seed=seed, duration=duration,
        topology=_fattree(k),
        protocol=ProtocolRecipe("static", {}),
        traffic=TrafficRecipe(pattern="matrix", flows=matrix,
                              start_time=1.0, duration=duration + 5.0),
        injections=injections,
        sim_params={"symmetry": True} if symmetry else {},
    )


def sdn_hedera(seed, small=False):
    """Parameters of the paper's Hedera demo (not a ScenarioSpec: the
    spec language has no Hedera controller, the demo scripts it)."""
    return {"k": 4 if small else 12, "seed": seed,
            "rate_bps": 1e9, "duration": 30.0, "margin": 2.0,
            "poll_interval": 5.0, "stats_interval": 0.5,
            "fib_latency": 0.005}


def campaign_sweep(seed, small=False):
    """Seeds and failure patterns of a default WAN/OSPF sweep; the
    child expands them with ``generate_scenario`` (that expansion is
    program work, and part of this workload's set-up time)."""
    count = 2 if small else 32
    # Eight rows per segment so the sweep seals segments and the report
    # reads mmap'd columns (the default, 8192, would leave a 32-run
    # sweep entirely in the JSONL tail).
    return {"segment_rows": 8, "scenarios": [
        {"seed": seed + index,
         "pattern": CAMPAIGN_PATTERNS[index % len(CAMPAIGN_PATTERNS)]}
        for index in range(count)]}


#: name -> (kind, builder, why).  ``kind`` selects the child-side body
#: (see :mod:`horsebench.child`); ``why`` is the BENCHMARK.json line.
WORKLOADS = {
    "bgp_fattree": (
        "scenario", bgp_fattree,
        "Fig. 3 BGP leg: daemon work dominates, ~1k route-change "
        "recomputes over few flows"),
    "ospf_fattree": (
        "scenario", ospf_fattree,
        "highest event rate: LSA flooding stresses core loop/queue/CM "
        "beside ospf, dataplane nearly idle"),
    "sdn_hedera": (
        "hedera", sdn_hedera,
        "Fig. 3 SDN leg: openflow+controllers and flow-table walks, "
        "stats polling reads byte counters mid-run"),
    "dataplane_churn": (
        "scenario", dataplane_churn,
        "flow arrival/departure churn with zero control plane: "
        "walks, max-min solve and accrual only"),
    "symmetry_orbit": (
        "scenario", symmetry_orbit,
        "the only run on the symmetry quotient path and its "
        "class-level kernel"),
    "campaign_sweep": (
        "campaign", campaign_sweep,
        "32 short WAN/OSPF runs through Campaign + columnar store: "
        "per-scenario fixed cost, FTI ticking, store write+read"),
}


def _as_input(made):
    return {"spec": made.to_dict()} if isinstance(made, ScenarioSpec) \
        else made


def build_input(name, seed, small=False):
    """The JSON-able program input of workload ``name`` for ``seed``."""
    return _as_input(WORKLOADS[name][1](seed, small=small))


def twin_input(name, seed, small=False):
    """Input of the run whose results must equal ``name``'s bit for bit
    (the output check runs it once, untimed), or None: only the quotient
    workload has one, its concrete self."""
    if name != "symmetry_orbit":
        return None
    return _as_input(symmetry_orbit(seed, small=small, symmetry=False))
