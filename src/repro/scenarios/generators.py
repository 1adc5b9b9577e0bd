"""Seeded random scenario generation.

Turns one seed into one fully-specified :class:`ScenarioSpec`, so a
campaign is nothing but a seed range: the same (pattern, topology,
seed) triple always yields the identical injection schedule, traffic
and timers — re-running seed 17 of a sweep of 10 000 scenarios
reproduces exactly what the sweep measured.

The failure *patterns* are the classic control-plane stress shapes:

* ``k-random-links``      — k distinct fabric links cut at random
  times, each repaired after a fixed outage;
* ``flap-storm``          — several links flapping on independent
  phases (data-plane churn: the default 3 s outages end before a
  routing adjacency times out, so no adjacency drops);
* ``rolling-maintenance`` — devices taken down and brought back one
  after another (upgrade wave);
* ``gray-brownout``       — capacity degradations that routing never
  notices;
* ``srlg``                — *correlated* failures: whole shared-risk
  link groups (a conduit cut, a pod's cable tray, a spine chassis)
  going down near-simultaneously, derived from the topology recipe
  by :func:`srlg_groups`.

Independent random failures rarely find the inputs that actually hurt
a controller; the SRLG family and the traffic-matrix families
(:func:`traffic_matrix`: uniform, elephant-mice, hotspot) feed the
adversarial search in :mod:`repro.scenarios.search` with correlated,
structured stress instead.

All randomness flows through one ``random.Random(seed)`` instance per
scenario, consumed in a fixed order.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Tuple

from repro.core.errors import ConfigurationError
from repro.scenarios.injections import (
    CapacityDegrade,
    Injection,
    LinkFail,
    LinkFlap,
    LinkRestore,
    NodeFail,
    NodeRecover,
)
from repro.scenarios.spec import (
    ProtocolRecipe,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
    check_params,
)
from repro.topology.fattree import FatTreeTopo
from repro.topology.topo import Topo
from repro.traffic import patterns


def fabric_links(topo: Topo) -> List[Tuple[str, str]]:
    """(a, b) endpoint names of device-device links, in declaration
    order — the candidates failure patterns draw from (host uplinks
    are spared so sources/sinks stay attached)."""
    devices = set(topo.switch_specs)
    return [
        (spec.node_a, spec.node_b)
        for spec in topo.link_specs
        if spec.node_a in devices and spec.node_b in devices
    ]


def fabric_nodes(topo: Topo) -> List[str]:
    """Device names in declaration order (maintenance candidates)."""
    return list(topo.switch_specs)


def _sample_links(topo: Topo, count: int,
                  rng: random.Random) -> List[Tuple[str, str]]:
    candidates = fabric_links(topo)
    if not candidates:
        raise ConfigurationError(
            f"topology {topo.name!r} has no device-device links to fail")
    return rng.sample(candidates, min(count, len(candidates)))


def k_random_link_failures(
    topo: Topo,
    k: int = 2,
    seed: int = 0,
    window: Tuple[float, float] = (8.0, 18.0),
    outage: float = 8.0,
    rng: "random.Random | None" = None,
) -> List[Injection]:
    """Cut ``k`` distinct fabric links at seeded times inside
    ``window``; each is repaired ``outage`` seconds after its cut."""
    rng = rng or random.Random(seed)
    links = _sample_links(topo, k, rng)
    injections: List[Injection] = []
    times = sorted(rng.uniform(*window) for __ in links)
    for (node_a, node_b), at in zip(links, times):
        injections.append(LinkFail(at=at, node_a=node_a, node_b=node_b))
        injections.append(LinkRestore(at=at + outage,
                                      node_a=node_a, node_b=node_b))
    return injections


def flap_storm(
    topo: Topo,
    links: int = 2,
    seed: int = 0,
    start: float = 8.0,
    spread: float = 4.0,
    period: float = 6.0,
    cycles: int = 2,
    duty: float = 0.5,
    rng: "random.Random | None" = None,
) -> List[Injection]:
    """Several links flapping on independent phases within ``spread``.

    Each flap is down for ``period * duty`` seconds (3 s by default).
    That ends before the generator's 4 s OSPF dead interval and BGP's
    90 s hold time, and a daemon hears of a cut only through those
    timers: by default the storm churns the data plane and drops no
    adjacency.
    """
    rng = rng or random.Random(seed)
    chosen = _sample_links(topo, links, rng)
    injections: List[Injection] = []
    for node_a, node_b in chosen:
        phase = rng.uniform(0.0, spread)
        injections.append(LinkFlap(
            at=start + phase, node_a=node_a, node_b=node_b,
            cycles=cycles, period=period, duty=duty,
        ))
    return injections


def rolling_maintenance(
    topo: Topo,
    nodes: int = 2,
    seed: int = 0,
    start: float = 8.0,
    interval: float = 10.0,
    downtime: float = 6.0,
    rng: "random.Random | None" = None,
) -> List[Injection]:
    """Take ``nodes`` devices down one after another, ``interval``
    apart, each for ``downtime`` seconds — an upgrade wave."""
    if downtime >= interval:
        raise ConfigurationError(
            "rolling maintenance needs downtime < interval "
            "(at most one device down at a time)")
    rng = rng or random.Random(seed)
    candidates = fabric_nodes(topo)
    if not candidates:
        raise ConfigurationError(
            f"topology {topo.name!r} has no devices to maintain")
    chosen = rng.sample(candidates, min(nodes, len(candidates)))
    injections: List[Injection] = []
    for index, node in enumerate(chosen):
        down_at = start + index * interval
        injections.append(NodeFail(at=down_at, node=node))
        injections.append(NodeRecover(at=down_at + downtime, node=node))
    return injections


def gray_brownout(
    topo: Topo,
    links: int = 2,
    seed: int = 0,
    window: Tuple[float, float] = (8.0, 18.0),
    outage: float = 10.0,
    factor_range: Tuple[float, float] = (0.1, 0.5),
    rng: "random.Random | None" = None,
) -> List[Injection]:
    """Degrade ``links`` fabric links to a seeded fraction of their
    capacity for ``outage`` seconds — faults routing never sees."""
    rng = rng or random.Random(seed)
    chosen = _sample_links(topo, links, rng)
    injections: List[Injection] = []
    for node_a, node_b in chosen:
        at = rng.uniform(*window)
        factor = rng.uniform(*factor_range)
        injections.append(CapacityDegrade(
            at=at, node_a=node_a, node_b=node_b,
            factor=factor, until=at + outage,
        ))
    return injections


def srlg_groups(topo: Topo) -> Dict[str, List[Tuple[str, str]]]:
    """Shared-risk link groups derived from the topology's structure.

    Links in one group plausibly share a physical fate — a cable tray,
    a conduit, a chassis — so correlated-failure scenarios cut them
    *together*.  Derivation is purely structural and deterministic:

    * fat-tree: one ``pod<p>`` group per pod (that pod's edge-agg
      mesh — the cable tray inside the pod) and one ``core-<name>``
      group per core switch (every agg uplink landing on that chassis,
      the "same-spine" risk);
    * anything else: one ``node-<name>`` group per device with two or
      more fabric links (all links entering one conduit/chassis).

    Groups with fewer than two links are dropped — a singleton SRLG is
    just a link failure, which ``k-random-links`` already covers.
    """
    links = fabric_links(topo)
    groups: Dict[str, List[Tuple[str, str]]] = {}
    if isinstance(topo, FatTreeTopo):
        for node_a, node_b in links:
            layers = {topo.layer_of(node_a), topo.layer_of(node_b)}
            if layers == {"edge", "agg"}:
                pod = int(node_a.split("_")[0][1:])
                groups.setdefault(f"pod{pod}", []).append((node_a, node_b))
            elif "core" in layers:
                core = node_a if topo.layer_of(node_a) == "core" else node_b
                groups.setdefault(f"core-{core}", []).append((node_a, node_b))
    else:
        for node_a, node_b in links:
            groups.setdefault(f"node-{node_a}", []).append((node_a, node_b))
            groups.setdefault(f"node-{node_b}", []).append((node_a, node_b))
    return {name: members for name, members in groups.items()
            if len(members) >= 2}


def srlg_failure(
    topo: Topo,
    groups: int = 1,
    seed: int = 0,
    window: Tuple[float, float] = (8.0, 18.0),
    outage: float = 8.0,
    stagger: float = 0.5,
    rng: "random.Random | None" = None,
) -> List[Injection]:
    """Fail ``groups`` whole shared-risk link groups.

    Every link of a chosen group is cut within ``stagger`` seconds of
    the group's onset (a backhoe does not cut fibers at exactly the
    same instant) and all are repaired together ``outage`` seconds
    after onset.
    """
    if stagger < 0 or stagger >= outage:
        raise ConfigurationError(
            "srlg failure needs 0 <= stagger < outage "
            "(the group must still be down when it is repaired)")
    rng = rng or random.Random(seed)
    available = srlg_groups(topo)
    if not available:
        raise ConfigurationError(
            f"topology {topo.name!r} has no shared-risk link groups "
            f"(no device touches two or more fabric links)")
    names = sorted(available)
    chosen = rng.sample(names, min(groups, len(names)))
    # A link can sit in several chosen groups (with node-derived
    # groups, every link belongs to both endpoints').  Emit ONE
    # fail/restore pair per link — earliest cut, latest repair —
    # otherwise the first group's restore would replug the link midway
    # through the other group's outage.
    order: List[Tuple[str, str]] = []
    cut_at: Dict[Tuple[str, str], float] = {}
    repaired_at: Dict[Tuple[str, str], float] = {}
    for name in chosen:
        onset = rng.uniform(*window)
        for link in available[name]:
            cut = onset + (rng.uniform(0.0, stagger) if stagger else 0.0)
            if link not in cut_at:
                order.append(link)
                cut_at[link] = cut
                repaired_at[link] = onset + outage
            else:
                cut_at[link] = min(cut_at[link], cut)
                repaired_at[link] = max(repaired_at[link], onset + outage)
    injections: List[Injection] = []
    for node_a, node_b in order:
        injections.append(LinkFail(at=cut_at[(node_a, node_b)],
                                   node_a=node_a, node_b=node_b))
        injections.append(LinkRestore(at=repaired_at[(node_a, node_b)],
                                      node_a=node_a, node_b=node_b))
    return injections


# -- traffic-matrix families -----------------------------------------------

TRAFFIC_FAMILIES = ("uniform", "elephant-mice", "hotspot")


def traffic_matrix(
    topo: Topo,
    family: str = "uniform",
    seed: int = 0,
    rate_bps: float = 500_000_000.0,
    elephant_fraction: float = 0.125,
    elephant_factor: float = 8.0,
    hotspot_fraction: float = 0.5,
    background_factor: float = 0.25,
    start_time: float = 1.0,
    duration: float = 30.0,
    rng: "random.Random | None" = None,
) -> TrafficRecipe:
    """One seeded traffic matrix over the topology's hosts, as an
    explicit per-flow :class:`TrafficRecipe` (``pattern="matrix"``).

    Families:

    * ``uniform``       — a host permutation, every flow at
      ``rate_bps`` (the all-equal baseline matrix);
    * ``elephant-mice`` — the same permutation, but a seeded
      ``elephant_fraction`` of the flows are elephants at
      ``elephant_factor`` times the mice rate (skewed byte counts,
      the datacenter heavy tail);
    * ``hotspot``       — a seeded ``hotspot_fraction`` of the hosts
      incast one seeded victim host at full rate, everyone else keeps
      a background permutation at ``background_factor`` of it.

    Everything is drawn from one ``random.Random(seed)`` in a fixed
    order, and the result is plain data — JSON-round-trippable through
    :class:`~repro.scenarios.spec.ScenarioSpec` like any other recipe.
    """
    if family not in TRAFFIC_FAMILIES:
        raise ConfigurationError(
            f"unknown traffic-matrix family {family!r}; "
            f"choose from {TRAFFIC_FAMILIES}")
    if rate_bps <= 0:
        raise ConfigurationError("traffic_matrix rate_bps must be positive")
    hosts = topo.hosts()
    if len(hosts) < 2:
        raise ConfigurationError(
            f"topology {topo.name!r} has fewer than two hosts")
    rng = rng or random.Random(seed)
    flows: List[List[Any]] = []
    if family == "uniform":
        for src, dst in patterns.permutation_pairs(hosts, rng=rng):
            flows.append([src, dst, float(rate_bps)])
    elif family == "elephant-mice":
        pairs = patterns.permutation_pairs(hosts, rng=rng)
        count = max(1, round(elephant_fraction * len(pairs)))
        elephants = set(rng.sample(range(len(pairs)), min(count, len(pairs))))
        for index, (src, dst) in enumerate(pairs):
            factor = elephant_factor if index in elephants else 1.0
            flows.append([src, dst, float(rate_bps) * factor])
    else:  # hotspot
        victim = rng.choice(hosts)
        others = [host for host in hosts if host != victim]
        count = max(2, round(hotspot_fraction * len(others)))
        shooters = rng.sample(others, min(count, len(others)))
        for src in shooters:
            flows.append([src, victim, float(rate_bps)])
        bystanders = [host for host in others if host not in set(shooters)]
        for src, dst in patterns.permutation_pairs(bystanders, rng=rng):
            flows.append([src, dst, float(rate_bps) * background_factor])
    return TrafficRecipe(
        pattern="matrix",
        rate_bps=rate_bps,
        start_time=start_time,
        duration=duration,
        flows=flows,
    )


# pattern name -> (generator, parameter names it accepts)
PATTERNS: Dict[str, Callable[..., List[Injection]]] = {
    "k-random-links": k_random_link_failures,
    "flap-storm": flap_storm,
    "rolling-maintenance": rolling_maintenance,
    "gray-brownout": gray_brownout,
    "srlg": srlg_failure,
}


def generate_scenario(
    seed: int,
    pattern: str = "k-random-links",
    topology: "TopologyRecipe | None" = None,
    protocol: "ProtocolRecipe | None" = None,
    traffic: "TrafficRecipe | None" = None,
    duration: float = 40.0,
    name: "str | None" = None,
    pattern_params: "Dict[str, Any] | None" = None,
    traffic_family: "str | None" = None,
    traffic_params: "Dict[str, Any] | None" = None,
) -> ScenarioSpec:
    """One seed -> one fully-specified scenario (the campaign unit).

    Defaults describe a WAN running fast-timer OSPF with a seeded
    permutation of CBR flows; ``pattern`` picks the failure shape and
    ``pattern_params`` tunes it.  ``traffic_family`` swaps the default
    permutation for a seeded :func:`traffic_matrix` family (uniform /
    elephant-mice / hotspot), tuned by ``traffic_params``.  Fully
    deterministic per (seed, pattern, topology, params).
    """
    if pattern not in PATTERNS:
        raise ConfigurationError(
            f"unknown failure pattern {pattern!r}; "
            f"choose from {sorted(PATTERNS)}")
    if traffic is not None and traffic_family is not None:
        raise ConfigurationError(
            "give either an explicit traffic recipe or a traffic_family, "
            "not both")
    topology = topology or TopologyRecipe("wan", {})
    protocol = protocol or ProtocolRecipe(
        "ospf", {"hello_interval": 1.0, "dead_interval": 4.0})
    topo = topology.build()
    if traffic is None and traffic_family is not None:
        # A dedicated Random(seed): the injection schedule below stays
        # identical whether or not a matrix family is in play.  The
        # seed/duration defaults are overridable tunables — update()
        # instead of a second kwarg, so "--traffic-param duration=10"
        # is a choice, not a TypeError.
        matrix_params: Dict[str, Any] = {
            "seed": seed, "duration": max(duration - 5.0, 1.0)}
        matrix_params.update(traffic_params or {})
        check_params(f"{traffic_family} traffic", traffic_matrix,
                     matrix_params, supplied=("topo", "family", "rng"))
        traffic = traffic_matrix(topo, family=traffic_family,
                                 **matrix_params)
    traffic = traffic or TrafficRecipe(
        pattern="permutation",
        rate_bps=500_000_000.0,
        start_time=1.0,
        duration=max(duration - 5.0, 1.0),
    )
    rng = random.Random(seed)
    pattern_params = dict(pattern_params or {})
    check_params(f"{pattern} pattern", PATTERNS[pattern], pattern_params,
                 supplied=("topo", "seed", "rng"))
    injections = PATTERNS[pattern](topo, seed=seed, rng=rng,
                                   **pattern_params)
    spec = ScenarioSpec(
        name=name or f"{pattern}-seed{seed}",
        seed=seed,
        duration=duration,
        topology=topology,
        protocol=protocol,
        traffic=traffic,
        injections=injections,
    )
    spec.validate()
    return spec

