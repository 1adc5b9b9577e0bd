"""Materialize and run one scenario; measure what happened.

:class:`ScenarioRunner` is the bridge from data to execution: it turns
a :class:`~repro.scenarios.spec.ScenarioSpec` into a live
:class:`~repro.api.experiment.Experiment`, schedules the injections,
runs to the horizon and distils a :class:`ScenarioResult` — the
numbers a failure campaign aggregates (convergence time, delivered vs
demanded traffic, and how long each injection took to recover from).

Reproducibility contract: running the same spec twice — in the same
process, in different processes, before or after other scenarios —
yields *bit-for-bit identical* results (``wall_seconds`` excepted,
which is excluded from equality and fingerprints).  Every
:class:`~repro.api.experiment.Experiment` resets the process-global id
counters before building, and the event queue numbers its events per
simulation, so nothing leaks between runs.

Scenario runs ride the incremental reallocation engine (PR 2): the
path cache and dependency index live on the :class:`Network` for the
whole run, so a flap-storm's tenth injection re-walks only the flows
the ninth one left dirty.
"""

from __future__ import annotations

import hashlib
import json
import random
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api.control_setup import (
    setup_bgp_for_routers,
    setup_ospf_for_routers,
    setup_static_routes,
)
from repro.api.experiment import Experiment
from repro.api.metrics import (
    bgp_convergence,
    ospf_convergence,
    scenario_metrics,
)
from repro.core.config import SimulationConfig
from repro.dataplane.flow import FluidFlow
from repro.obs.metrics import metrics
from repro.obs.spans import TRACER, span
from repro.results.records import (
    RESULT_SCHEMA_VERSION,
    VOLATILE_RESULT_FIELDS,
)
from repro.results.slo import SLOVerdict, evaluate_slos
from repro.scenarios.spec import ScenarioSpec, check_params
from repro.traffic.generators import TrafficSpec, cbr_udp_flows

_EPS = 1e-9


@dataclass
class InjectionOutcome:
    """One disruption mark and when traffic recovered from it.

    ``recovered_at`` is the first reallocation instant at or after the
    mark where every flow that should be running was delivered again;
    None means delivery never fully recovered before the horizon.
    """

    label: str
    at: float
    recovered_at: Optional[float] = None

    @property
    def recovery_seconds(self) -> Optional[float]:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.at

    def to_dict(self) -> Dict[str, Any]:
        return {"label": self.label, "at": self.at,
                "recovered_at": self.recovered_at}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "InjectionOutcome":
        return cls(label=data["label"], at=data["at"],
                   recovered_at=data.get("recovered_at"))


@dataclass
class ScenarioResult:
    """Everything one scenario run measured.

    Equality and :meth:`fingerprint` deliberately ignore
    ``wall_seconds`` and ``diagnostics`` — two runs of the same spec
    must compare equal even when engine internals (cache sizes, timing
    observations, error reprs) differ in presentation.  SLO verdicts
    *are* covered: they are pure functions of the deterministic
    metrics, and a regression gate wants them pinned.
    """

    name: str = ""
    seed: int = 0
    sim_seconds: float = 0.0
    events_fired: int = 0
    recomputations: int = 0
    converged: bool = False
    convergence_time: Optional[float] = None
    flows_delivered: int = 0
    flows_total: int = 0
    delivered_bytes: float = 0.0
    demanded_bytes: float = 0.0
    control_messages: int = 0
    control_bytes: int = 0
    injections: List[InjectionOutcome] = field(default_factory=list)
    slos: List[SLOVerdict] = field(default_factory=list)
    # Engine internals and failure forensics (realloc stats, error
    # strings); excluded from equality and fingerprints.
    diagnostics: Dict[str, Any] = field(default_factory=dict, compare=False)
    wall_seconds: float = field(default=0.0, compare=False)

    @property
    def delivered_fraction(self) -> float:
        """Delivered over demanded bytes (1.0 when nothing was asked)."""
        if self.demanded_bytes <= 0:
            return 1.0
        return self.delivered_bytes / self.demanded_bytes

    @property
    def recovered_count(self) -> int:
        return sum(1 for o in self.injections if o.recovered_at is not None)

    @property
    def error(self) -> Optional[str]:
        """The failure string when the scenario died mid-run (fault
        isolation records it in diagnostics), else None."""
        return self.diagnostics.get("error")

    @property
    def slo_passed(self) -> int:
        return sum(1 for v in self.slos if v.passed)

    @property
    def slos_ok(self) -> bool:
        """True when every attached SLO holds (vacuously with none)."""
        return all(v.passed for v in self.slos)

    def metrics(self) -> Dict[str, Any]:
        """The flat metric view SLOs and CSV exports address."""
        return scenario_metrics(self.to_dict())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "sim_seconds": self.sim_seconds,
            "events_fired": self.events_fired,
            "recomputations": self.recomputations,
            "converged": self.converged,
            "convergence_time": self.convergence_time,
            "flows_delivered": self.flows_delivered,
            "flows_total": self.flows_total,
            "delivered_bytes": self.delivered_bytes,
            "demanded_bytes": self.demanded_bytes,
            "control_messages": self.control_messages,
            "control_bytes": self.control_bytes,
            "injections": [o.to_dict() for o in self.injections],
            "slos": [v.to_dict() for v in self.slos],
            "diagnostics": dict(self.diagnostics),
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioResult":
        # Tolerates v1 payloads: the v2 fields all default.
        return cls(
            name=data["name"],
            seed=data["seed"],
            sim_seconds=data["sim_seconds"],
            events_fired=data["events_fired"],
            recomputations=data["recomputations"],
            converged=data["converged"],
            convergence_time=data.get("convergence_time"),
            flows_delivered=data["flows_delivered"],
            flows_total=data["flows_total"],
            delivered_bytes=data["delivered_bytes"],
            demanded_bytes=data["demanded_bytes"],
            control_messages=data.get("control_messages", 0),
            control_bytes=data.get("control_bytes", 0),
            injections=[InjectionOutcome.from_dict(d)
                        for d in data.get("injections", [])],
            slos=[SLOVerdict.from_dict(d) for d in data.get("slos", [])],
            diagnostics=dict(data.get("diagnostics", {})),
            wall_seconds=data.get("wall_seconds", 0.0),
        )

    def fingerprint(self) -> str:
        """Stable digest of the deterministic fields — the bit-for-bit
        reproducibility check campaigns rely on."""
        return result_fingerprint(self.to_dict())

    def summary(self) -> str:
        """One result line for tables and logs."""
        if self.error is not None:
            return (f"{self.name:<28} ERROR {self.error[:48]} "
                    f"fp={self.fingerprint()}")
        conv = (f"{self.convergence_time:.3f}s"
                if self.convergence_time is not None else "-")
        slo = (f"slo={self.slo_passed}/{len(self.slos)} "
               if self.slos else "")
        return (
            f"{self.name:<28} conv={conv:>8} "
            f"delivered={self.delivered_fraction * 100:5.1f}% "
            f"recovered={self.recovered_count}/{len(self.injections)} "
            f"{slo}fp={self.fingerprint()}"
        )


def result_fingerprint(result_dict: Dict[str, Any]) -> str:
    """Fingerprint of a serialized result, without materializing a
    :class:`ScenarioResult` (campaigns hash the worker's dict as-is).
    Excludes ``wall_seconds`` and ``diagnostics`` (non-deterministic)
    and ``schema_version`` (presentation, not measurement)."""
    payload = dict(result_dict)
    for field_name in VOLATILE_RESULT_FIELDS:
        payload.pop(field_name, None)
    payload.pop("schema_version", None)
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _summed_stats(sources, prefix: str = "") -> Dict[str, int]:
    """``stats()`` of every source, summed key by key."""
    totals: Dict[str, int] = {}
    for source in sources:
        for key, value in source.stats().items():
            totals[prefix + key] = totals.get(prefix + key, 0) + value
    return totals


def _setup_sdn(exp: Experiment, hash_seed: int) -> None:
    from repro.controllers.ecmp import FiveTupleEcmpApp

    exp.use_controller(apps=[
        FiveTupleEcmpApp(exp.topology_view(), hash_seed=hash_seed)])


#: protocol kind -> the setup helper its recipe parameters go to.
_PROTOCOL_SETUPS = {
    "none": lambda exp: None,
    "static": setup_static_routes,
    "bgp": setup_bgp_for_routers,
    "ospf": setup_ospf_for_routers,
    "sdn": _setup_sdn,
}


class ScenarioRunner:
    """Runs :class:`ScenarioSpec` instances, one at a time."""

    def materialize(self, spec: ScenarioSpec) -> "tuple[Experiment, List[InjectionOutcome]]":
        """Build the live experiment a spec describes.

        Returns the experiment plus the injection outcomes the run
        will fill in; exposed separately from :meth:`run` so tests and
        notebooks can poke at the materialized network.
        """
        spec.validate()

        sim_params = dict(spec.sim_params)
        sim_params["seed"] = spec.seed
        config = SimulationConfig(**sim_params)
        exp = Experiment(spec.name, config=config)
        topo = spec.topology.build()
        exp.load_topo(topo)

        self._setup_protocol(exp, spec)
        if config.symmetry:
            self._setup_symmetry(exp, spec, topo)
        self._setup_traffic(exp, spec)

        outcomes: List[InjectionOutcome] = []
        for injection in spec.injections:
            for at, label in injection.schedule(exp):
                outcomes.append(InjectionOutcome(label=label, at=at))
        outcomes.sort(key=lambda o: (o.at, o.label))

        exp.network.on_reallocation.append(
            self._check_recovery(exp, outcomes))
        return exp, outcomes

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        """Materialize, inject, simulate to the horizon, summarize —
        including the SLO verdicts and engine diagnostics every
        persisted record carries."""
        with span("scenario.run", name=spec.name, seed=spec.seed):
            return self._run(spec)

    def _run(self, spec: ScenarioSpec) -> ScenarioResult:
        start_wall = _time.perf_counter()
        with span("scenario.materialize", name=spec.name):
            exp, outcomes = self.materialize(spec)
        # Spans recorded while simulating carry the virtual clock too,
        # so a Perfetto trace shows wall vs simulated time side by side.
        # Tracing only *reads* the clock — fingerprints cannot move.
        TRACER.set_virtual_clock(lambda: exp.sim.clock.now)
        try:
            with span("scenario.simulate", name=spec.name,
                      duration=spec.duration):
                result = exp.run(until=spec.duration)
        finally:
            TRACER.set_virtual_clock(None)
        # Lift any quotient state back to concrete per-flow values
        # before anything below reads them (no-op without symmetry).
        exp.network.finalize_accounting()

        converged, convergence_time = self._convergence(exp, spec)
        demanded = sum(
            flow.demand_bps * self._offered_window(flow, spec.duration) / 8.0
            for flow in exp.network.flows
        )
        delivered = sum(flow.delivered_bytes for flow in exp.network.flows)
        cm_stats = exp.sim.cm.stats()

        scenario_result = ScenarioResult(
            name=spec.name,
            seed=spec.seed,
            sim_seconds=result.report.simulated_seconds,
            events_fired=result.report.events_fired,
            recomputations=exp.network.recomputations,
            converged=converged,
            convergence_time=convergence_time,
            flows_delivered=result.flows_delivered,
            flows_total=result.flows_total,
            delivered_bytes=delivered,
            demanded_bytes=demanded,
            control_messages=cm_stats["control_messages"],
            control_bytes=cm_stats["control_bytes"],
            injections=outcomes,
            diagnostics=self._diagnostics(exp),
            wall_seconds=_time.perf_counter() - start_wall,
        )
        # Strip wall_seconds from the SLO namespace: verdicts are
        # fingerprint-covered and must stay pure functions of the
        # deterministic measurements.
        slo_metrics = scenario_result.metrics()
        slo_metrics.pop("wall_seconds", None)
        scenario_result.slos = evaluate_slos(spec.slos, slo_metrics)
        self._publish_metrics(exp, scenario_result)
        return scenario_result

    @staticmethod
    def _publish_metrics(exp: Experiment,
                         scenario_result: ScenarioResult) -> None:
        """Mirror subsystem stats into the process metrics registry.

        Read-only with respect to simulation state; registry contents
        never feed fingerprints.
        """
        reg = metrics()
        reg.counter("scenario.runs").inc()
        reg.counter("scenario.events_fired").inc(
            scenario_result.events_fired)
        reg.histogram("scenario.wall_seconds").observe(
            scenario_result.wall_seconds)
        reg.set_stats("realloc", exp.network.realloc.stats)
        quotient = exp.network.realloc.quotient
        if quotient is not None:
            reg.set_stats("quotient", quotient.stats())
        for protocol in ("bgp", "ospf", "openflow"):
            if protocol in scenario_result.diagnostics:
                reg.set_stats(protocol, scenario_result.diagnostics[protocol])

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _diagnostics(exp: Experiment) -> Dict[str, Any]:
        diagnostics: Dict[str, Any] = {
            "realloc": dict(exp.network.realloc.stats),
        }
        if getattr(exp.sim.config, "symmetry", False):
            quotient = exp.network.realloc.quotient
            if quotient is not None:
                diagnostics["symmetry"] = quotient.stats()
            else:
                diagnostics["symmetry"] = {
                    "active": False,
                    "reason": getattr(exp.network, "symmetry_note",
                                      None) or "unavailable",
                }
        for protocol, daemons in (("bgp", exp.bgp_daemons),
                                  ("ospf", exp.ospf_daemons)):
            if daemons:
                # Every daemon's counters, summed over the fabric.
                diagnostics[protocol] = _summed_stats(daemons.values())
        if exp.controller is not None:
            # The same for the OpenFlow endpoints: every agent's
            # counters summed, the controller's, and its apps'.
            diagnostics["openflow"] = {
                **_summed_stats(exp.agents, "agent_"),
                **_summed_stats([exp.controller], "controller_"),
                **_summed_stats(exp.controller.apps, "app_"),
            }
        return diagnostics

    # Protocols whose runs the quotient layer can compress: no control
    # plane (or one fully resolved at setup time) and nothing reading
    # the per-hop/port byte counters class accrual skips.
    _QUOTIENTABLE_PROTOCOLS = ("none", "static")

    @classmethod
    def _setup_symmetry(cls, exp: Experiment, spec: ScenarioSpec,
                        topo) -> None:
        from repro.symmetry import SymmetryMap, injection_pins

        kind = spec.protocol.kind
        if kind not in cls._QUOTIENTABLE_PROTOCOLS:
            exp.network.symmetry_note = (
                f"protocol {kind!r} is not quotientable; running concrete")
            return
        symmetry_map = SymmetryMap.from_topo(
            topo, pins=injection_pins(spec.injections))
        exp.network.symmetry_map = symmetry_map
        exp.network.realloc.enable_quotient(symmetry_map)

    @staticmethod
    def _setup_protocol(exp: Experiment, spec: ScenarioSpec) -> None:
        kind = spec.protocol.kind
        params = dict(spec.protocol.params)
        if kind == "bgp":
            params.setdefault("seed", spec.seed)
        elif kind == "sdn":
            params.setdefault("hash_seed", spec.seed)
        setup = _PROTOCOL_SETUPS[kind]  # kind passed spec.validate()
        check_params(f"{kind} protocol", setup, params, supplied=("exp",))
        setup(exp, **params)

    @staticmethod
    def _setup_traffic(exp: Experiment, spec: ScenarioSpec) -> None:
        recipe = spec.traffic
        if recipe.pattern == "none":
            return
        hosts = [host.name for host in exp.network.hosts()]
        rng = random.Random(spec.seed)
        if recipe.pattern == "matrix":
            # Per-flow rates: every [src, dst, rate_bps] entry is its
            # own flow.  One entry at a time through the same rng so
            # stagger draws stay deterministic and order-stable.
            for src, dst, rate_bps in recipe.flows:
                exp.flows.extend(cbr_udp_flows(
                    exp.network, [(src, dst)],
                    spec=TrafficSpec(
                        rate_bps=float(rate_bps),
                        start_time=recipe.start_time,
                        duration=recipe.duration,
                        stagger=recipe.stagger,
                    ),
                    rng=rng,
                ))
            return
        pairs = recipe.make_pairs(hosts, rng)
        if not pairs:
            return
        flows = cbr_udp_flows(
            exp.network, pairs,
            spec=TrafficSpec(
                rate_bps=recipe.rate_bps,
                start_time=recipe.start_time,
                duration=recipe.duration,
                stagger=recipe.stagger,
            ),
            rng=rng,
        )
        exp.flows.extend(flows)

    @staticmethod
    def _check_recovery(exp: Experiment, outcomes: List[InjectionOutcome]):
        """The reallocation hook: when every flow that should be
        running is delivered, any still-open disruption at or before
        ``now`` has recovered.

        An instant with no active flows proves nothing (a blackholed
        network looks identical to a healthy one once traffic ends),
        so recovery is only ever concluded from delivered traffic —
        a disruption never observed healed stays unrecovered.

        Both questions are O(1) per call: the realloc engine counts its
        undelivered cached walks, and ``outcomes`` is sorted by ``at``
        with every outcome up to ``now`` closed together, so the open
        ones are always the suffix behind a cursor.
        """
        engine = exp.network.realloc
        cursor = 0

        def check(now: float) -> None:
            nonlocal cursor
            if cursor == len(outcomes) or not engine.all_delivered():
                return
            while (cursor < len(outcomes)
                   and outcomes[cursor].at <= now + _EPS):
                outcomes[cursor].recovered_at = now
                cursor += 1

        return check

    @staticmethod
    def _convergence(exp: Experiment,
                     spec: ScenarioSpec) -> "tuple[bool, Optional[float]]":
        if spec.protocol.kind == "bgp":
            report = bgp_convergence(exp)
            return report.converged, report.all_sessions_up_at
        if spec.protocol.kind == "ospf":
            report = ospf_convergence(exp)
            return report.converged, report.all_sessions_up_at
        return True, None

    @staticmethod
    def _offered_window(flow: FluidFlow, horizon: float) -> float:
        """Seconds of [0, horizon] the flow wanted to send for."""
        end = horizon if flow.end_time is None else min(flow.end_time, horizon)
        return max(0.0, end - flow.start_time)


def error_result(spec: ScenarioSpec, error: str) -> ScenarioResult:
    """The result recorded for a scenario that died mid-run.

    Fault isolation for campaigns: the error string lands in
    diagnostics (fingerprint-excluded — exception text can embed
    memory addresses), every attached SLO gets an ``error`` verdict
    with a fixed detail string (an errored sweep must not pass a
    gate), and all measurements stay at their zero defaults — so two
    identical failures produce identical fingerprints.
    """
    return ScenarioResult(
        name=spec.name,
        seed=spec.seed,
        converged=False,
        slos=evaluate_slos(spec.slos, None, error=True),
        diagnostics={"error": error},
    )


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Convenience: run one spec with a fresh runner."""
    return ScenarioRunner().run(spec)
