"""Benchmark: symmetry-aware quotient simulation vs concrete.

An 8-pod fat-tree of routers under static routing carries a
pod-shifted traffic matrix (every host sends six flows, at six rates,
to its positional twins 1..6 pods over — so each flow belongs to a
large automorphism class) while one core router's whole link orbit is
rhythmically capacity-degraded: correlated, symmetry-preserving
churn, the workload the quotient layer exists for.

The scenario runs twice — concrete, then with ``symmetry`` on — and
must produce the SAME result fingerprint.  The gate is what the
quotient guarantees deterministically: the fingerprint match, the
class compression, and the *solved rows* ratio (rows the concrete run
hands its kernel ÷ rows — concrete flows plus flow classes — the
quotient run hands its kernels).  Wall-clock speedup is recorded, not
asserted: since PR 13 a concrete recompute costs what changed, and at
the CI size both runs share a set-up that outweighs either simulate
phase, so the two are timed apart.  Everything lands in
``results/BENCH_symmetry.json``.

Knobs: ``REPRO_BENCH_SYMMETRY_K`` (default 8),
``REPRO_BENCH_SYMMETRY_DURATION`` (default 20 simulated seconds).

Run:  pytest benchmarks/bench_symmetry.py --benchmark-only
"""

import os
import time

from repro.scenarios import (
    CapacityDegrade,
    ProtocolRecipe,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
)
from repro.scenarios.runner import ScenarioRunner
from repro.topology.fattree import FatTreeTopo

from conftest import record_json, record_rows

K = int(os.environ.get("REPRO_BENCH_SYMMETRY_K", "8"))
DURATION = float(os.environ.get("REPRO_BENCH_SYMMETRY_DURATION", "20"))

#: (pod shift, rate) per flow a host originates: six rate tiers to
#: six positional twins — 6 * (k/2)^2 * k flows total.
POD_SHIFT_RATES = ((1, 200e6), (2, 150e6), (3, 100e6),
                   (4, 80e6), (5, 60e6), (6, 40e6))


def pod_shift_matrix(k):
    """[src, dst, rate] rows: host h{p}_{e}_{i} -> h{(p+s)%k}_{e}_{i}."""
    half = k // 2
    rows = []
    for pod in range(k):
        for edge in range(half):
            for host in range(half):
                src = f"h{pod}_{edge}_{host}"
                for shift, rate in POD_SHIFT_RATES:
                    dst = f"h{(pod + shift) % k}_{edge}_{host}"
                    rows.append([src, dst, rate])
    return rows


def orbit_churn(k, duration):
    """Degrade one core router's whole link orbit together, on a
    steady rhythm.  The k pinned links stay a single symmetry class
    (pod rotation permutes them), so every degrade/restore is
    class-closed — the quotient layer's capacity fast path."""
    links = [(l.node_a, l.node_b)
             for l in FatTreeTopo(k=k, device="router").link_specs
             if "c0_0" in (l.node_a, l.node_b)
             and (l.node_a[0] == "a" or l.node_b[0] == "a")]
    assert len(links) == k
    injections = []
    at = 1.5
    while at + 0.5 < duration:
        for a, b in links:
            injections.append(CapacityDegrade(
                at=at, node_a=a, node_b=b, factor=0.5, until=at + 0.25))
        at += 0.5
    return injections


def churn_spec(symmetry):
    sim_params = {"symmetry": True} if symmetry else {}
    return ScenarioSpec(
        name="bench-symmetry", seed=11, duration=DURATION,
        topology=TopologyRecipe("fattree", {"k": K, "device": "router"}),
        protocol=ProtocolRecipe("static", {}),
        traffic=TrafficRecipe(pattern="matrix", flows=pod_shift_matrix(K),
                              start_time=1.0, duration=DURATION + 5.0),
        injections=orbit_churn(K, DURATION),
        sim_params=sim_params,
    )


class _SplitTimer(ScenarioRunner):
    """Times ``materialize`` (topology, routes, traffic, the symmetry
    map) apart from the rest of the run."""

    setup_seconds = 0.0

    def materialize(self, spec):
        start = time.perf_counter()
        try:
            return super().materialize(spec)
        finally:
            self.setup_seconds = time.perf_counter() - start


def timed_run(symmetry):
    """(result, whole-run wall seconds, wall seconds after set-up)."""
    runner = _SplitTimer()
    start = time.perf_counter()
    result = runner.run(churn_spec(symmetry))
    wall = time.perf_counter() - start
    return result, wall, wall - runner.setup_seconds


def test_quotient_speedup(benchmark):
    concrete, concrete_wall, concrete_sim = timed_run(symmetry=False)
    quotient, quotient_wall, quotient_sim = benchmark.pedantic(
        timed_run, args=(True,), rounds=1, iterations=1)

    # The whole point: compression changes nothing observable.
    assert quotient.fingerprint() == concrete.fingerprint()

    diag = quotient.diagnostics["symmetry"]
    solved_rows = (
        concrete.diagnostics["realloc"]["flows_solved"]
        / (quotient.diagnostics["realloc"]["flows_solved"]
           + diag["class_solves"]))
    speedup = concrete_wall / quotient_wall
    simulate_speedup = concrete_sim / quotient_sim
    record_rows(
        "symmetry_speedup",
        f"{'k':>3} {'flows':>6} {'classes':>8} {'fast':>6} {'rows':>7} "
        f"{'conc_s':>8} {'quot_s':>8} {'speedup':>8} {'sim_only':>8}",
        [f"{K:>3} {diag['flows']:>6} {diag['flow_classes']:>8} "
         f"{diag['fast_recomputes']:>6} {solved_rows:>7.1f} "
         f"{concrete_wall:>8.2f} {quotient_wall:>8.2f} {speedup:>8.2f} "
         f"{simulate_speedup:>8.2f}"],
    )
    record_json("symmetry", {
        "k": K,
        "duration": DURATION,
        "flows": diag["flows"],
        "flow_classes": diag["flow_classes"],
        "flow_compression": diag["flow_compression"],
        "dir_compression": diag["dir_compression"],
        "node_compression": diag["node_compression"],
        "fast_recomputes": diag["fast_recomputes"],
        "rebuilds": diag["rebuilds"],
        "solved_rows_ratio": solved_rows,
        "concrete_wall_seconds": concrete_wall,
        "quotient_wall_seconds": quotient_wall,
        "speedup": speedup,
        "concrete_simulate_seconds": concrete_sim,
        "quotient_simulate_seconds": quotient_sim,
        "simulate_speedup": simulate_speedup,
        "fingerprint_match": True,
        "delivered_bytes": quotient.delivered_bytes,
    })

    # Acceptance, all deterministic: the fabric compresses (size-8
    # flow classes) and the kernels see that many fewer rows.
    assert diag["flow_compression"] >= 4.0
    assert solved_rows >= 4.0, f"solved rows ratio {solved_rows:.2f} < 4.0"
