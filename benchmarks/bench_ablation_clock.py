"""Ablations A1, A2, A4 — the hybrid clock's design knobs.

The hybrid FTI/DES clock is Horse's contribution; these benches
quantify its design choices on a control-plane-heavy scenario (a BGP
fat-tree k=4 converging, then Hedera-style periodic stats polls):

* **A1 — FTI increment size**: smaller increments mean finer-grained
  control-plane timing but more ticks (and more wall time when FTI is
  paced).
* **A2 — clock policy, the cost of ticking**: HYBRID (Horse) vs
  PURE_DES (no ticks) vs PURE_FTI (every quiet second is ticked
  through).  With no pacing every event fires at its own timestamp
  under all three, so the results are identical (the clock contract in
  ``docs/control_plane.md``); A2 measures what each policy pays in
  ticks, DES jumps, transitions and wall time, not fidelity.
* **A4 — DES-fallback timeout**: how long the clock lingers in FTI
  after the control plane goes quiet.

Run:  pytest benchmarks/bench_ablation_clock.py --benchmark-only
"""

import pytest

from repro.api.demo import DemoSettings, run_hedera
from repro.core.clock import ClockPolicy

from conftest import record_rows

_a1, _a2, _a4 = {}, {}, {}

BASE = dict(k=4, duration=20.0, settle=8.0)


# --- A1: FTI increment sweep -------------------------------------------------

@pytest.mark.parametrize("increment", [0.0001, 0.001, 0.01])
def test_a1_fti_increment(benchmark, increment):
    settings = DemoSettings(fti_increment=increment, **BASE)
    result = benchmark.pedantic(run_hedera, args=(settings,),
                                rounds=1, iterations=1)
    _a1[increment] = result
    assert result.flows_delivered == result.flows_total


def test_a1_report(benchmark):
    benchmark(lambda: None)  # report-only test; table assembly below
    if len(_a1) < 3:
        pytest.skip("sweep incomplete")
    rows = []
    for increment, result in sorted(_a1.items()):
        rows.append(
            f"{increment:>8.4f} {result.report.fti_ticks:>10} "
            f"{result.report.wall_seconds:>9.3f} "
            f"{result.mean_aggregate_rx_bps / 1e9:>9.2f}"
        )
    record_rows(
        "ablation_a1_fti_increment",
        f"{'incr_s':>8} {'fti_ticks':>10} {'wall_s':>9} {'agg_gbps':>9}",
        rows,
    )
    ticks = [result.report.fti_ticks for __, result in sorted(_a1.items())]
    assert ticks[0] > ticks[1] > ticks[2]  # finer increment => more ticks
    # The data-plane outcome must not depend on the FTI granularity.
    rates = [round(r.mean_aggregate_rx_bps / 1e8) for r in _a1.values()]
    assert max(rates) - min(rates) <= 2


# --- A2: clock policies --------------------------------------------------------

@pytest.mark.parametrize("policy", [ClockPolicy.HYBRID, ClockPolicy.PURE_DES,
                                    ClockPolicy.PURE_FTI])
def test_a2_clock_policy(benchmark, policy):
    settings = DemoSettings(
        clock_policy=policy,
        # PURE_FTI ticks through every simulated second: use a coarser
        # increment so the bench stays tractable (documented cost).
        fti_increment=0.001 if policy is not ClockPolicy.PURE_FTI else 0.005,
        **BASE,
    )
    result = benchmark.pedantic(run_hedera, args=(settings,),
                                rounds=1, iterations=1)
    _a2[policy] = result
    assert result.flows_delivered == result.flows_total


def test_a2_report(benchmark):
    benchmark(lambda: None)  # report-only test; table assembly below
    if len(_a2) < 3:
        pytest.skip("sweep incomplete")
    rows = []
    for policy, result in _a2.items():
        rows.append(
            f"{policy.value:<10} {result.report.wall_seconds:>9.3f} "
            f"{result.report.fti_ticks:>10} {result.report.des_jumps:>9} "
            f"{result.report.mode_transitions:>12}"
        )
    record_rows(
        "ablation_a2_clock_policy",
        f"{'policy':<10} {'wall_s':>9} {'fti_ticks':>10} {'des_jumps':>9} "
        f"{'transitions':>12}",
        rows,
    )
    hybrid = _a2[ClockPolicy.HYBRID].report
    pure_fti = _a2[ClockPolicy.PURE_FTI].report
    pure_des = _a2[ClockPolicy.PURE_DES].report
    # Hybrid ticks a small fraction of what an always-FTI run ticks.
    assert hybrid.fti_ticks < pure_fti.fti_ticks / 3
    # And a pure DES run never ticks at all.
    assert pure_des.fti_ticks == 0
    assert pure_des.mode_transitions == 0


# --- A4: DES-fallback timeout sweep ---------------------------------------------

@pytest.mark.parametrize("timeout", [0.02, 0.1, 0.5, 2.0])
def test_a4_des_timeout(benchmark, timeout):
    settings = DemoSettings(des_fallback_timeout=timeout, **BASE)
    result = benchmark.pedantic(run_hedera, args=(settings,),
                                rounds=1, iterations=1)
    _a4[timeout] = result
    assert result.flows_delivered == result.flows_total


def test_a4_report(benchmark):
    benchmark(lambda: None)  # report-only test; table assembly below
    if len(_a4) < 4:
        pytest.skip("sweep incomplete")
    rows = []
    for timeout, result in sorted(_a4.items()):
        rows.append(
            f"{timeout:>7.2f} {result.report.fti_ticks:>10} "
            f"{result.report.mode_transitions:>12} "
            f"{result.report.wall_seconds:>9.3f}"
        )
    record_rows(
        "ablation_a4_des_timeout",
        f"{'timeout':>7} {'fti_ticks':>10} {'transitions':>12} {'wall_s':>9}",
        rows,
    )
    ticks = [result.report.fti_ticks for __, result in sorted(_a4.items())]
    # A longer quiet timeout keeps the clock in FTI longer.
    assert ticks == sorted(ticks)
