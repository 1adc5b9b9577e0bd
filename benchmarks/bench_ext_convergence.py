"""Extension experiment — BGP convergence vs fat-tree size.

Not a paper figure, but the experiment Horse is *for*: how long does
the emulated control plane take to converge, and how much message
traffic does it generate, as the fabric grows?  Regenerated here
because convergence behaviour is the realism the hybrid design must
preserve.

Run:  pytest benchmarks/bench_ext_convergence.py --benchmark-only
"""

import pytest

from repro.api import Experiment, bgp_convergence, fti_share, setup_bgp_for_routers
from repro.core import SimulationConfig
from repro.topology import FatTreeTopo

from conftest import bench_sizes, record_rows

_results = {}


def converge(k: int):
    exp = Experiment(f"conv-k{k}", config=SimulationConfig())
    topo = FatTreeTopo(k=k, device="router")
    exp.load_topo(topo)
    exp.network.recompute_min_interval = 0.005
    setup_bgp_for_routers(exp, asn_map=topo.asn, max_paths=max(2, k // 2))
    exp.run(until=10.0)
    report = bgp_convergence(exp)
    return exp, report


@pytest.mark.parametrize("k", bench_sizes())
def test_convergence(benchmark, k):
    exp, report = benchmark.pedantic(converge, args=(k,), rounds=1,
                                     iterations=1)
    assert report.converged, f"k={k} did not converge in 10 simulated seconds"
    _results[k] = (exp, report)


def test_convergence_report(benchmark):
    benchmark(lambda: None)  # report-only test; table assembly below
    if not _results:
        pytest.skip("no measurements")
    rows = []
    for k, (exp, report) in sorted(_results.items()):
        share = fti_share(exp)
        rows.append(
            f"{k:>2} {report.sessions:>9} {report.all_sessions_up_at:>10.3f} "
            f"{report.last_route_change_at:>11.3f} {report.control_messages:>9} "
            f"{report.routes_installed:>9} {share['fti'] * 100:>7.2f}%"
        )
    record_rows(
        "ext_bgp_convergence",
        f"{'k':>2} {'sessions':>9} {'all_up_s':>10} {'converged_s':>11} "
        f"{'messages':>9} {'installs':>9} {'fti_pct':>8}",
        rows,
    )
    # Message volume grows superlinearly with fabric size.
    ks = sorted(_results)
    if len(ks) >= 2:
        small = _results[ks[0]][1].control_messages
        large = _results[ks[-1]][1].control_messages
        assert large > small * 2
