"""The delta bookkeeping against the full rebuilds it replaced.

After every recompute of a random churn the engine's host rates,
direction loads and contended set must be ``==`` the O(all) rebuilds
of ``realloc_reference.py`` — on the scalar kernel, on the arrays
mirror, and on an engine that crosses from one to the other mid-run,
with ``forget()`` (a full recompute from an empty cache) in the mix.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

import realloc_reference as reference
from repro.dataplane import arrays as arrays_module
from test_kernel_parity import (
    _PAST_THE_BOUND,
    _REWALKED_TWICE,
    _SLOT_REUSE,
    _STOP_THEN_START,
    _Driver,
    _churn_ops,
)


def _checked(kernel):
    """A driver whose network compares itself with the rebuilds after
    every recompute; returns it and the list of kernels that ran."""
    driver = _Driver(kernel)
    net = driver.net
    ran = []

    def check(now):
        engine = net.realloc
        ran.append(engine.effective_kernel())
        where = f"t={now} kernel={ran[-1]}"
        rates = reference.host_rates(net)
        for host in net.hosts():
            assert (host.rx_rate_bps, host.tx_rate_bps) == rates[host], (
                where, host.name)
        for direction, load in reference.loads(net).items():
            assert direction.current_load_bps == load, (where, direction)
        assert engine._contended == reference.contended(net), where

    net.on_reallocation.append(check)
    return driver, ran


@given(st.lists(_churn_ops, min_size=1, max_size=30),
       st.integers(min_value=1, max_value=6))
@example(_REWALKED_TWICE + [("forget",)] + _STOP_THEN_START, 3)
@example(_PAST_THE_BOUND + _SLOT_REUSE, 2)
@settings(max_examples=40, deadline=None)
def test_delta_bookkeeping_equals_the_full_rebuilds(ops, threshold):
    ran = {}
    for name, kernel, min_flows in (("heap", "heap", 0),
                                    ("arrays", "auto", 0),
                                    # Registered flows take this one
                                    # over the threshold mid-run.
                                    ("crossing", "auto", threshold)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arrays_module, "ARRAYS_MIN_FLOWS", min_flows)
            driver, ran[name] = _checked(kernel)
            for op in ops:
                driver.apply(op)
    assert set(ran["heap"]) <= {"heap"}
    assert set(ran["arrays"]) <= {"arrays"}
    assert ran["crossing"] == sorted(ran["crossing"], reverse=True)
