"""Exactness: direction, port and host byte counters against the exact
integral of the rate history.

These counters grow per *rate span* — one ``value · (t − since) / 8``
per constant-rate stretch of the owner's summed rate — not per global
segment.  The judge is not another float accrual but
:class:`~span_reference.RateHistory`'s exact integral: every segment the
engine integrated, with every accruing flow's rate, summed in
:class:`~fractions.Fraction`.  Against it the span counters must be at
least as close as the per-segment accrual the counters followed before
(per segment, per flow, per hop), on churn with tied demands, saturated
links, stops before a delayed recompute, and a symmetry quotient that
takes over and hands back.  On the histories below the worst relative
error of a span counter is 2.5e-16 on concrete churn (per segment:
6.5e-16 to 2.5e-15) and 1.2e-15 across a quotient hand-over, where the
materialize credits what the class accumulator summed per segment (per
segment: 1.2e-15).

Beside the oracle: :class:`~span_reference.SpanReference` — the span
rule re-derived from public state after every recompute and stop —
must equal the engine bit for bit, a counter read at any instant must
be its span's value at the last segment's end (nothing is written out
at read points), and extra read points must change no later counter
(a read never closes a span).
"""

import random

import pytest

from repro.scenarios import (
    CapacityDegrade,
    LinkFail,
    ProtocolRecipe,
    ScenarioRunner,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
)

from span_reference import (
    RateHistory,
    SpanReference,
    counters,
    worst_error,
)
from test_kernel_parity import CLEAN_DEMANDS, _Driver

#: Demands: the tie-heavy set, one that is not a power-of-two fraction
#: of anything, and one that saturates a 1 Gb/s host link on its own.
DEMANDS = CLEAN_DEMANDS + (1.7e8, 2e9)


def churn(seed, ops=70):
    """A seeded op list: flows start and stop, links degrade, fail and
    come back, time advances by uneven steps."""
    rng = random.Random(seed)
    out = []
    for __ in range(ops):
        roll = rng.random()
        if roll < 0.35:
            src, dst = rng.sample(range(6), 2)
            out.append(("start_flow", src, dst, rng.choice(DEMANDS)))
        elif roll < 0.5:
            out.append(("stop_flow", rng.randrange(32)))
        elif roll < 0.65:
            out.append(("degrade", rng.randrange(12), rng.uniform(0.1, 1.0)))
        elif roll < 0.7:
            out.append(("fail_link", rng.randrange(12)))
        elif roll < 0.75:
            out.append(("restore_link", rng.randrange(12)))
        else:
            out.append(("advance", rng.uniform(0.001, 0.05)))
    return out


def run_churn(ops, min_interval, monkeypatch):
    """Drive ``ops``; return the engine's counters after a final read,
    the reference's, and the recorded history.  A ``("read",)`` op
    takes no time: it schedules a read point inside the next op's run
    window, an instant at which nothing else reads (every run already
    ends with one)."""
    history = RateHistory(monkeypatch)
    driver = _Driver("auto")
    driver.net.recompute_min_interval = min_interval
    reference = SpanReference(driver.net, monkeypatch)
    net = driver.net
    for op in ops:
        if op[0] == "read":
            driver.sim.scheduler.at(driver.t + 0.37 * driver.STEP,
                                    lambda: net.accrue(net.now))
        else:
            driver.apply(op)
    driver.t += 0.5
    driver.sim.run(until=driver.t)
    net.finalize_accounting()
    return (counters(net), reference.counters(net.realloc.last_accrual),
            history)


def hexed(values):
    """Counters as hex, in owner order (directions, then hosts)."""
    return [tuple(value.hex() for value in counts)
            for counts in values.values()]


@pytest.mark.parametrize("seed,min_interval", [
    (1, 0.0), (2, 0.0), (3, 0.004), (4, 0.004)])
def test_span_counters_are_at_least_as_exact_as_segments(
        seed, min_interval, monkeypatch):
    spans, reference, history = run_churn(churn(seed), min_interval,
                                          monkeypatch)
    assert hexed(spans) == hexed(reference)
    exact = history.exact()
    assert len(history.segments) > 20 and len(exact) > 10
    span_error, __ = worst_error(spans, exact)
    segment_error, __ = worst_error(history.per_segment(), exact)
    assert 0 < segment_error < 1e-13
    assert span_error <= segment_error


def test_a_stop_before_a_delayed_recompute_stops_the_bytes(monkeypatch):
    """With the recompute held back, a stopped flow's counters stop at
    the stop — the exact integral has it at zero from there on."""
    ops = [("start_flow", 0, 2, 1.7e8), ("start_flow", 1, 2, 2e9),
           ("advance", 0.01), ("stop_flow", 1), ("advance", 0.0003),
           ("stop_flow", 0), ("advance", 0.02)]
    spans, reference, history = run_churn(ops, 0.05, monkeypatch)
    assert hexed(spans) == hexed(reference)
    exact = history.exact()
    assert worst_error(spans, exact)[0] < 1e-15


def test_extra_reads_change_no_later_counter(monkeypatch):
    """Read points at arbitrary instants close no span: the counters
    after the last op are those of a run that read nothing in between."""
    quiet = churn(5)
    rng = random.Random(6)
    reading = []
    for op in quiet:
        reading.append(op)
        if rng.random() < 0.3:
            reading.append(("read",))
    assert len(reading) > len(quiet)
    with monkeypatch.context() as patch:
        plain, __, __ = run_churn(quiet, 0.004, patch)
    read, __, __ = run_churn(reading, 0.004, monkeypatch)
    assert hexed(read) == hexed(plain)


def test_counters_read_through_their_spans_between_read_points(
        monkeypatch):
    """Every direction, port and host counter, read mid-window from a
    callback that brings nothing current, is its span's value at the
    last segment's end — after the held-back recomputes and stops that
    moved spans since the last read point, not that point's values."""
    driver = _Driver("auto")
    net = driver.net
    net.recompute_min_interval = 0.004
    reference = SpanReference(net, monkeypatch)
    reads = []

    def peek():
        reads.append((net.realloc.last_accrual, hexed(counters(net)),
                      hexed(reference.counters(net.realloc.last_accrual))))

    for op in churn(9):
        if op[0] == "advance":
            for part in (0.25, 0.5, 0.75):
                driver.sim.scheduler.at(driver.t + part * op[1], peek)
        driver.apply(op)
    assert len(reads) > 20
    # Most reads fall after a segment closed past the last read point.
    assert len({at for at, __, __ in reads}) > 10
    assert [got for __, got, __ in reads] == [want for __, __, want in reads]


def test_packets_settle_on_port_counters(monkeypatch):
    """A packet's bytes join its ports' settled counters, between the
    spans' closes, in the order they happen."""
    rng = random.Random(8)
    ops = []
    for op in churn(7):
        ops.append(op)
        if rng.random() < 0.4:
            ops.append(("packet", rng.randrange(32)))
    spans, reference, __ = run_churn(ops, 0.0, monkeypatch)
    assert hexed(spans) == hexed(reference)
    # Some port carried a packet beyond what its direction's flows did.
    assert any(len(values) == 3 and values[1] > values[0]
               for values in spans.values())


def handover_spec(breaks):
    """A class-closed degrade the quotient absorbs at class level, then
    (``breaks``) a link cut that hands the run back to the concrete
    engine before it ends."""
    topology = TopologyRecipe("fattree", {"k": 4, "device": "router"})
    injections = [CapacityDegrade(at=3.1, node_a=a, node_b=b, factor=0.37)
                  for a, b in (("c0_0", "a0_0"), ("c0_0", "a1_0"),
                               ("c0_0", "a2_0"), ("c0_0", "a3_0"),
                               ("c0_1", "a0_0"), ("c0_1", "a1_0"),
                               ("c0_1", "a2_0"), ("c0_1", "a3_0"),
                               ("c1_0", "a0_1"), ("c1_0", "a1_1"),
                               ("c1_0", "a2_1"), ("c1_0", "a3_1"),
                               ("c1_1", "a0_1"), ("c1_1", "a1_1"),
                               ("c1_1", "a2_1"), ("c1_1", "a3_1"))]
    if breaks:
        injections.append(LinkFail(at=5.3, node_a="c0_0", node_b="a0_0"))
    return ScenarioSpec(
        name="span-handover", seed=7, duration=8.0, topology=topology,
        protocol=ProtocolRecipe("static", {}),
        traffic=TrafficRecipe(pattern="stride", stride=4,
                              rate_bps=730_000_000.0, start_time=1.0,
                              duration=10.0),
        injections=injections, sim_params={"symmetry": True})


@pytest.mark.parametrize("breaks", [False, True], ids=["held", "broken"])
def test_quotient_hand_over_is_exact(breaks, monkeypatch):
    """Spans close when the quotient activates; the materialize credits
    each member's class bytes and reopens them."""
    history = RateHistory(monkeypatch)
    spec = handover_spec(breaks)
    exp, __ = ScenarioRunner().materialize(spec)
    # Samples close rate segments (on the class accumulators while the
    # quotient holds) at uneven instants.
    exp.add_stats(interval=0.137)
    exp.run(until=spec.duration)
    net = exp.network
    quotient = net.realloc.quotient
    assert quotient.fast_recomputes > 0
    net.finalize_accounting()
    assert quotient.materializations > (1 if breaks else 0)
    spans = counters(net)
    exact = history.exact()
    span_error, __ = worst_error(spans, exact)
    segment_error, __ = worst_error(history.per_segment(), exact)
    assert 0 < segment_error < 1e-13
    assert span_error <= segment_error
