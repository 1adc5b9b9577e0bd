"""Test-only references for direction, port and host byte counters.

The engine keeps these counters as *rate spans*: per direction and per
host, the summed rate of the flows on it, the time it took that value,
and the bytes settled before.  Two references check it from outside:

* :class:`SpanReference` re-implements the span rule from public state
  alone — after every recompute and at every stop it re-sums *every*
  direction and host (the engine re-sums only what a recompute may have
  moved) — so its counters must equal the engine's bit for bit.
* :class:`RateHistory` records every rate segment the engine integrates
  (each ``(dt, now)`` with every accruing flow's rate and hops).  From
  it come the per-segment float accrual the counters followed before
  spans (per segment, per flow in id order, per hop) and the exact
  integral in :class:`~fractions.Fraction`, the oracle both are judged
  against.
"""

from fractions import Fraction

from repro.dataplane.realloc import ReallocEngine
from repro.symmetry.quotient import QuotientState


def directions(network):
    """Every direction of ``network``, in link order."""
    return [direction for link in network.links
            for direction in (link.forward, link.reverse)]


def counters(network):
    """Every span-fed counter: per direction (carried, source port tx,
    destination port rx), per host (rx, tx)."""
    out = {d: (d.bytes_carried, d.src_port.tx_bytes, d.dst_port.rx_bytes)
           for d in directions(network)}
    for host in network.hosts():
        out[host] = (host.rx_bytes, host.tx_bytes)
    return out


def carrying(network):
    """The flows that carry bytes now, in flow-id order."""
    return sorted((flow for flow in network.flows
                   if flow.active and flow.path is not None
                   and flow.path.delivered), key=lambda flow: flow.id)


class SpanReference:
    """The span rule, from the network's flows, paths and rates."""

    def __init__(self, network, monkeypatch):
        self.network = network
        # owner -> [value, since, settled counters]
        self.spans = {}
        network.on_reallocation.append(self.resum)
        stop = network.stop_flow

        def stop_flow(flow):
            was_active = flow.active
            stop(flow)
            if was_active:
                self.resum(network.now)

        monkeypatch.setattr(network, "stop_flow", stop_flow)
        credit_packet = ReallocEngine.credit_packet

        def credit_too(engine, direction, port, size):
            credit_packet(engine, direction, port, size)
            if engine is network.realloc:
                span = self._span(direction, network.now)
                span[2][1 if port is direction.src_port else 2] += size

        monkeypatch.setattr(ReallocEngine, "credit_packet", credit_too)

    def _span(self, owner, now):
        span = self.spans.get(owner)
        if span is None:
            host = not hasattr(owner, "src_port")
            span = self.spans[owner] = [
                (0.0, 0.0) if host else 0.0, now,
                [0.0, 0.0] if host else [0.0, 0.0, 0.0]]
        return span

    def resum(self, now):
        """Every owner's sum, flows in id order; a moved one settles."""
        loads = {}
        rates = {}
        for flow in carrying(self.network):
            rate = flow.rate_bps
            for hop in flow.path.hops:
                loads[hop] = loads.get(hop, 0.0) + rate
            rx, tx = rates.get(flow.dst, (0.0, 0.0))
            rates[flow.dst] = (rx + rate, tx)
            rx, tx = rates.get(flow.src, (0.0, 0.0))
            rates[flow.src] = (rx, tx + rate)
        for direction in directions(self.network):
            self._move(direction, loads.get(direction, 0.0), now)
        for host in self.network.hosts():
            self._move(host, rates.get(host, (0.0, 0.0)), now)

    def _move(self, owner, value, now):
        span = self._span(owner, now)
        if value != span[0]:
            span[2] = self._at(span, now)
            span[1] = now
            span[0] = value

    @staticmethod
    def _at(span, now):
        value, since, settled = span
        elapsed = now - since
        if isinstance(value, tuple):
            return [have + rate * elapsed / 8.0
                    for have, rate in zip(settled, value)]
        moved = value * elapsed / 8.0
        return [have + moved for have in settled]

    def counters(self, now):
        """Every owner's counters as of ``now``, like :func:`counters`."""
        out = {}
        for direction in directions(self.network):
            span = self.spans.get(direction)
            out[direction] = tuple(self._at(span, now)) if span else (
                0.0, 0.0, 0.0)
        for host in self.network.hosts():
            span = self.spans.get(host)
            out[host] = tuple(self._at(span, now)) if span else (0.0, 0.0)
        return out


class RateHistory:
    """Every ``(dt, now)`` segment the engine integrates, with each
    accruing flow's rate and hops during it: what the engine seals
    before rates change, and what a symmetry quotient accrues per
    class while it holds."""

    def __init__(self, monkeypatch):
        self.segments = []   # (dt, now, [(flow, rate, hops)] in fid order)
        seal = ReallocEngine._seal
        accrue = QuotientState.accrue
        history = self

        def seal_and_record(engine):
            accruing = [
                (entry.flow, entry.flow.rate_bps, tuple(entry.dirs))
                for __, entry in sorted(engine._cache.items())
                if entry.delivered and entry.flow.active
                and entry.flow.rate_bps > 0]
            history.segments += [(dt, now, accruing)
                                 for dt, now in engine._segments]
            seal(engine)

        def accrue_and_record(quotient, dt, now):
            accruing = sorted(
                ((flow, fc.rate, tuple(flow.path.hops))
                 for fc in quotient.flow_classes if fc.rate > 0
                 for flow in fc.flows if flow.active),
                key=lambda item: item[0].id)
            history.segments.append((dt, now, accruing))
            accrue(quotient, dt, now)

        monkeypatch.setattr(ReallocEngine, "_seal", seal_and_record)
        monkeypatch.setattr(QuotientState, "accrue", accrue_and_record)

    def _integrate(self, bytes_of, zero):
        """Counters from ``bytes_of(rate, dt, start, now)`` per flow
        and segment, added in the per-segment rule's visit order."""
        out = {}
        start = 0.0
        for dt, now, accruing in self.segments:
            for flow, rate, hops in accruing:
                moved = bytes_of(rate, dt, start, now)
                for hop in hops:
                    carried, tx, rx = out.get(hop, (zero,) * 3)
                    out[hop] = (carried + moved, tx + moved, rx + moved)
                rx, tx = out.get(flow.dst, (zero, zero))
                out[flow.dst] = (rx + moved, tx)
                rx, tx = out.get(flow.src, (zero, zero))
                out[flow.src] = (rx, tx + moved)
            start = now
        return out

    def per_segment(self):
        """The float counters of the rule before spans: every segment
        adds ``rate · dt / 8`` to each counter of each flow on it."""
        return self._integrate(lambda rate, dt, start, now: rate * dt / 8.0,
                               0.0)

    def exact(self):
        """The exact integral of the recorded rates over the recorded
        segment boundaries."""
        return self._integrate(
            lambda rate, dt, start, now:
                Fraction(rate) * (Fraction(now) - Fraction(start)) / 8,
            Fraction(0))


def worst_error(measured, exact):
    """The largest relative error of ``measured`` against ``exact``
    over every counter the exact integral fills, and its owner."""
    worst, where = 0.0, None
    for owner, values in exact.items():
        for got, want in zip(measured[owner], values):
            if want:
                error = float(abs(Fraction(got) - want) / want)
                if error > worst:
                    worst, where = error, owner
    return worst, where
