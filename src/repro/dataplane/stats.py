"""Network statistics collection.

The demo ends by plotting "the aggregated rate of all flows arriving at
the hosts for each TE case".  :class:`StatsCollector` produces exactly
that: a periodic sampler recording aggregate and per-host receive
rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, TYPE_CHECKING

from repro.core.events import PRIORITY_STATS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.simulation import Simulation
    from repro.dataplane.network import Network


@dataclass
class Sample:
    """One snapshot of data-plane state."""

    time: float
    aggregate_rx_bps: float
    host_rx_bps: Dict[str, float] = field(default_factory=dict)
    active_flows: int = 0


class StatsCollector:
    """Periodic sampler over a :class:`~repro.dataplane.network.Network`."""

    def __init__(self, network: "Network", interval: float = 0.5):
        if interval <= 0:
            raise ValueError("stats interval must be positive")
        self.network = network
        self.interval = interval
        self.samples: List[Sample] = []

    def attach(self, sim: "Simulation") -> None:
        """Arm the periodic sampling timer (first sample after one interval)."""
        sim.scheduler.periodic(
            self.interval, self.sample_now, priority=PRIORITY_STATS,
            label="stats sample",
        )

    def sample_now(self) -> Sample:
        """Take one sample immediately (also used by the timer)."""
        network = self.network
        now = network.now
        # A sample reads rates, never byte counters: it closes the rate
        # segment (counters integrate over the same boundaries as ever)
        # and leaves the replay to whoever next reads a counter.
        network.realloc.close_segment(now)
        # Each host rate read once: the aggregate sums the same values
        # in the same (hosts()) order as Network.aggregate_rx_rate.
        host_rx = {h.name: h.rx_rate_bps for h in network.hosts()}
        sample = Sample(
            time=now,
            aggregate_rx_bps=sum(host_rx.values()),
            host_rx_bps=host_rx,
            active_flows=len(network.active_flows()),
        )
        self.samples.append(sample)
        return sample

    # -- series accessors ----------------------------------------------------

    def times(self) -> List[float]:
        """Sample timestamps."""
        return [s.time for s in self.samples]

    def aggregate_series(self) -> List[float]:
        """Aggregate host receive rate over time (bps)."""
        return [s.aggregate_rx_bps for s in self.samples]

    def mean_aggregate_bps(self, after: float = 0.0,
                           before: "float | None" = None) -> float:
        """Average aggregate receive rate over samples in [after, before].

        The demo compares TE schemes by their steady-state aggregate
        rate; ``after`` skips the convergence transient and ``before``
        excludes the tail after traffic has ended.
        """
        values = [
            s.aggregate_rx_bps
            for s in self.samples
            if s.time >= after and (before is None or s.time <= before)
        ]
        if not values:
            return 0.0
        return sum(values) / len(values)
