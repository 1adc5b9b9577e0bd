"""The max-min fair point in exact rational arithmetic — test-only.

Every other allocation check in the tree compares one float kernel with
another float kernel the repository also wrote.  This is the root of
trust they lack: textbook progressive filling (all unfrozen rows rise
together; a row freezes when it meets its demand or a link it crosses
fills) over :class:`fractions.Fraction`, where nothing rounds, no
epsilon decides a tie and a constraint is tight exactly when it is
tight.  ``Fraction(float)`` is exact, so the oracle sees precisely the
instance the float kernels see.

It shares no code with ``repro.dataplane`` and knows none of its
conventions except the instance shape (``flow_links[row]`` lists the
links the row crosses, each at most once).  In particular it has no
``EPSILON``: a row demanding 1e-12 is allocated 1e-12, where the
kernels round it to zero — :func:`tolerance` budgets for that.
"""

import math
from fractions import Fraction
from typing import List, Sequence


def exact_max_min(demands: Sequence[float], capacities: Sequence[float],
                  flow_links: Sequence[Sequence[int]]) -> List[Fraction]:
    """Per-row max-min fair rates of the instance, as Fractions."""
    demand = [Fraction(value) for value in demands]
    residual = [Fraction(value) for value in capacities]
    rates = [Fraction(0)] * len(demand)
    rising = {row for row, value in enumerate(demand) if value > 0}
    crossing = [0] * len(residual)      # rising rows per link
    for row in rising:
        for link in flow_links[row]:
            crossing[link] += 1
    while rising:
        # The largest raise every constraint allows: the smallest
        # remaining demand, or the smallest equal share of a link's
        # residual among the rows still rising through it.
        step = min(demand[row] - rates[row] for row in rising)
        for link, count in enumerate(crossing):
            if count:
                step = min(step, residual[link] / count)
        for row in rising:
            rates[row] += step
        full = set()
        for link, count in enumerate(crossing):
            if count:
                residual[link] -= step * count
                if residual[link] == 0:
                    full.add(link)
        frozen = {row for row in rising
                  if rates[row] == demand[row]
                  or not full.isdisjoint(flow_links[row])}
        assert frozen, "exact filling froze nothing: not a tight step"
        for row in frozen:
            for link in flow_links[row]:
                crossing[link] -= 1
        rising -= frozen
    return rates


def offered(demands: Sequence[float], flow_links: Sequence[Sequence[int]],
            num_links: int) -> List[Fraction]:
    """Per link, the exact sum of the demands of the rows crossing it."""
    total = [Fraction(0)] * num_links
    for row, links in enumerate(flow_links):
        for link in links:
            total[link] += Fraction(demands[row])
    return total


def tolerance(demands: Sequence[float], capacities: Sequence[float],
              epsilon: float) -> float:
    """How far a float kernel may land from the exact point.

    Ulp-scaled: a kernel rounds a bounded number of times per freeze
    event — one add per crossed link into ``frozen_load``, one subtract
    and one divide per key — on values no larger than the largest
    capacity or demand, and there are at most rows + links events, each
    inheriting the error of the ones before it: one ulp of that scale
    per event.  (The worst the corpus has shown is under two ulps in
    total; the 1e-6 relative check beside it allows billions.)
    On top, every row the kernels round to zero (demand at or below
    their ``epsilon``) is off by up to ``epsilon`` and frees that much
    for the others.
    """
    scale = max(list(demands) + list(capacities) + [1.0])
    events = len(demands) + len(capacities)
    return events * math.ulp(scale) + len(demands) * epsilon
