"""The O(all) rebuilds the realloc engine no longer runs, kept as oracles.

A recompute re-classifies its seed directions only, and drops the
cached loads and host rates it may have moved; a read re-derives one
(``ReallocEngine.derived``) — the same code for both kernels.  These
are the rebuilds that replaced, from nothing but the engine's walk
cache and the network, in the arithmetic they always used: every host,
every direction, every flag, flow-id order.
"""

from repro.dataplane.arrays import CONTENTION_MARGIN


def all_directions(network):
    """Both directions of every link of ``network``, link order."""
    for link in network.links:
        yield link.forward
        yield link.reverse


def _delivered(engine):
    """The delivered cached walks, flow-id order."""
    return [entry for __, entry in sorted(engine._cache.items())
            if entry.delivered]


def host_rates(network):
    """``{host: (rx, tx)}`` for every host: each zeroed, then every
    delivered cached flow adds its rate to its destination's rx and its
    source's tx — the host-rate rebuild as every recompute ran it."""
    rates = {host: [0.0, 0.0] for host in network.hosts()}
    for entry in _delivered(network.realloc):
        flow = entry.flow
        rates[flow.dst][0] += flow.rate_bps
        rates[flow.src][1] += flow.rate_bps
    return {host: tuple(pair) for host, pair in rates.items()}


def loads(network):
    """``{direction: load}`` for every direction of the network: the
    rates of the delivered cached flows crossing it, a twice-crossed
    hop counted twice."""
    out = {direction: 0.0 for direction in all_directions(network)}
    for entry in _delivered(network.realloc):
        for direction in entry.dirs:
            out[direction] += entry.flow.rate_bps
    return out


def contended(network):
    """Every flag from scratch, over every direction of the network:
    the demand offered by the delivered cached flows crossing it (each
    once) exceeds its capacity less the contention margin."""
    offered = {direction: 0.0 for direction in all_directions(network)}
    for entry in _delivered(network.realloc):
        for direction in dict.fromkeys(entry.dirs):
            offered[direction] += entry.flow.demand_bps
    return {direction for direction, load in offered.items()
            if load > direction.capacity_bps * (1.0 - CONTENTION_MARGIN)}
