"""Hedera — dynamic flow scheduling (Al-Fares et al., NSDI 2010).

TE scheme (ii) of the demonstration.  The app runs the Hedera control
loop on top of default five-tuple ECMP routing:

1. **poll** — every ``poll_interval`` (the paper's demo uses 5 s, and
   notes this periodic control traffic repeatedly wakes the hybrid
   clock into FTI mode) request flow statistics from every edge
   switch;
2. **estimate** — run Hedera's iterative max-min *demand estimator*
   over the observed (src host, dst host) flows: what rate would each
   flow achieve if only host NICs constrained it?
3. **schedule** — flows whose estimated demand exceeds 10% of NIC
   bandwidth are "large"; place each with **Global First Fit**: scan
   the equal-cost paths and reserve the first one with headroom for
   the flow's demand, installing higher-priority path entries.

Small flows keep riding ECMP, exactly as in the original system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.controllers.ecmp import FiveTupleEcmpApp
from repro.controllers.topology_view import TopologyView
from repro.netproto.packet import FiveTuple
from repro.openflow.controller import Datapath
from repro.openflow.messages import StatsReply

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.simulation import Simulation


def estimate_demands(
    flows: List[Tuple[str, str]], max_iterations: int = 50
) -> Dict[Tuple[str, str, int], float]:
    """Hedera's demand estimator.

    ``flows`` lists (src host, dst host) pairs — duplicates are
    distinct flows.  Returns demand per (src, dst, occurrence index)
    as a *fraction of NIC bandwidth* in [0, 1].

    The algorithm alternates:

    * Est_Src — each sender divides its spare NIC capacity equally
      among its not-yet-converged flows;
    * Est_Dst — each overloaded receiver caps its senders to an equal
      share, marking those flows converged;

    until a fixed point (guaranteed within O(flows) rounds).
    """
    keys: List[Tuple[str, str, int]] = []
    seen: Dict[Tuple[str, str], int] = {}
    for src, dst in flows:
        occurrence = seen.get((src, dst), 0)
        seen[(src, dst)] = occurrence + 1
        keys.append((src, dst, occurrence))

    demand = {key: 0.0 for key in keys}
    converged = {key: False for key in keys}
    senders: Dict[str, List[Tuple[str, str, int]]] = {}
    receivers: Dict[str, List[Tuple[str, str, int]]] = {}
    for key in keys:
        senders.setdefault(key[0], []).append(key)
        receivers.setdefault(key[1], []).append(key)

    for __ in range(max_iterations):
        previous = dict(demand)

        # Est_Src: spread spare sender capacity over unconverged flows.
        for host, flow_keys in senders.items():
            fixed = sum(demand[k] for k in flow_keys if converged[k])
            free = [k for k in flow_keys if not converged[k]]
            if not free:
                continue
            share = max(0.0, 1.0 - fixed) / len(free)
            for key in free:
                demand[key] = share

        # Est_Dst: receivers over 1.0 cap their senders fairly.
        for host, flow_keys in receivers.items():
            total = sum(demand[k] for k in flow_keys)
            if total <= 1.0 + 1e-12:
                continue
            limited = {k: True for k in flow_keys}
            effective_share = 1.0 / len(flow_keys)
            changed = True
            while changed:
                changed = False
                still_limited = 0
                small_total = 0.0
                for key in flow_keys:
                    if not limited[key]:
                        small_total += demand[key]
                        continue
                    if demand[key] < effective_share - 1e-12:
                        limited[key] = False
                        small_total += demand[key]
                        changed = True
                    else:
                        still_limited += 1
                if still_limited:
                    effective_share = max(0.0, 1.0 - small_total) / still_limited
            for key in flow_keys:
                if limited[key]:
                    demand[key] = effective_share
                    converged[key] = True

        if all(abs(demand[k] - previous[k]) < 1e-9 for k in keys):
            break

    return demand


class GlobalFirstFit:
    """Hedera's placement heuristic.

    Keeps per-link reservations (as NIC-bandwidth fractions) and, for
    each large flow in turn, linearly searches the equal-cost paths
    for the first whose links can all absorb the flow's demand.
    """

    def __init__(self, topology: TopologyView):
        self.topology = topology
        self._reserved: Dict[Tuple[str, str], float] = {}

    def reset(self) -> None:
        """Forget all reservations (start of a scheduling round)."""
        self._reserved.clear()

    def place(self, src_switch: str, dst_switch: str,
              demand: float) -> Optional[List[str]]:
        """First equal-cost path with headroom, reserving it; or None."""
        reserved = self._reserved
        topology = self.topology
        for path, links in zip(
            topology.equal_cost_paths(src_switch, dst_switch),
            topology.equal_cost_links(src_switch, dst_switch),
        ):
            for link in links:
                if not reserved.get(link, 0.0) + demand <= 1.0 + 1e-9:
                    break
            else:
                for link in links:
                    reserved[link] = reserved.get(link, 0.0) + demand
                return path
        return None


@dataclass
class _PollRound:
    """In-flight statistics poll."""

    outstanding: Set[int] = field(default_factory=set)  # xids awaited
    flow_bytes: Dict[FiveTuple, int] = field(default_factory=dict)


class HederaApp(FiveTupleEcmpApp):
    """ECMP default routing + Hedera large-flow scheduling."""

    name = "hedera"

    def __init__(
        self,
        topology: TopologyView,
        poll_interval: float = 5.0,
        nic_bps: float = 1_000_000_000.0,
        large_flow_fraction: float = 0.1,
        priority: int = 300,
        large_priority: int = 400,
        hash_seed: int = 0,
    ):
        super().__init__(topology, priority=priority, hash_seed=hash_seed)
        self.poll_interval = poll_interval
        self.nic_bps = nic_bps
        self.large_flow_fraction = large_flow_fraction
        self.large_priority = large_priority
        self.gff = GlobalFirstFit(topology)
        self.polls = 0
        self.scheduling_rounds = 0
        self.large_flow_moves = 0
        self.large_placements: Dict[FiveTuple, List[str]] = {}
        self._round: Optional[_PollRound] = None
        self._last_bytes: Dict[FiveTuple, int] = {}
        # The (keys, host pairs) the last placement ran on; None once a
        # placement it made is dropped.
        self._placed_inputs: Optional[tuple] = None

    # -- control loop -------------------------------------------------------------

    def on_start(self, sim: "Simulation") -> None:
        sim.scheduler.periodic(
            self.poll_interval, self.poll_stats, label="hedera poll"
        )

    def edge_switches(self) -> List[str]:
        """Switches with at least one attached host."""
        return sorted({loc.switch_name for loc in self.topology.hosts()})

    def poll_stats(self) -> None:
        """Fire one statistics poll at every edge switch."""
        self.polls += 1
        poll = _PollRound()
        for switch_name in self.edge_switches():
            dp = self.controller.datapath_by_name(switch_name)
            if dp is None or not dp.ready:
                continue
            xid = dp.request_flow_stats()
            poll.outstanding.add(xid)
        if poll.outstanding:
            self._round = poll

    def on_stats_reply(self, dp: Datapath, message: StatsReply) -> None:
        poll = self._round
        if poll is None or message.xid not in poll.outstanding:
            return
        poll.outstanding.discard(message.xid)
        # Header-first: the reply hands out (match extent, byte count)
        # pairs, and the controller's match table turns an extent it has
        # seen before into its flow with two lookups.
        match_at = self.controller.matches.from_wire
        flow_bytes = poll.flow_bytes
        for extent, byte_count in message.flow_bytes():
            flow = match_at(extent).five_tuple()
            if flow is None:
                continue
            # Edge switches see each flow twice (ingress at the source
            # edge, egress at the destination edge); keep the max.
            if byte_count > flow_bytes.get(flow, -1):
                flow_bytes[flow] = byte_count
        if not poll.outstanding:
            self._round = None
            self._schedule_round(poll)

    def forget_flow(self, flow: FiveTuple) -> None:
        super().forget_flow(flow)
        if self.large_placements.pop(flow, None) is not None:
            self._placed_inputs = None
        # New entries count from zero; a kept total would read as a
        # negative delta at the next poll.
        self._last_bytes.pop(flow, None)

    def stats(self) -> Dict[str, int]:
        return {
            **super().stats(),
            "polls": self.polls,
            "rounds": self.scheduling_rounds,
            "large_flow_moves": self.large_flow_moves,
        }

    # -- scheduling ---------------------------------------------------------------

    def _schedule_round(self, poll: _PollRound) -> None:
        """Demand estimation + Global First Fit over the polled flows."""
        self.scheduling_rounds += 1

        # (sort key, flow) pairs throughout: a flow's as_tuple() is
        # computed once per round and orders both lists below (keys are
        # unique, so no comparison ever reaches a flow object).
        active: List[Tuple[tuple, FiveTuple]] = []
        for key, flow, byte_count in sorted(
            (flow.as_tuple(), flow, byte_count)
            for flow, byte_count in poll.flow_bytes.items()
        ):
            delta = byte_count - self._last_bytes.get(flow, 0)
            self._last_bytes[flow] = byte_count
            if delta > 0:
                active.append((key, flow))

        if not active:
            return

        keys: List[tuple] = []
        pairs: List[Tuple[str, str]] = []
        located: List[tuple] = []  # (key, flow, src location, dst location)
        locate = self.topology.locate_ip
        for key, flow in active:
            src = locate(flow.src_ip)
            dst = locate(flow.dst_ip)
            if src is None or dst is None:
                continue
            keys.append(key)
            pairs.append((src.host_name, dst.host_name))
            located.append((key, flow, src, dst))
        # The same flows between the same hosts as the last placement,
        # none of its placements dropped since: estimation and Global
        # First Fit would pin every large flow where it already is and
        # install nothing (the topology view never changes).
        if (keys, pairs) == self._placed_inputs:
            return
        self._placed_inputs = (keys, pairs)
        demands = estimate_demands(pairs)

        # Deterministic large-flow order: biggest demand first, then key.
        large: List[tuple] = []
        occurrence: Dict[Tuple[str, str], int] = {}
        for (key, flow, src, dst), pair in zip(located, pairs):
            index = occurrence.get(pair, 0)
            occurrence[pair] = index + 1
            demand = demands[(pair[0], pair[1], index)]
            if demand >= self.large_flow_fraction:
                large.append((-demand, key, flow, src, dst))
        large.sort()

        self.gff.reset()
        for neg_demand, __, flow, src, dst in large:
            path = self.gff.place(src.switch_name, dst.switch_name,
                                  -neg_demand)
            if path is None:
                continue  # stays on its current (ECMP or previous) path
            if self.large_placements.get(flow) == path:
                continue  # already pinned there
            self.install_large(flow, path, dst.switch_port)
            self.large_placements[flow] = path
            self.large_flow_moves += 1

    def install_large(self, flow: FiveTuple, path: List[str],
                      last_hop_port: int) -> None:
        """Pin a large flow: path-wide entries above the ECMP priority."""
        self.install_path(flow, path, last_hop_port,
                          priority=self.large_priority)
