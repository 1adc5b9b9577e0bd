"""The BGP RIBs as they stood before one Adj-RIB-In table per prefix and
an Adj-RIB-Out without exported copies, kept as a test-only reference.

:class:`ProbingDaemon` is :class:`~repro.bgp.daemon.BGPDaemon` with the
earlier tables and the two methods that used them: every peer keeps its
own Adj-RIB-In dict, a decision probes each established peer's dict in
peer order, and the Adj-RIB-Out keeps the exported attributes and
compares them whole.  The shipped daemon must agree with it on every
Loc-RIB selection, every FIB install and every byte it sends.  Nothing
under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.bgp.daemon import BGPDaemon
from repro.bgp.decision import decide
from repro.bgp.messages import BGPUpdate, PathAttributes
from repro.bgp.rib import RIBRoute
from repro.netproto.addr import IPv4Prefix


class PerPeerRIBIn:
    """One peer's routes in a dict of its own."""

    def __init__(self, peer_name: str):
        self.peer_name = peer_name
        self._routes: Dict[IPv4Prefix, RIBRoute] = {}
        self.get = self._routes.get

    def update(self, route: RIBRoute) -> None:
        self._routes[route.prefix] = route

    def withdraw(self, prefix: IPv4Prefix) -> bool:
        return self._routes.pop(prefix, None) is not None

    def prefixes(self) -> List[IPv4Prefix]:
        return sorted(self._routes, key=IPv4Prefix.key)

    def routes(self) -> List[RIBRoute]:
        return [self._routes[p] for p in self.prefixes()]

    def clear(self) -> List[IPv4Prefix]:
        lost = self.prefixes()
        self._routes.clear()
        return lost

    def __len__(self) -> int:
        return len(self._routes)


class ExportedCopiesRIBOut:
    """What was advertised to one peer: the exported attributes."""

    def __init__(self, peer_name: str):
        self.peer_name = peer_name
        self._advertised: Dict[IPv4Prefix, PathAttributes] = {}

    def advertised(self, prefix: IPv4Prefix) -> Optional[PathAttributes]:
        return self._advertised.get(prefix)

    def record_announce(self, prefix: IPv4Prefix,
                        attributes: PathAttributes) -> bool:
        if self._advertised.get(prefix) == attributes:
            return False
        self._advertised[prefix] = attributes
        return True

    def record_withdraw(self, prefix: IPv4Prefix) -> bool:
        return self._advertised.pop(prefix, None) is not None

    def prefixes(self) -> List[IPv4Prefix]:
        return sorted(self._advertised, key=IPv4Prefix.key)

    def clear(self) -> None:
        self._advertised.clear()


class ProbingDaemon(BGPDaemon):
    """The daemon with per-peer Adj-RIB-In dicts probed one by one, and
    an Adj-RIB-Out of exported copies."""

    def add_peer(self, peer_config, channel) -> None:
        super().add_peer(peer_config, channel)
        state = self.peers[peer_config.peer_name]
        state.adj_rib_in = PerPeerRIBIn(peer_config.peer_name)
        state.adj_rib_out = ExportedCopiesRIBOut(peer_config.peer_name)

    def _reprocess(self, prefixes: Set[IPv4Prefix]) -> None:
        established = [s for s in self.peers.values() if s.fsm.established]
        lookups = [state.adj_rib_in.get for state in established]
        for prefix in sorted(prefixes, key=IPv4Prefix.key):
            candidates: List[RIBRoute] = []
            local = self._local_routes.get(prefix)
            if local is not None:
                candidates.append(local)
            for lookup in lookups:
                route = lookup(prefix)
                if route is not None:
                    candidates.append(route)
            outcome = decide(candidates, max_paths=self.config.max_paths)
            self.decisions += 1
            if not self.loc_rib.set_selection(
                    prefix, outcome.best, outcome.multipath):
                continue
            self.selection_changes += 1
            self._program_fib(prefix, outcome)
            self._propagate(prefix, outcome.best, established)

    def _flush(self, state) -> None:
        state.flush_scheduled = False
        if not state.fsm.established:
            state.pending_announce.clear()
            state.pending_withdraw.clear()
            return
        withdrawals = [
            prefix
            for prefix in sorted(state.pending_withdraw, key=IPv4Prefix.key)
            if state.adj_rib_out.record_withdraw(prefix)
        ]
        state.pending_withdraw.clear()
        groups: Dict[PathAttributes, List[IPv4Prefix]] = {}
        for prefix in sorted(state.pending_announce, key=IPv4Prefix.key):
            attrs = self._export(state, state.pending_announce[prefix])
            if state.adj_rib_out.record_announce(prefix, attrs):
                groups.setdefault(attrs, []).append(prefix)
        state.pending_announce.clear()
        if withdrawals and not groups:
            state.updates_sent += 1
            self._send(state, BGPUpdate(withdrawn=withdrawals))
            return
        first = True
        for attrs, prefixes in groups.items():
            update = BGPUpdate(withdrawn=withdrawals if first else [],
                               attributes=attrs, nlri=prefixes)
            first = False
            state.updates_sent += 1
            self._send(state, update)
