"""The BGP daemon's tables and send path as they stood before, kept as a
test-only reference.

:class:`SendPathReference` is :class:`~repro.bgp.daemon.BGPDaemon` with
the send path it had before exports were encoded from wire pieces: one
``_queue_announce`` call per (peer, prefix), an exported
:class:`~repro.bgp.messages.PathAttributes` built per advertised prefix
(``_export``), and each UPDATE a ``BGPUpdate`` whose bytes come from
:func:`update_bytes`, a copy of the encoder of that time.  None of it
calls the shipped ``encode_attributes``, ``encode_update``,
``_propagate`` or ``_flush``.

:class:`ProbingDaemon` is that, with the RIB tables as they stood
before one Adj-RIB-In table per prefix and an Adj-RIB-Out without
exported copies: every peer keeps its own Adj-RIB-In dict, a decision
probes each established peer's dict in peer order, and the Adj-RIB-Out
keeps the exported attributes and compares them whole.  The shipped
daemon must agree with it on every Loc-RIB selection, every FIB install
and every byte it sends.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Set

from repro.bgp.daemon import BGPDaemon
from repro.bgp.decision import decide
from repro.bgp.messages import BGPUpdate, PathAttributes, encode_prefix
from repro.bgp.rib import RIBRoute
from repro.netproto.addr import IPv4Prefix


def attribute_bytes(attributes: PathAttributes) -> bytes:
    """``PathAttributes.encode()`` as it was: one pack per attribute."""
    chunks = [struct.pack("!BBBB", 0x40, 1, 1, attributes.origin)]
    hops = len(attributes.as_path)
    segment = (struct.pack(f"!BB{hops}H", 2, hops, *attributes.as_path)
               if hops else b"")
    if len(segment) > 255:
        chunks.append(struct.pack("!BBH", 0x50, 2, len(segment)))
    else:
        chunks.append(struct.pack("!BBB", 0x40, 2, len(segment)))
    chunks.append(segment)
    if attributes.next_hop is not None:
        chunks.append(struct.pack("!BBBI", 0x40, 3, 4,
                                  int(attributes.next_hop)))
    if attributes.med is not None:
        chunks.append(struct.pack("!BBBI", 0x80, 4, 4, attributes.med))
    if attributes.local_pref is not None:
        chunks.append(struct.pack("!BBBI", 0x40, 5, 4, attributes.local_pref))
    return b"".join(chunks)


def update_bytes(update: BGPUpdate) -> bytes:
    """``BGPUpdate.encode()`` as it was: the body, then the header."""
    withdrawn = b"".join(map(encode_prefix, update.withdrawn))
    attributes = (b"" if update.attributes is None
                  else attribute_bytes(update.attributes))
    body = b"".join((struct.pack("!H", len(withdrawn)), withdrawn,
                     struct.pack("!H", len(attributes)), attributes,
                     *map(encode_prefix, update.nlri)))
    return b"\xff" * 16 + struct.pack("!HB", 19 + len(body), 2) + body


def exported(daemon: BGPDaemon, state, attributes: PathAttributes
             ) -> PathAttributes:
    """What a peer is told about a route, as ``_export`` built it: the
    export policy's extra prepends, the eBGP prepend of the daemon's own
    AS and next-hop-self."""
    copies = 1 + state.config.export_policy.prepend_count
    return PathAttributes(
        origin=attributes.origin,
        as_path=(daemon.config.asn,) * copies + attributes.as_path,
        next_hop=state.config.local_address,
        med=attributes.med,
        local_pref=attributes.local_pref,
    )


class SendPathReference(BGPDaemon):
    """The daemon with its earlier send path: a queue call per (peer,
    prefix), an exported ``PathAttributes`` per advertised prefix and a
    ``BGPUpdate`` per message, encoded by :func:`update_bytes`."""

    def _propagate(self, prefix: IPv4Prefix, best: Optional[RIBRoute],
                   peers: Sequence) -> None:
        for state in peers:
            if best is None:
                self._queue_withdraw(state, prefix)
            else:
                self._queue_announce(state, prefix, best)
            self._schedule_flush(state)

    def _queue_announce(self, state, prefix: IPv4Prefix,
                        best: RIBRoute) -> None:
        if best.peer_name == state.config.peer_name:
            self._queue_withdraw(state, prefix)
            return
        if (self.config.sender_side_loop_detection
                and state.config.remote_asn in best.attributes.as_path):
            self._queue_withdraw(state, prefix)
            return
        if not state.config.export_policy.permits(prefix):
            self._queue_withdraw(state, prefix)
            return
        state.pending_withdraw.discard(prefix)
        state.pending_announce[prefix] = best.attributes

    def _queue_withdraw(self, state, prefix: IPv4Prefix) -> None:
        state.pending_announce.pop(prefix, None)
        if state.adj_rib_out.advertised(prefix) is not None:
            state.pending_withdraw.add(prefix)

    def _export(self, state, attributes: PathAttributes) -> PathAttributes:
        self.exports += 1
        return exported(self, state, attributes)

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
            self._send_update(state, BGPUpdate(withdrawn=withdrawals))
            return
        first = True
        for attrs, prefixes in groups.items():
            self._send_update(state, BGPUpdate(
                withdrawn=withdrawals if first else [],
                attributes=attrs, nlri=prefixes))
            first = False

    def _send_update(self, state, update: BGPUpdate) -> None:
        state.updates_sent += 1
        if state.channel is not None:
            state.channel.send(self, update_bytes(update))


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


class ProbingDaemon(SendPathReference):
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
