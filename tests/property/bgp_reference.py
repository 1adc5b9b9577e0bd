"""The BGP daemon's decoder, tables, receive and send paths as they
stood before, kept as a test-only reference.

:func:`decode_bgp_stream` is the UPDATE decoder from before UPDATEs
were read in place: the body and the rest sliced off, a fresh
:class:`~repro.bgp.messages.RouteValues` per UPDATE for what it meets
for the first time, absorbed into the experiment's table by
:func:`absorb` once the whole UPDATE has parsed.  The shipped
``decode_bgp_stream`` must return what it returns, or fail with the
same code, and leave the table as it leaves it.

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
and every byte it sends.  It runs the receive path from before a
decision was skipped when it could not change the selection
(:meth:`ProbingDaemon._handle_update`): every prefix an UPDATE touches
is decided.

:func:`record_transitions` logs every session FSM transition for a
test: the shipped :class:`~repro.bgp.fsm.SessionFSM` keeps only its
current state.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.bgp.daemon import BGPDaemon
from repro.bgp.decision import decide
from repro.bgp.fsm import BGPState, SessionFSM
from repro.bgp.messages import (
    ATTR_AS_PATH, ATTR_LOCAL_PREF, ATTR_MED, ATTR_NEXT_HOP, ATTR_ORIGIN,
    BGP_HEADER_LEN, BGP_MARKER, FLAG_EXTENDED, TYPE_KEEPALIVE, TYPE_OPEN,
    TYPE_NOTIFICATION, TYPE_UPDATE, BGPDecodeError, BGPKeepalive,
    BGPMessage, BGPNotification, BGPOpen, BGPUpdate, Origin, PathAttributes,
    RouteValues, _as_path, _malformed_update, encode_prefix)
from repro.bgp.rib import RIBRoute
from repro.netproto.addr import IPv4Address, IPv4Prefix

_LENGTH_TYPE = struct.Struct("!HB")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_ATTR_HEADER = struct.Struct("!BBB")
_ORIGINS = tuple(Origin)


# --- the FSM's transitions ---------------------------------------------------

class Transition(NamedTuple):
    """One session FSM transition."""

    time: float
    from_state: BGPState
    to_state: BGPState
    event: str


def record_transitions(monkeypatch) -> Dict[SessionFSM, List[Transition]]:
    """Wrap ``SessionFSM._move``, through which every transition passes,
    for one test; returns each FSM's transitions in order (an FSM that
    has not moved maps to an empty list)."""
    log: Dict[SessionFSM, List[Transition]] = defaultdict(list)
    move = SessionFSM._move

    def recording_move(fsm, new_state, event, now):
        log[fsm].append(Transition(now, fsm.state, new_state, event))
        move(fsm, new_state, event, now)

    monkeypatch.setattr(SessionFSM, "_move", recording_move)
    return log


# --- the decoder ------------------------------------------------------------

def decode_bgp_stream(data: bytes, values: Optional[RouteValues] = None,
                      ) -> Tuple[BGPMessage, bytes]:
    """Parse the first BGP message from a byte stream; returns (msg, rest)."""
    if len(data) < BGP_HEADER_LEN:
        raise BGPDecodeError("truncated BGP header")
    if not data.startswith(BGP_MARKER):
        raise BGPDecodeError("bad BGP marker")
    length, msg_type = _LENGTH_TYPE.unpack_from(data, 16)
    if length < BGP_HEADER_LEN or length > len(data):
        raise BGPDecodeError(f"bad BGP length {length}")
    body = data[BGP_HEADER_LEN:length]
    rest = data[length:]
    if msg_type == TYPE_OPEN:
        return BGPOpen.decode_body(body), rest
    if msg_type == TYPE_UPDATE:
        return decode_update_body(body, values), rest
    if msg_type == TYPE_KEEPALIVE:
        if body:
            raise BGPDecodeError("KEEPALIVE with a body")
        return BGPKeepalive(), rest
    if msg_type == TYPE_NOTIFICATION:
        return BGPNotification.decode_body(body), rest
    raise BGPDecodeError(f"unknown BGP message type {msg_type}")


def decode_update_body(data: bytes,
                       values: Optional[RouteValues] = None) -> BGPUpdate:
    """Parse an UPDATE body, through ``values`` when given."""
    end = len(data)
    if end < 4:
        raise _malformed_update("truncated UPDATE")
    (withdrawn_len,) = _U16.unpack_from(data)
    attrs_at = 2 + withdrawn_len
    if attrs_at + 2 > end:
        raise _malformed_update("withdrawn routes overrun the UPDATE")
    (attr_len,) = _U16.unpack_from(data, attrs_at)
    nlri_at = attrs_at + 2 + attr_len
    if nlri_at > end:
        raise _malformed_update("path attributes overrun the UPDATE")
    fresh = RouteValues()
    known = fresh if values is None else values
    withdrawn = parse_prefixes(data, 2, attrs_at,
                               known.prefixes, fresh.prefixes)
    attributes = (
        parse_attributes(data, attrs_at + 2, nlri_at, known, fresh)
        if attr_len else None
    )
    nlri = parse_prefixes(data, nlri_at, end, known.prefixes, fresh.prefixes)
    if nlri and attributes is None:
        raise _malformed_update("NLRI without path attributes")
    if values is not None:
        absorb(values, fresh)
    return BGPUpdate(withdrawn=withdrawn, attributes=attributes, nlri=nlri)


def parse_attributes(data: bytes, offset: int, end: int,
                     known: RouteValues, fresh: RouteValues
                     ) -> PathAttributes:
    """Parse the attribute list in ``data[offset:end]``: the AS path
    and the next hop are taken from ``known`` or ``fresh``, and new
    ones are added to ``fresh``."""
    origin = Origin.IGP
    as_path: Tuple[int, ...] = ()
    next_hop: Optional[IPv4Address] = None
    med: Optional[int] = None
    local_pref: Optional[int] = None

    while offset < end:
        if offset + 3 > end:
            raise _malformed_update("truncated path attribute header")
        flags, code, length = _ATTR_HEADER.unpack_from(data, offset)
        body_start = offset + 3
        if flags & FLAG_EXTENDED:
            if offset + 4 > end:
                raise _malformed_update("truncated extended attribute length")
            (length,) = _U16.unpack_from(data, offset + 2)
            body_start = offset + 4
        offset = body_start + length
        if offset > end:
            raise _malformed_update("truncated attribute body")

        if code == ATTR_ORIGIN:
            if length != 1 or data[body_start] > Origin.INCOMPLETE:
                raise _malformed_update("bad ORIGIN attribute")
            origin = _ORIGINS[data[body_start]]
        elif code == ATTR_AS_PATH:
            wire = data[body_start:offset]
            as_path = _known(known.as_paths, fresh.as_paths, wire)
            if as_path is None:
                as_path = fresh.as_paths[wire] = _as_path(wire)
        elif code in (ATTR_NEXT_HOP, ATTR_MED, ATTR_LOCAL_PREF):
            if length != 4:
                raise _malformed_update(
                    f"attribute {code} needs 4 bytes, got {length}")
            if code == ATTR_NEXT_HOP:
                wire = data[body_start:offset]
                next_hop = _known(known.next_hops, fresh.next_hops, wire)
                if next_hop is None:
                    next_hop = fresh.next_hops[wire] = (
                        IPv4Address.from_bytes(wire))
            elif code == ATTR_MED:
                (med,) = _U32.unpack_from(data, body_start)
            else:
                (local_pref,) = _U32.unpack_from(data, body_start)
        # Unknown attributes are silently skipped (optional transit).
    return PathAttributes(
        origin=origin,
        as_path=as_path,
        next_hop=next_hop,
        med=med,
        local_pref=local_pref,
    )


def parse_prefixes(data: bytes, offset: int, end: int,
                   known: Dict[bytes, IPv4Prefix],
                   fresh: Dict[bytes, IPv4Prefix]) -> List[IPv4Prefix]:
    """The prefixes encoded in ``data[offset:end]``, each taken from
    ``known`` or ``fresh`` by its wire bytes; new ones go to ``fresh``."""
    prefixes: List[IPv4Prefix] = []
    while offset < end:
        length = data[offset]
        if length > 32:
            raise _malformed_update(f"prefix length {length} > 32")
        start = offset + 1
        stop = start + ((length + 7) >> 3)
        if stop > end:
            raise _malformed_update("truncated NLRI prefix")
        wire = data[offset:stop]
        prefix = _known(known, fresh, wire)
        if prefix is None:
            network = (int.from_bytes(data[start:stop], "big")
                       << (32 - 8 * (stop - start)))
            prefix = fresh[wire] = IPv4Prefix.from_network(network, length)
        prefixes.append(prefix)
        offset = stop
    return prefixes


def _known(known: dict, fresh: dict, wire: bytes):
    """The value kept for ``wire``, or None when neither table has it."""
    value = known.get(wire)
    return fresh.get(wire) if value is None else value


def absorb(values: RouteValues, fresh: RouteValues) -> None:
    """``RouteValues._absorb`` as it was: keep what one well-formed
    UPDATE met for the first time."""
    if not (fresh.prefixes or fresh.as_paths or fresh.next_hops):
        return
    for table, new in ((values.prefixes, fresh.prefixes),
                       (values.as_paths, fresh.as_paths),
                       (values.next_hops, fresh.next_hops)):
        if new:
            if len(table) + len(new) > values.BOUND:
                table.clear()
            table.update(new)


# --- the send path ----------------------------------------------------------


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
    """The daemon with per-peer Adj-RIB-In dicts probed one by one, an
    Adj-RIB-Out of exported copies, and a decision for every prefix an
    UPDATE touches."""

    def add_peer(self, peer_config, channel) -> None:
        super().add_peer(peer_config, channel)
        state = self.peers[peer_config.peer_name]
        state.adj_rib_in = PerPeerRIBIn(peer_config.peer_name)
        state.adj_rib_out = ExportedCopiesRIBOut(peer_config.peer_name)

    def receive(self, channel, data: bytes, metadata) -> None:
        """Decodes through :func:`decode_bgp_stream`, the decoder of
        before."""
        peer_name = self._channel_to_peer.get(channel.id)
        if peer_name is None:
            return
        state = self.peers[peer_name]
        state.last_heard = self._now()
        rest = data
        while rest:
            try:
                message, rest = decode_bgp_stream(rest, self.values)
            except BGPDecodeError as error:
                self._send(state, BGPNotification(code=error.code))
                self._teardown(state, f"malformed message: {error}")
                return
            self._dispatch(state, message)

    def _handle_update(self, state, message: BGPUpdate) -> None:
        touched: Set[IPv4Prefix] = set()
        rib_in = state.adj_rib_in
        for prefix in message.withdrawn:
            if rib_in.withdraw(prefix):
                touched.add(prefix)
        if message.nlri:
            attrs = message.attributes
            looped = attrs.contains_as(self.config.asn)
            import_policy = state.config.import_policy
            for prefix in message.nlri:
                imported = (None if looped
                            else import_policy.apply(prefix, attrs))
                if imported is None:
                    if rib_in.withdraw(prefix):
                        touched.add(prefix)
                    continue
                rib_in.update(
                    RIBRoute(
                        prefix=prefix,
                        attributes=imported,
                        peer_name=state.config.peer_name,
                        peer_router_id=state.remote_router_id,
                        values=self.values,
                    )
                )
                touched.add(prefix)
        if touched:
            self._reprocess(touched)

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
