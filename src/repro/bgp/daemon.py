"""The emulated BGP daemon — Horse's Quagga stand-in.

A :class:`BGPDaemon` is an emulated control-plane process attached to a
simulated router.  It speaks genuine RFC 4271 bytes over Connection
Manager channels, runs real protocol timers in experiment time
(connect delay, keepalive, hold, advertisement interval), maintains
the three RIBs, runs the decision process with ECMP multipath, and
programs the router's FIB through the Connection Manager — exactly the
role Quagga's ``bgpd`` plays in the paper (Figures 1 and 2).

The message flow during the fat-tree demo's convergence phase — OPENs,
then a storm of UPDATEs, then silence — is what drives the hybrid
clock into FTI mode and back out (Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.bgp.decision import RouteComparison, decide
from repro.bgp.fsm import BGPState, SessionFSM
from repro.bgp.messages import (
    BGPDecodeError,
    BGPKeepalive,
    BGPMessage,
    BGPNotification,
    BGPOpen,
    BGPUpdate,
    PathAttributes,
    Origin,
    RouteValues,
    decode_bgp_stream,
    encode_attributes,
    encode_update,
    next_hop_attribute,
)
from repro.bgp.policy import ExportPolicy, ImportPolicy
from repro.bgp.rib import AdjRIBIn, AdjRIBInTable, AdjRIBOut, LocRIB, RIBRoute
from repro.core.errors import (
    ConfigurationError, ControlPlaneError, a_number, an_integer)
from repro.netproto.addr import IPv4Address, IPv4Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.connection_manager import ControlChannel
    from repro.core.simulation import Simulation


def _rejected(name: str, value: Any, accepted: str) -> ConfigurationError:
    return ConfigurationError(f"BGP {name!r} is {value!r}; accepted: {accepted}")


@dataclass
class BGPPeerConfig:
    """One eBGP neighbor.

    ``local_port``/``peer_address`` tie the session to the data plane:
    routes learned from this peer are installed with that egress port
    and gateway.  The timers are checked here, where they are
    configured, not when the session first uses them.
    """

    peer_name: str
    remote_asn: int
    local_port: int
    peer_address: IPv4Address
    local_address: IPv4Address
    hold_time: float = 90.0
    keepalive_interval: float = 30.0
    connect_delay: float = 0.05
    connect_retry: float = 5.0
    import_policy: ImportPolicy = field(default_factory=ImportPolicy)
    export_policy: ExportPolicy = field(default_factory=ExportPolicy)

    def __post_init__(self) -> None:
        hold, keepalive = self.hold_time, self.keepalive_interval
        if not (a_number(hold) and (hold == 0 or 3 <= hold <= 0xFFFF)):
            raise _rejected("hold_time", hold,
                            "0 (no hold timer) or 3 to 65535 seconds "
                            "(RFC 4271 4.2: a 16-bit field of the OPEN)")
        if not (a_number(keepalive) and keepalive > 0):
            raise _rejected("keepalive_interval", keepalive,
                            "a positive number of seconds")


@dataclass
class BGPConfig:
    """Daemon-wide configuration; the ranges are checked here too."""

    asn: int
    router_id: IPv4Address
    networks: List[IPv4Prefix] = field(default_factory=list)
    max_paths: int = 1
    advertisement_interval: float = 0.03
    install_routes: bool = True
    sender_side_loop_detection: bool = True

    def __post_init__(self) -> None:
        paths, interval = self.max_paths, self.advertisement_interval
        if not (an_integer(paths) and paths >= 1):
            raise _rejected("max_paths", paths, "an integer >= 1")
        if not (a_number(interval) and interval >= 0):
            raise _rejected("advertisement_interval", interval,
                            "a number of seconds >= 0")


class _PeerState:
    """Internal per-neighbor session state."""

    def __init__(self, config: BGPPeerConfig, adj_rib_in: AdjRIBInTable):
        self.config = config
        self.channel: Optional["ControlChannel"] = None
        self.fsm = SessionFSM(config.peer_name)
        self.adj_rib_in = AdjRIBIn(config.peer_name, adj_rib_in)
        self.adj_rib_out = AdjRIBOut(config.peer_name)
        self.remote_router_id = IPv4Address(0)
        self.last_heard = 0.0
        # The hold time this session runs with: the lower of the two
        # OPENs' offers (RFC 4271 4.2), negotiated again on every OPEN.
        # The configured offer stays as it is.
        self.hold_time = config.hold_time
        # The NEXT_HOP attribute every export to this peer carries
        # (next-hop-self), encoded once for the session's life.
        self.next_hop = next_hop_attribute(config.local_address)
        # prefix -> attributes of the selected route as they sit in the
        # Loc-RIB; the export rewrite happens in _flush.
        self.pending_announce: Dict[IPv4Prefix, PathAttributes] = {}
        self.pending_withdraw: Set[IPv4Prefix] = set()
        self.flush_scheduled = False
        self.keepalive_timer = None
        self.connect_attempt = 0
        self.updates_sent = 0
        self.updates_received = 0


class BGPDaemon:
    """An emulated BGP-4 speaker bound to one simulated router."""

    def __init__(self, router_name: str, config: BGPConfig):
        self.router_name = router_name
        self.name = f"bgpd-{router_name}"
        self.config = config
        self.sim: Optional["Simulation"] = None
        #: Where decoded prefixes, AS paths, next hops and preference
        #: keys are kept.  One daemon alone has its own; the daemons an
        #: experiment sets up share one (set before :meth:`start`).
        self.values = RouteValues()
        self.loc_rib = LocRIB()
        self.adj_rib_in = AdjRIBInTable()
        self.peers: Dict[str, _PeerState] = {}
        # The peers whose sessions are up, in peer order: set again
        # where a session comes up or goes down, and nowhere else.
        self._established: List[_PeerState] = []
        self._channel_to_peer: Dict[int, str] = {}
        self._installed: Set[IPv4Prefix] = set()
        self._local_routes: Dict[IPv4Prefix, RIBRoute] = {}
        # Work counters, see stats().
        self.decisions = 0
        self.selection_changes = 0
        self.exports = 0
        self.fib_installs = 0
        self.fib_withdrawals = 0

    # -- wiring -----------------------------------------------------------------

    def add_peer(self, peer_config: BGPPeerConfig,
                 channel: "ControlChannel") -> None:
        """Register a neighbor and its control channel."""
        if peer_config.peer_name in self.peers:
            raise ControlPlaneError(
                f"{self.name}: duplicate peer {peer_config.peer_name}"
            )
        state = _PeerState(peer_config, self.adj_rib_in)
        state.channel = channel
        self.peers[peer_config.peer_name] = state
        self._channel_to_peer[channel.id] = peer_config.peer_name

    def start(self, sim: "Simulation") -> None:
        """Process hook: originate local networks, arm connect timers."""
        self.sim = sim
        for network in self.config.networks:
            prefix = self.values.network(network)
            route = RIBRoute(
                prefix=prefix,
                attributes=PathAttributes(origin=Origin.IGP, as_path=()),
                peer_name="",
                values=self.values,
            )
            self._local_routes[prefix] = route
            self.loc_rib.set_selection(prefix, route, (route,))
        for state in self.peers.values():
            sim.scheduler.after(
                state.config.connect_delay, _connect, self, state)

    # -- session bring-up ----------------------------------------------------------

    def _connect(self, state: _PeerState) -> None:
        """The modelled TCP connect completing."""
        if state.fsm.state is not BGPState.IDLE:
            return
        now = self._now()
        state.fsm.start(now)
        state.fsm.transport_up(now)
        self._send_open(state)
        # Arm a connect timeout: if this attempt never reaches
        # ESTABLISHED (e.g. the OPEN vanished into a dead link), fall
        # back to IDLE and let the retry timer fire again — otherwise
        # a daemon whose peer was unreachable at connect time would
        # wedge in OPEN_SENT forever.
        if state.config.connect_retry > 0:
            state.connect_attempt += 1
            self._require_sim().scheduler.after(
                state.config.connect_retry, _connect_timeout,
                self, state, state.connect_attempt)

    def _send_open(self, state: _PeerState) -> None:
        self._send(
            state,
            BGPOpen(
                asn=self.config.asn,
                hold_time=int(state.config.hold_time),
                bgp_id=self.config.router_id,
            ),
        )

    # -- channel input ----------------------------------------------------------------

    def receive(self, channel: "ControlChannel", data: bytes, metadata: Any) -> None:
        """Handle bytes from a peer (possibly several messages)."""
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
                # Malformed bytes end the session, as RFC 4271 section 6
                # has it; they must not unwind the event loop.
                self._send(state, BGPNotification(code=error.code))
                self._teardown(state, f"malformed message: {error}")
                return
            self._dispatch(state, message)

    def _dispatch(self, state: _PeerState, message: BGPMessage) -> None:
        if isinstance(message, BGPUpdate):
            if state.fsm.established:
                state.updates_received += 1
                self._handle_update(state, message)
            # Updates before ESTABLISHED are a protocol violation; the
            # reliable channel makes this impossible from our own
            # daemons, so simply ignore.
            return
        now = self._now()
        if isinstance(message, BGPOpen):
            self._handle_open(state, message, now)
        elif isinstance(message, BGPKeepalive):
            was_established = state.fsm.established
            state.fsm.keepalive_received(now)
            if state.fsm.established and not was_established:
                self._on_established(state)
        elif isinstance(message, BGPNotification):
            self._teardown(state, f"notification {message.code}/{message.subcode}")

    def _handle_open(self, state: _PeerState, message: BGPOpen, now: float) -> None:
        if state.fsm.established:
            # RFC 4271 6.6, RFC 6608: a Finite State Machine Error,
            # "unexpected message in Established".
            self._send(state, BGPNotification(code=5, subcode=3))
            self._teardown(state, "OPEN in established")
            return
        if message.asn != state.config.remote_asn:
            self._send(state, BGPNotification(code=2, subcode=2))  # bad peer AS
            self._teardown(state, "bad peer AS")
            return
        if message.hold_time in (1, 2):
            # RFC 4271 6.2: one and two seconds MUST be rejected.
            self._send(state, BGPNotification(code=2, subcode=6))
            self._teardown(state, "unacceptable hold time")
            return
        state.remote_router_id = message.bgp_id
        if state.fsm.state is BGPState.IDLE:
            # Passive side: peer connected before our connect timer, and
            # our OPEN is still owed.
            state.fsm.start(now)
            self._send_open(state)
        state.fsm.open_received(now)
        # Ack the OPEN; hold time is the lower of the two offers.
        state.hold_time = min(state.config.hold_time, float(message.hold_time))
        self._send(state, BGPKeepalive())

    def _on_established(self, state: _PeerState) -> None:
        """Session just came up: arm timers, send the initial table."""
        self._established = [s for s in self.peers.values()
                             if s.fsm.established]
        hold = state.hold_time
        if hold > 0:
            # A hold time of zero arms neither timer (RFC 4271 4.4).
            scheduler = self._require_sim().scheduler
            state.keepalive_timer = scheduler.periodic(
                min(state.config.keepalive_interval, hold / 3.0),
                _send_keepalive, self, state)
            scheduler.after(hold, _check_hold, self, state)
        only = (state,)
        for prefix in self.loc_rib.prefixes():
            best = self.loc_rib.best(prefix)
            if best is not None:
                self._propagate(prefix, best, only)
        self._schedule_flush(state)

    # -- update processing ----------------------------------------------------------------

    def _handle_update(self, state: _PeerState, message: BGPUpdate) -> None:
        # A prefix is decided again unless the Loc-RIB can tell that the
        # change cannot move its selection (LocRIB.holds).
        touched: Set[IPv4Prefix] = set()
        rib_in = state.adj_rib_in
        holds = self.loc_rib.holds
        for prefix in message.withdrawn:
            old = rib_in.withdraw(prefix)
            if old is not None and not holds(prefix, old, None):
                touched.add(prefix)
        if message.nlri:
            attrs = message.attributes
            # A route whose AS path holds our own AS (receiver-side loop
            # check, RFC 4271 9.1.2) or that the import policy denies is
            # not a candidate; it still replaces whatever the peer
            # announced for the prefix before (RFC 4271 9), so it acts
            # as a withdrawal of that route.
            looped = attrs.contains_as(self.config.asn)
            import_policy = state.config.import_policy
            peer_name = state.config.peer_name
            router_id = state.remote_router_id
            values = self.values
            for prefix in message.nlri:
                imported = (None if looped
                            else import_policy.apply(prefix, attrs))
                if imported is None:
                    new = None
                    old = rib_in.withdraw(prefix)
                    if old is None:
                        continue
                else:
                    new = RIBRoute(prefix, imported, peer_name, router_id,
                                   values)
                    old = rib_in.update(new)
                if not holds(prefix, old, new):
                    touched.add(prefix)
        if touched:
            self._reprocess(touched)

    def _reprocess(self, prefixes: Set[IPv4Prefix]) -> None:
        """Re-run the decision process for the given prefixes."""
        # Only established peers hold routes: a teardown empties the
        # peer's slots.
        established = self._established
        slots_of = self.adj_rib_in.slots
        ordered = (sorted(prefixes, key=IPv4Prefix.key)
                   if len(prefixes) > 1 else prefixes)
        max_paths = self.config.max_paths
        for prefix in ordered:
            local = self._local_routes.get(prefix)
            candidates: List[RIBRoute] = [] if local is None else [local]
            slots = slots_of(prefix)
            if slots is not None:
                candidates += filter(None, slots)
            outcome = decide(candidates, max_paths=max_paths)
            self.decisions += 1
            if not self.loc_rib.set_selection(
                    prefix, outcome.best, outcome.multipath):
                continue
            self.selection_changes += 1
            self._program_fib(prefix, outcome)
            self._propagate(prefix, outcome.best, established)

    def _program_fib(self, prefix: IPv4Prefix, outcome: RouteComparison) -> None:
        """Install/withdraw the new selection in the simulated router's FIB."""
        if not self.config.install_routes or self.sim is None:
            return
        best = outcome.best
        if best is None:
            if prefix in self._installed:
                self.sim.cm.withdraw_route(self.router_name, prefix)
                self._installed.discard(prefix)
                self.fib_withdrawals += 1
            return
        if best.is_local:
            return  # connected route; the data plane already has it
        next_hops: List[Tuple[int, IPv4Address]] = []
        for route in outcome.multipath:
            peer = self.peers.get(route.peer_name)
            if peer is None:
                continue
            next_hops.append((peer.config.local_port, peer.config.peer_address))
        if not next_hops:
            return
        self.sim.cm.install_route(self.router_name, prefix, next_hops)
        self._installed.add(prefix)
        self.fib_installs += 1

    def _propagate(self, prefix: IPv4Prefix, best: Optional[RIBRoute],
                   peers: Sequence[_PeerState]) -> None:
        """Queue the new best route, or a withdrawal, towards ``peers``.

        A peer is queued a withdrawal instead when the route came from
        it (no echo), when its AS is on the path already (sender-side
        loop suppression) or when its export policy filters the prefix.
        A surviving announcement records the Loc-RIB attributes as they
        are: most are overwritten or torn down before the flush, so
        :meth:`_flush` rewrites only what goes out.
        """
        if best is None:
            source, attributes, path = None, None, ()
        else:
            source = best.peer_name
            attributes = best.attributes
            path = attributes.as_path
        loop_check = self.config.sender_side_loop_detection
        for state in peers:
            config = state.config
            if (attributes is None or config.peer_name == source
                    or (loop_check and config.remote_asn in path)
                    or not config.export_policy.permits(prefix)):
                # A withdrawal only matters if we advertised the prefix.
                # The Adj-RIB-Out changes in _flush and _teardown only,
                # so this test answers now what it would at the flush.
                state.pending_announce.pop(prefix, None)
                if state.adj_rib_out.advertised(prefix) is not None:
                    state.pending_withdraw.add(prefix)
            else:
                state.pending_withdraw.discard(prefix)
                state.pending_announce[prefix] = attributes
            self._schedule_flush(state)

    def _schedule_flush(self, state: _PeerState) -> None:
        if state.flush_scheduled:
            return
        state.flush_scheduled = True
        self._require_sim().scheduler.after(
            self.config.advertisement_interval, _flush, self, state)

    def _flush(self, state: _PeerState) -> None:
        """Send pending announcements/withdrawals as real UPDATEs."""
        state.flush_scheduled = False
        pending = state.pending_announce
        if not state.fsm.established:
            pending.clear()
            state.pending_withdraw.clear()
            return
        prefix_bytes = self.values.prefix_bytes
        rib_out = state.adj_rib_out

        withdrawn = b"".join([
            prefix_bytes(prefix)
            for prefix in sorted(state.pending_withdraw, key=IPv4Prefix.key)
            if rib_out.record_withdraw(prefix)
        ])
        state.pending_withdraw.clear()

        # Towards one peer every export adds the same prepends and the
        # same next hop, so two exports are equal exactly when their
        # Loc-RIB attributes agree on all but the next hop (the rule
        # AdjRIBOut.record_announce compares by): prefixes are grouped
        # by those, and each group is one UPDATE.
        groups: Dict[tuple, Tuple[PathAttributes, List[bytes]]] = {}
        for prefix in sorted(pending, key=IPv4Prefix.key):
            attrs = pending[prefix]
            if rib_out.record_announce(prefix, attrs):
                self.exports += 1
                key = (attrs.as_path, attrs.origin, attrs.med, attrs.local_pref)
                group = groups.get(key)
                if group is None:
                    groups[key] = (attrs, [prefix_bytes(prefix)])
                else:
                    group[1].append(prefix_bytes(prefix))
        pending.clear()

        channel = state.channel
        if withdrawn and not groups:
            state.updates_sent += 1
            if channel is not None:
                channel.send(self, encode_update(withdrawn, b"", b""))
            return
        asn = self.config.asn
        prepends = 1 + state.config.export_policy.prepend_count
        for attrs, nlri in groups.values():
            state.updates_sent += 1
            if channel is not None:
                channel.send(self, encode_update(
                    withdrawn,
                    encode_attributes(attrs, state.next_hop, asn, prepends),
                    b"".join(nlri)))
            withdrawn = b""

    # -- session teardown ---------------------------------------------------------------------

    def _teardown(self, state: _PeerState, reason: str) -> None:
        """Session reset: flush RIBs, reroute, schedule reconnect."""
        now = self._now()
        state.fsm.session_failed(now, reason)
        if state.keepalive_timer is not None:
            state.keepalive_timer.stop()
            state.keepalive_timer = None
        lost = state.adj_rib_in.clear()
        state.adj_rib_out.clear()
        state.pending_announce.clear()
        state.pending_withdraw.clear()
        self._established = [s for s in self.peers.values()
                             if s.fsm.established]
        if lost:
            self._reprocess(set(lost))
        if state.config.connect_retry > 0:
            self._require_sim().scheduler.after(
                state.config.connect_retry, _connect, self, state)

    def peer_down(self, peer_name: str, reason: str = "admin down") -> None:
        """Externally fail a session (link failure experiments)."""
        state = self.peers.get(peer_name)
        if state is not None:
            self._teardown(state, reason)

    # -- queries -----------------------------------------------------------------------------

    def session_state(self, peer_name: str) -> BGPState:
        """The FSM state toward a peer."""
        return self.peers[peer_name].fsm.state

    def established_sessions(self) -> List[str]:
        """Names of peers with ESTABLISHED sessions."""
        return sorted(
            name for name, state in self.peers.items() if state.fsm.established
        )

    def all_established(self) -> bool:
        """Whether every configured session is up."""
        return all(state.fsm.established for state in self.peers.values())

    def route_count(self) -> int:
        """Number of prefixes in the Loc-RIB."""
        return len(self.loc_rib)

    def stats(self) -> dict:
        """Counters for tests and benches."""
        return {
            "peers": len(self.peers),
            "established": len(self.established_sessions()),
            "loc_rib": len(self.loc_rib),
            "updates_sent": sum(s.updates_sent for s in self.peers.values()),
            "updates_received": sum(s.updates_received for s in self.peers.values()),
            "decisions": self.decisions,
            "selection_changes": self.selection_changes,
            "exports": self.exports,
            "fib_installs": self.fib_installs,
            "fib_withdrawals": self.fib_withdrawals,
        }

    # -- plumbing -------------------------------------------------------------------------------

    def _send(self, state: _PeerState, message: BGPMessage) -> None:
        if state.channel is not None:
            state.channel.send(self, message.encode())

    def _now(self) -> float:
        return self.sim.clock.now if self.sim is not None else 0.0

    def _require_sim(self) -> "Simulation":
        if self.sim is None:
            raise ControlPlaneError(f"{self.name} is not attached to a simulation")
        return self.sim

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BGPDaemon {self.name} AS{self.config.asn} "
            f"peers={len(self.peers)} routes={len(self.loc_rib)}>"
        )


# -- scheduled actions ---------------------------------------------------------------
#
# The session timers.  Module functions taking their operands, not
# closures: arming one is one CallbackEvent (docs/control_plane.md, "What
# a scheduled action costs"), and each looks the daemon's methods up when
# it fires.

def _connect(daemon: BGPDaemon, state: _PeerState) -> None:
    daemon._connect(state)


def _connect_timeout(daemon: BGPDaemon, state: _PeerState,
                     attempt: int) -> None:
    if (state.connect_attempt == attempt
            and not state.fsm.established
            and state.fsm.state is not BGPState.IDLE):
        daemon._teardown(state, "connect attempt timed out")


def _send_keepalive(daemon: BGPDaemon, state: _PeerState) -> None:
    if state.fsm.established:
        daemon._send(state, BGPKeepalive())


def _check_hold(daemon: BGPDaemon, state: _PeerState) -> None:
    # The session's hold time is read here, not when the check was
    # armed: a check armed by an earlier session of this peer can still
    # be pending, and must not enforce that session's hold time.
    hold = state.hold_time
    if hold <= 0 or state.fsm.state is BGPState.IDLE:
        return
    silent_for = daemon._now() - state.last_heard
    # Epsilon guards against float rounding: a remaining delay of
    # ~1e-16 s would reschedule at the *same* simulated instant and
    # spin the event loop forever.
    if silent_for >= hold - 1e-9:
        daemon._send(state, BGPNotification(code=4))  # hold timer expired
        daemon._teardown(state, "hold timer expired")
    else:
        daemon._require_sim().scheduler.after(
            max(hold - silent_for, 0.001), _check_hold, daemon, state)


def _flush(daemon: BGPDaemon, state: _PeerState) -> None:
    daemon._flush(state)
