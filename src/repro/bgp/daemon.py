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
from typing import Any, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

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
    decode_bgp_stream,
)
from repro.bgp.policy import ExportPolicy, ImportPolicy
from repro.bgp.rib import AdjRIBIn, AdjRIBOut, LocRIB, RIBRoute
from repro.core.errors import ControlPlaneError
from repro.netproto.addr import IPv4Address, IPv4Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.connection_manager import ControlChannel
    from repro.core.simulation import Simulation


@dataclass
class BGPPeerConfig:
    """One eBGP neighbor.

    ``local_port``/``peer_address`` tie the session to the data plane:
    routes learned from this peer are installed with that egress port
    and gateway.
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


@dataclass
class BGPConfig:
    """Daemon-wide configuration."""

    asn: int
    router_id: IPv4Address
    networks: List[IPv4Prefix] = field(default_factory=list)
    max_paths: int = 1
    advertisement_interval: float = 0.03
    install_routes: bool = True
    sender_side_loop_detection: bool = True


class _PeerState:
    """Internal per-neighbor session state."""

    def __init__(self, config: BGPPeerConfig):
        self.config = config
        self.channel: Optional["ControlChannel"] = None
        self.fsm = SessionFSM(config.peer_name)
        self.adj_rib_in = AdjRIBIn(config.peer_name)
        self.adj_rib_out = AdjRIBOut(config.peer_name)
        self.remote_router_id = IPv4Address(0)
        self.open_sent = False
        self.last_heard = 0.0
        # prefix -> attributes of the selected route as they sit in the
        # Loc-RIB; the export rewrite happens in _flush.
        self.pending_announce: Dict[IPv4Prefix, PathAttributes] = {}
        self.pending_withdraw: Set[IPv4Prefix] = set()
        self.flush_scheduled = False
        self.keepalive_timer = None
        self.hold_wakeup = None
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
        self.loc_rib = LocRIB()
        self.peers: Dict[str, _PeerState] = {}
        self._channel_to_peer: Dict[int, str] = {}
        self._installed: Set[IPv4Prefix] = set()
        self._local_routes: Dict[IPv4Prefix, RIBRoute] = {}
        # Work counters, see stats().
        self.decisions = 0
        self.selection_changes = 0
        self.exports = 0
        self.fib_installs = 0
        self.fib_withdrawals = 0
        for prefix in config.networks:
            route = RIBRoute(
                prefix=prefix,
                attributes=PathAttributes(origin=Origin.IGP, as_path=()),
                peer_name="",
            )
            self._local_routes[prefix] = route

    # -- wiring -----------------------------------------------------------------

    def add_peer(self, peer_config: BGPPeerConfig,
                 channel: "ControlChannel") -> None:
        """Register a neighbor and its control channel."""
        if peer_config.peer_name in self.peers:
            raise ControlPlaneError(
                f"{self.name}: duplicate peer {peer_config.peer_name}"
            )
        state = _PeerState(peer_config)
        state.channel = channel
        self.peers[peer_config.peer_name] = state
        self._channel_to_peer[channel.id] = peer_config.peer_name

    def start(self, sim: "Simulation") -> None:
        """Process hook: originate local networks, arm connect timers."""
        self.sim = sim
        for prefix, route in self._local_routes.items():
            self.loc_rib.set_selection(prefix, route, (route,))
        for state in self.peers.values():
            sim.scheduler.after(
                state.config.connect_delay,
                lambda s=state: self._connect(s),
                label=f"{self.name} connect {state.config.peer_name}",
            )

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
            attempt = state.connect_attempt

            def attempt_timeout() -> None:
                if (state.connect_attempt == attempt
                        and not state.fsm.established
                        and state.fsm.state is not BGPState.IDLE):
                    self._teardown(state, "connect attempt timed out")

            self._require_sim().scheduler.after(
                state.config.connect_retry, attempt_timeout,
                label=f"{self.name} connect timeout {state.config.peer_name}",
            )

    def _send_open(self, state: _PeerState) -> None:
        state.open_sent = True
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
                message, rest = decode_bgp_stream(rest)
            except BGPDecodeError as error:
                # Malformed bytes end the session, as RFC 4271 section 6
                # has it; they must not unwind the event loop.
                self._send(state, BGPNotification(code=error.code))
                self._teardown(state, f"malformed message: {error}")
                return
            self._dispatch(state, message)

    def _dispatch(self, state: _PeerState, message: BGPMessage) -> None:
        now = self._now()
        if isinstance(message, BGPOpen):
            self._handle_open(state, message, now)
        elif isinstance(message, BGPKeepalive):
            was_established = state.fsm.established
            state.fsm.keepalive_received(now)
            if state.fsm.established and not was_established:
                self._on_established(state)
        elif isinstance(message, BGPUpdate):
            if state.fsm.established:
                state.updates_received += 1
                self._handle_update(state, message)
            # Updates before ESTABLISHED are a protocol violation; the
            # reliable channel makes this impossible from our own
            # daemons, so simply ignore.
        elif isinstance(message, BGPNotification):
            self._teardown(state, f"notification {message.code}/{message.subcode}")

    def _handle_open(self, state: _PeerState, message: BGPOpen, now: float) -> None:
        if message.asn != state.config.remote_asn:
            self._send(state, BGPNotification(code=2, subcode=2))  # bad peer AS
            self._teardown(state, "bad peer AS")
            return
        state.remote_router_id = message.bgp_id
        if state.fsm.state is BGPState.IDLE:
            # Passive side: peer connected before our connect timer.
            state.fsm.start(now)
        if not state.open_sent:
            self._send_open(state)
        state.fsm.open_received(now)
        # Ack the OPEN; hold time is the lower of the two offers.
        state.config.hold_time = min(state.config.hold_time, float(message.hold_time))
        self._send(state, BGPKeepalive())

    def _on_established(self, state: _PeerState) -> None:
        """Session just came up: arm timers, send the initial table."""
        sim = self._require_sim()
        interval = min(
            state.config.keepalive_interval, max(state.config.hold_time / 3.0, 0.001)
        )
        state.keepalive_timer = sim.scheduler.periodic(
            interval,
            lambda s=state: self._send_keepalive(s),
            label=f"{self.name} keepalive {state.config.peer_name}",
        )
        self._arm_hold_timer(state)
        for prefix in self.loc_rib.prefixes():
            best = self.loc_rib.best(prefix)
            if best is not None:
                self._queue_announce(state, prefix, best)
        self._schedule_flush(state)

    def _send_keepalive(self, state: _PeerState) -> None:
        if state.fsm.established:
            self._send(state, BGPKeepalive())

    def _arm_hold_timer(self, state: _PeerState) -> None:
        sim = self._require_sim()
        hold = state.config.hold_time
        if hold <= 0:
            return

        def check() -> None:
            if not state.fsm.established and state.fsm.state is BGPState.IDLE:
                return
            now = self._now()
            silent_for = now - state.last_heard
            # Epsilon guards against float rounding: a remaining delay
            # of ~1e-16 s would reschedule at the *same* simulated
            # instant and spin the event loop forever.
            if silent_for >= hold - 1e-9:
                self._send(state, BGPNotification(code=4))  # hold timer expired
                self._teardown(state, "hold timer expired")
            else:
                state.hold_wakeup = sim.scheduler.after(
                    max(hold - silent_for, 0.001), check,
                    label=f"{self.name} hold check",
                )

        state.hold_wakeup = sim.scheduler.after(hold, check,
                                                label=f"{self.name} hold check")

    # -- update processing ----------------------------------------------------------------

    def _handle_update(self, state: _PeerState, message: BGPUpdate) -> None:
        touched: Set[IPv4Prefix] = set()
        for prefix in message.withdrawn:
            if state.adj_rib_in.withdraw(prefix):
                touched.add(prefix)
        if message.nlri:
            if message.attributes is None:
                raise ControlPlaneError("UPDATE with NLRI but no attributes")
            attrs = message.attributes
            if attrs.contains_as(self.config.asn):
                # AS-path loop: reject silently (receiver-side check).
                pass
            else:
                for prefix in message.nlri:
                    imported = state.config.import_policy.apply(prefix, attrs)
                    if imported is None:
                        continue
                    state.adj_rib_in.update(
                        RIBRoute(
                            prefix=prefix,
                            attributes=imported,
                            peer_name=state.config.peer_name,
                            peer_router_id=state.remote_router_id,
                        )
                    )
                    touched.add(prefix)
        if touched:
            self._reprocess(touched)

    def _reprocess(self, prefixes: Set[IPv4Prefix]) -> None:
        """Re-run the decision process for the given prefixes."""
        # Sessions neither come up nor go down inside this call, so the
        # established peers are gathered once for every prefix below.
        established = [s for s in self.peers.values() if s.fsm.established]
        lookups = [state.adj_rib_in.get for state in established]
        ordered = (sorted(prefixes, key=IPv4Prefix.key)
                   if len(prefixes) > 1 else prefixes)
        max_paths = self.config.max_paths
        for prefix in ordered:
            candidates: List[RIBRoute] = []
            local = self._local_routes.get(prefix)
            if local is not None:
                candidates.append(local)
            for lookup in lookups:
                route = lookup(prefix)
                if route is not None:
                    candidates.append(route)
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
                   established: List[_PeerState]) -> None:
        """Queue announcements/withdrawals of the new best to all peers."""
        for state in established:
            if best is None:
                self._queue_withdraw(state, prefix)
            else:
                self._queue_announce(state, prefix, best)
            self._schedule_flush(state)

    def _queue_announce(self, state: _PeerState, prefix: IPv4Prefix,
                        best: RIBRoute) -> None:
        # Do not echo a route back to the peer it came from.
        if best.peer_name == state.config.peer_name:
            self._queue_withdraw(state, prefix)
            return
        # Sender-side AS-loop suppression: pointless to announce a path
        # already containing the peer's AS.
        if (
            self.config.sender_side_loop_detection
            and state.config.remote_asn in best.attributes.as_path
        ):
            self._queue_withdraw(state, prefix)
            return
        if not state.config.export_policy.permits(prefix):
            self._queue_withdraw(state, prefix)
            return
        # Most queued announcements are overwritten or torn down before
        # the flush, so only the route's own attributes are recorded
        # here; _flush rewrites the survivors.
        state.pending_withdraw.discard(prefix)
        state.pending_announce[prefix] = best.attributes

    def _queue_withdraw(self, state: _PeerState, prefix: IPv4Prefix) -> None:
        # Only meaningful if we actually advertised it (or are about to).
        # The Adj-RIB-Out changes in _flush and _teardown only, so this
        # test answers now what it would answer at the flush.
        state.pending_announce.pop(prefix, None)
        if state.adj_rib_out.advertised(prefix) is not None:
            state.pending_withdraw.add(prefix)

    def _export(self, state: _PeerState,
                attributes: PathAttributes) -> PathAttributes:
        """What a peer is told about a route: the export policy's extra
        prepends, the eBGP prepend of our own AS and next-hop-self."""
        self.exports += 1
        copies = 1 + state.config.export_policy.prepend_count
        return PathAttributes(
            origin=attributes.origin,
            as_path=(self.config.asn,) * copies + attributes.as_path,
            next_hop=state.config.local_address,
            med=attributes.med,
            local_pref=attributes.local_pref,
        )

    def _schedule_flush(self, state: _PeerState) -> None:
        if state.flush_scheduled:
            return
        state.flush_scheduled = True
        self._require_sim().scheduler.after(
            self.config.advertisement_interval,
            lambda s=state: self._flush(s),
            label=f"{self.name} flush {state.config.peer_name}",
        )

    def _flush(self, state: _PeerState) -> None:
        """Send pending announcements/withdrawals as real UPDATEs."""
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
            update = BGPUpdate(
                withdrawn=withdrawals if first else [],
                attributes=attrs,
                nlri=prefixes,
            )
            first = False
            state.updates_sent += 1
            self._send(state, update)

    # -- session teardown ---------------------------------------------------------------------

    def _teardown(self, state: _PeerState, reason: str) -> None:
        """Session reset: flush RIBs, reroute, schedule reconnect."""
        now = self._now()
        state.fsm.session_failed(now, reason)
        state.open_sent = False
        if state.keepalive_timer is not None:
            state.keepalive_timer.stop()
            state.keepalive_timer = None
        lost = state.adj_rib_in.clear()
        state.adj_rib_out.clear()
        state.pending_announce.clear()
        state.pending_withdraw.clear()
        if lost:
            self._reprocess(set(lost))
        if state.config.connect_retry > 0:
            self._require_sim().scheduler.after(
                state.config.connect_retry,
                lambda s=state: self._connect(s),
                label=f"{self.name} reconnect {state.config.peer_name}",
            )

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
