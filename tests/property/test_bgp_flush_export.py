"""Differential test: flush-time export against eager export.

The daemon records the selected route's own attributes when it queues
an announcement and rewrites them (export policy prepends, own-AS
prepend, next-hop-self) in ``_flush``.  Before that it rewrote them in
``_queue_announce``, every time, although most queued announcements
are replaced or torn down before the advertisement interval runs out.

:class:`EagerExportDaemon` is that earlier behaviour, kept here as the
reference, on :class:`bgp_reference.SendPathReference`: the send path of
its time, which builds a ``BGPUpdate`` per message and encodes it with a
copy of the encoder of its time, so the shipped encoder is checked
against code it does not share.  Both daemons are driven through the same random history —
UPDATEs that move the best route, withdrawals, session teardowns and
re-establishments, flushes — under non-trivial export policies, and
everything either of them puts on a wire must be byte-identical.
"""

from hypothesis import given, settings, strategies as st

from bgp_reference import SendPathReference, exported
from repro.bgp.daemon import BGPConfig, BGPDaemon, BGPPeerConfig
from repro.bgp.messages import BGPUpdate, Origin, PathAttributes
from repro.bgp.policy import ExportPolicy
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.netproto.addr import IPv4Address, IPv4Prefix

OWN_ASN = 65000
PEER_ASNS = (65001, 65002, 65003, 65004)
# Few prefixes, so that histories revisit them: announced, flushed,
# withdrawn and announced again before the next flush is the kind of
# sequence where queue-time and flush-time state could disagree.
PREFIXES = [IPv4Prefix("10.0.0.0/16"), IPv4Prefix("10.1.0.0/16"),
            IPv4Prefix("10.1.128.0/17"), IPv4Prefix("192.168.7.0/24")]


class EagerExportDaemon(SendPathReference):
    """Export as it was before flush-time export: the full rewrite at
    queue time, the finished attributes parked in ``pending_announce``."""

    def _queue_announce(self, state, prefix, best):
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
        self.exports += 1
        state.pending_withdraw.discard(prefix)
        state.pending_announce[prefix] = exported(self, state, best.attributes)

    def _export(self, state, attributes):
        return attributes  # rewritten when it was queued


class Wire:
    """Stands in for a control channel: keeps what the daemon sends."""

    def __init__(self, channel_id):
        self.id = channel_id
        self.sent = []

    def send(self, sender, data):
        self.sent.append(data)


def build(daemon_class, policies, loop_detection):
    """A daemon with one peer per policy, attached to a simulation whose
    events never run: the test fires the flushes itself."""
    daemon = daemon_class("r0", BGPConfig(
        asn=OWN_ASN, router_id=IPv4Address("9.9.9.9"),
        networks=[PREFIXES[0]], max_paths=2, install_routes=False,
        sender_side_loop_detection=loop_detection))
    wires = []
    for index, policy in enumerate(policies):
        wire = Wire(index)
        wires.append(wire)
        daemon.add_peer(BGPPeerConfig(
            peer_name=f"p{index}", remote_asn=PEER_ASNS[index], local_port=index + 1,
            peer_address=IPv4Address(f"172.16.{index}.2"),
            local_address=IPv4Address(f"172.16.{index}.1"),
            hold_time=0.0, connect_retry=0.0,
            export_policy=ExportPolicy(**policy)), wire)
    daemon.start(Simulation(SimulationConfig()))
    return daemon, wires


def establish(daemon, state):
    if state.fsm.established:
        return
    fsm = state.fsm
    fsm.start(0.0)
    fsm.transport_up(0.0)
    fsm.open_received(0.0)
    fsm.keepalive_received(0.0)
    state.remote_router_id = IPv4Address(f"2.2.2.{state.config.local_port}")
    daemon._on_established(state)


def apply(daemon, op):
    kind, peer, payload = op
    state = daemon.peers[f"p{peer}"]
    if kind == "establish":
        establish(daemon, state)
    elif kind == "teardown":
        daemon._teardown(state, "test")
    elif kind == "flush":
        daemon._flush(state)
    elif state.fsm.established:  # "update"
        daemon._handle_update(state, payload)


policies = st.fixed_dictionaries({
    "deny_prefixes": st.lists(st.sampled_from(PREFIXES), max_size=1),
    "allow_only": st.none() | st.lists(st.sampled_from(PREFIXES),
                                       min_size=2, max_size=4),
    "prepend_count": st.integers(0, 3),
})

attributes = st.builds(
    PathAttributes,
    origin=st.sampled_from(list(Origin)),
    # Short paths over a few ASNs: best routes change often, and paths
    # through another peer's AS trip the sender-side loop check.  Now
    # and then a path of 125-128 ASNs: with the export's prepends it
    # lands on either side of 127 hops, where the AS_PATH attribute
    # needs the extended-length header.
    as_path=st.lists(st.sampled_from(PEER_ASNS + (64512, 64513)),
                     min_size=1, max_size=4).map(tuple)
    | st.integers(125, 128).map(lambda hops: (65002,) + (64512,) * (hops - 1)),
    next_hop=st.just(IPv4Address("172.16.9.9")),
    med=st.none() | st.integers(0, 2),
    local_pref=st.none() | st.sampled_from((50, 100, 200)),
)

updates = st.builds(
    BGPUpdate,
    withdrawn=st.lists(st.sampled_from(PREFIXES), max_size=1),
    attributes=attributes,
    nlri=st.lists(st.sampled_from(PREFIXES), min_size=1, max_size=3,
                  unique=True),
) | st.builds(
    BGPUpdate,
    withdrawn=st.lists(st.sampled_from(PREFIXES), min_size=1, max_size=2,
                       unique=True))


def operations(peers):
    peer = st.integers(0, peers - 1)
    # Repeated entries weight the draw: mostly updates, flushes often
    # enough that Adj-RIB-Out fills, session resets now and then.  Long
    # histories, because the interesting ones revisit a (peer, prefix).
    return st.lists(st.one_of(
        st.tuples(st.just("update"), peer, updates),
        st.tuples(st.just("update"), peer, updates),
        st.tuples(st.just("update"), peer, updates),
        st.tuples(st.just("flush"), peer, st.none()),
        st.tuples(st.just("flush"), peer, st.none()),
        st.tuples(st.just("teardown"), peer, st.none()),
        st.tuples(st.just("establish"), peer, st.none()),
    ), min_size=20, max_size=60)


def run_both(peer_policies, loop_detection, history):
    """Drive the daemon and the eager reference through one history,
    comparing every wire after every step."""
    lazy, lazy_wires = build(BGPDaemon, peer_policies, loop_detection)
    eager, eager_wires = build(EagerExportDaemon, peer_policies, loop_detection)
    for daemon in (lazy, eager):
        for state in daemon.peers.values():
            establish(daemon, state)
    # Whatever is still pending goes out at the end.
    history = history + [("flush", peer, None)
                         for peer in range(len(peer_policies))]
    for op in history:
        apply(lazy, op)
        apply(eager, op)
        for ours, theirs in zip(lazy_wires, eager_wires):
            assert ours.sent == theirs.sent, op

    # The point of the change: the rewrite ran once per advertised
    # (peer, prefix), not once per queued one.
    assert lazy.exports <= eager.exports
    # The Adj-RIB-Out keeps the attributes an advertisement was made
    # from; exported, they are what the reference kept.
    for name, state in lazy.peers.items():
        other = eager.peers[name].adj_rib_out
        assert state.adj_rib_out.prefixes() == other.prefixes()
        for prefix in other.prefixes():
            assert (exported(lazy, state, state.adj_rib_out.advertised(prefix))
                    == other.advertised(prefix))
    return lazy_wires


@given(data=st.data(),
       peer_policies=st.lists(policies, min_size=2, max_size=4),
       loop_detection=st.booleans())
@settings(max_examples=120, deadline=None)
def test_every_flush_sends_the_bytes_eager_export_sent(
        data, peer_policies, loop_detection):
    run_both(peer_policies, loop_detection,
             data.draw(operations(len(peer_policies))))


def test_withdrawn_and_reannounced_between_two_flushes():
    """Advertised, then withdrawn and announced again before the next
    flush: the queued withdrawal must be cancelled, not sent."""
    open_policy = {"deny_prefixes": [], "allow_only": None, "prepend_count": 1}
    attrs = PathAttributes(as_path=(65002,), next_hop=IPv4Address("172.16.9.9"))
    prefix = PREFIXES[1]
    wires = run_both([open_policy, open_policy], True, [
        ("update", 1, BGPUpdate(attributes=attrs, nlri=[prefix])),
        ("flush", 0, None),
        ("update", 1, BGPUpdate(withdrawn=[prefix])),
        ("update", 1, BGPUpdate(attributes=attrs, nlri=[prefix])),
        ("flush", 0, None),
        ("teardown", 1, None),
        ("establish", 1, None),
        ("update", 1, BGPUpdate(attributes=attrs, nlri=[prefix])),
    ])
    # p0 heard the local network and the prefix, once each: both
    # withdrawals (the explicit one, the teardown's) were cancelled by
    # an identical re-announcement before a flush could send them.
    assert len(wires[0].sent) == 2


def test_the_history_is_not_vacuous():
    """A hand-written history in which deny, prepend and an overwritten
    announcement all bite — so the property above compares UPDATEs that
    exist."""
    peer_policies = [
        {"deny_prefixes": [PREFIXES[1]], "allow_only": None, "prepend_count": 2},
        {"deny_prefixes": [], "allow_only": None, "prepend_count": 0},
    ]
    daemon, wires = build(BGPDaemon, peer_policies, True)
    for state in daemon.peers.values():
        establish(daemon, state)
    long_path = PathAttributes(as_path=(65002, 64512, 64513),
                               next_hop=IPv4Address("172.16.9.9"))
    short_path = PathAttributes(as_path=(65002,),
                                next_hop=IPv4Address("172.16.9.9"))
    for attrs in (long_path, short_path):  # the second overwrites the first
        apply(daemon, ("update", 1, BGPUpdate(
            attributes=attrs, nlri=[PREFIXES[1], PREFIXES[3]])))
    for peer in (0, 1):
        apply(daemon, ("flush", peer, None))

    from repro.bgp.messages import decode_bgp_message
    to_p0 = [decode_bgp_message(wire) for wire in wires[0].sent]
    announced = {prefix: update.attributes
                 for update in to_p0 for prefix in update.nlri}
    assert PREFIXES[1] not in announced            # denied towards p0
    assert announced[PREFIXES[3]].as_path == (OWN_ASN,) * 3 + (65002,)
    assert announced[PREFIXES[3]].next_hop == IPv4Address("172.16.0.1")
    assert announced[PREFIXES[0]].as_path == (OWN_ASN,) * 3   # local network
    # Split horizon: p1 hears only the local network.
    to_p1 = [decode_bgp_message(wire) for wire in wires[1].sent]
    assert {p for update in to_p1 for p in update.nlri} == {PREFIXES[0]}
    # Two best-route changes per prefix were queued towards p0, one
    # export per surviving (peer, prefix) was computed.
    assert daemon.exports == 3
