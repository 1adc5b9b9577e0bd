"""Differential test: the shipped BGP RIBs against the per-peer reference.

The daemon keeps one Adj-RIB-In entry per prefix (a slot per peer) and
an Adj-RIB-Out of the attributes each advertisement was made from, and
skips a decision that cannot change the selection (``LocRIB.holds``);
:class:`bgp_reference.ProbingDaemon` probes a dict per peer, keeps
exported copies and decides every prefix an UPDATE touches.  Both are
driven through one random history of UPDATE bytes, withdrawals, session
teardowns and re-establishments and flushes, under import and export
policies and ``max_paths`` 1-4, and must agree after every step on the
Loc-RIB (best route and multipath order), the FIB installs and every
byte either puts on a wire.  The shipped daemon never decides more
often than the reference.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from bgp_reference import ProbingDaemon
from repro.bgp.daemon import BGPConfig, BGPDaemon, BGPPeerConfig
from repro.bgp.messages import (
    BGPUpdate, Origin, PathAttributes, decode_bgp_message)
from repro.bgp.policy import ExportPolicy, ImportPolicy
from repro.bgp.rib import LocRIB
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.netproto.addr import IPv4Address, IPv4Prefix

OWN_ASN = 65000
PEER_ASNS = (65001, 65002, 65003, 65004)
PREFIXES = [IPv4Prefix("10.0.0.0/16"), IPv4Prefix("10.1.0.0/16"),
            IPv4Prefix("10.1.128.0/17"), IPv4Prefix("192.168.7.0/24")]
# Two next hops: a best route can change in its next hop alone, which
# the Adj-RIB-Out must not re-announce (next-hop-self erases it).
NEXT_HOPS = (IPv4Address("172.16.9.9"), IPv4Address("172.16.9.10"))


class Wire:
    """Stands in for a control channel: keeps what the daemon sends."""

    def __init__(self, channel_id):
        self.id = channel_id
        self.sent = []

    def send(self, sender, data):
        self.sent.append(data)


class FibLog:
    """Stands in for the Connection Manager: logs FIB programming."""

    def __init__(self):
        self.calls = []

    def install_route(self, node, prefix, next_hops):
        self.calls.append(("install", prefix, tuple(next_hops)))

    def withdraw_route(self, node, prefix):
        self.calls.append(("withdraw", prefix))


def build(daemon_class, peers, max_paths):
    daemon = daemon_class("r0", BGPConfig(
        asn=OWN_ASN, router_id=IPv4Address("9.9.9.9"),
        networks=[PREFIXES[0]], max_paths=max_paths))
    wires = []
    for index, (import_policy, export_policy) in enumerate(peers):
        wire = Wire(index)
        wires.append(wire)
        daemon.add_peer(BGPPeerConfig(
            peer_name=f"p{index}", remote_asn=PEER_ASNS[index],
            local_port=index + 1,
            peer_address=IPv4Address(f"172.16.{index}.2"),
            local_address=IPv4Address(f"172.16.{index}.1"),
            hold_time=0.0, connect_retry=0.0,
            import_policy=ImportPolicy(**import_policy),
            export_policy=ExportPolicy(**export_policy)), wire)
    sim = Simulation(SimulationConfig())
    sim.cm = FibLog()
    daemon.start(sim)
    return daemon, wires


def establish(daemon, state):
    if state.fsm.established:
        return
    fsm = state.fsm
    fsm.start(0.0)
    fsm.transport_up(0.0)
    fsm.open_received(0.0)
    fsm.keepalive_received(0.0)
    # Peers 0 and 1 share a router id: their tie falls to the name.
    state.remote_router_id = IPv4Address(
        f"2.2.2.{max(state.config.local_port, 2)}")
    daemon._on_established(state)


def apply(daemon, wires, op):
    kind, peer, payload = op
    state = daemon.peers[f"p{peer}"]
    if kind == "establish":
        establish(daemon, state)
    elif kind == "teardown":
        daemon._teardown(state, "test")
    elif kind == "flush":
        daemon._flush(state)
    else:  # "update": the bytes, as the peer would send them
        daemon.receive(wires[peer], payload, None)


import_policies = st.fixed_dictionaries({
    "deny_prefixes": st.lists(st.sampled_from(PREFIXES[1:]), max_size=1),
    "allow_only": st.none(),
    "set_local_pref": st.none() | st.sampled_from((50, 200)),
    "set_med": st.none() | st.integers(0, 2),
})

export_policies = st.fixed_dictionaries({
    "deny_prefixes": st.lists(st.sampled_from(PREFIXES), max_size=1),
    "allow_only": st.none() | st.lists(st.sampled_from(PREFIXES),
                                       min_size=2, max_size=4),
    "prepend_count": st.integers(0, 2),
})

# Few paths, so that routes to a prefix often differ in one attribute
# alone, and some through a peer's AS (the sender-side loop check).  The
# two long ones sit either side of 127 ASNs once exported, where the
# AS_PATH attribute needs the extended-length header.
attributes = st.builds(
    PathAttributes,
    origin=st.sampled_from(list(Origin)),
    as_path=st.sampled_from([(64512,), (65002, 64512), (65001, 64513),
                             (64513, 64512, 64513), (64513,) * 125,
                             (65002,) + (64512,) * 126]),
    next_hop=st.sampled_from(NEXT_HOPS),
    med=st.none() | st.integers(0, 1),
    local_pref=st.none() | st.sampled_from((100, 200)),
)

updates = (st.builds(
    BGPUpdate,
    withdrawn=st.lists(st.sampled_from(PREFIXES), max_size=1),
    attributes=attributes,
    nlri=st.lists(st.sampled_from(PREFIXES), min_size=1, max_size=3,
                  unique=True),
) | st.builds(
    BGPUpdate,
    withdrawn=st.lists(st.sampled_from(PREFIXES), min_size=1, max_size=2,
                       unique=True))).map(lambda update: update.encode())


def operations(peers):
    peer = st.integers(0, peers - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("update"), peer, updates),
        st.tuples(st.just("update"), peer, updates),
        st.tuples(st.just("update"), peer, updates),
        st.tuples(st.just("flush"), peer, st.none()),
        st.tuples(st.just("flush"), peer, st.none()),
        st.tuples(st.just("teardown"), peer, st.none()),
        st.tuples(st.just("establish"), peer, st.none()),
    ), min_size=20, max_size=60)


def assert_same_selection(ours, theirs):
    assert ours.loc_rib.prefixes() == theirs.loc_rib.prefixes()
    for prefix in theirs.loc_rib.prefixes():
        assert ours.loc_rib.best(prefix) == theirs.loc_rib.best(prefix)
        assert ours.loc_rib.multipath(prefix) == theirs.loc_rib.multipath(prefix)


def run_both(peers, max_paths, history, daemon_class=BGPDaemon):
    ours, our_wires = build(daemon_class, peers, max_paths)
    theirs, their_wires = build(ProbingDaemon, peers, max_paths)
    for daemon in (ours, theirs):
        for state in daemon.peers.values():
            establish(daemon, state)
    history = history + [("flush", peer, None) for peer in range(len(peers))]
    for op in history:
        apply(ours, our_wires, op)
        apply(theirs, their_wires, op)
        assert_same_selection(ours, theirs)
        assert ours.sim.cm.calls == theirs.sim.cm.calls, op
        for mine, other in zip(our_wires, their_wires):
            assert mine.sent == other.sent, op
    for name, state in ours.peers.items():
        other = theirs.peers[name]
        assert state.adj_rib_in.routes() == other.adj_rib_in.routes()
        assert len(state.adj_rib_in) == len(other.adj_rib_in)
        assert state.adj_rib_out.prefixes() == other.adj_rib_out.prefixes()
    assert ours.decisions <= theirs.decisions
    assert ours.selection_changes == theirs.selection_changes
    return ours, our_wires, theirs


@given(data=st.data(),
       peers=st.lists(st.tuples(import_policies, export_policies),
                      min_size=2, max_size=4),
       max_paths=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_the_rib_tables_agree_with_per_peer_probing(data, peers, max_paths):
    run_both(peers, max_paths, data.draw(operations(len(peers))))


OPEN = ({"deny_prefixes": [], "allow_only": None, "set_local_pref": None,
         "set_med": None},
        {"deny_prefixes": [], "allow_only": None, "prepend_count": 0})


ONE_ATTRIBUTE = [
    ("next_hop", {"next_hop": NEXT_HOPS[1]}, 0),
    ("origin", {"origin": Origin.EGP}, 1),
    ("med", {"med": 1}, 1),
    ("local_pref", {"local_pref": 200}, 1),
    ("med_and_local_pref", {"med": 1, "local_pref": 200}, 1),
    ("as_path", {"as_path": (64513,)}, 1),
]


@pytest.mark.parametrize("change, updates, together", [
    pytest.param(change, updates, together,
                 id=name + ("_one_flush" if together else ""))
    for together in (False, True) for name, change, updates in ONE_ATTRIBUTE])
def test_a_new_best_is_announced_when_its_export_differs(
        change, updates, together):
    """Two best routes that differ in one attribute: one replacing the
    other for a prefix, or each the best of a prefix pending in the same
    flush.  A next hop alone is erased by next-hop-self, so p0 hears
    nothing new (the two prefixes share an UPDATE); any other attribute
    reaches p0 in one more UPDATE."""
    first = PathAttributes(as_path=(64512,), next_hop=NEXT_HOPS[0])
    second = dataclasses.replace(first, **change)
    if together:
        prefix = PREFIXES[2]
        history = [
            ("update", 1, BGPUpdate(attributes=first,
                                    nlri=[PREFIXES[3]]).encode()),
            ("update", 1, BGPUpdate(attributes=second, nlri=[prefix]).encode()),
            ("flush", 0, None),
        ]
    else:
        prefix = PREFIXES[3]
        history = [
            ("update", 1, BGPUpdate(attributes=first, nlri=[prefix]).encode()),
            ("flush", 0, None),
            ("update", 1, BGPUpdate(attributes=second, nlri=[prefix]).encode()),
            ("flush", 0, None),
        ]
    ours, wires, __ = run_both([OPEN, OPEN], 2, history)
    assert ours.loc_rib.best(prefix).attributes == second
    # The local network and the first best, then the second if at all.
    assert len(wires[0].sent) == 2 + updates


@pytest.mark.parametrize("refusal", ["looped", "import-denied"])
def test_a_refused_announcement_withdraws_the_peers_earlier_route(refusal):
    """p0 announces a prefix, then announces it again with a route the
    daemon refuses: its AS path holds the daemon's own AS, or p0's
    import policy now denies the prefix.  A new route for an NLRI
    replaces the peer's old one (RFC 4271 9) and a refused one is no
    candidate (9.1.2), so the old route leaves the Adj-RIB-In, the
    Loc-RIB and the FIB, and p1 is told to withdraw it."""
    prefix = PREFIXES[1]
    daemon, wires = build(BGPDaemon, [OPEN, OPEN], 1)
    for state in daemon.peers.values():
        establish(daemon, state)
    first = PathAttributes(as_path=(65001, 64512), next_hop=NEXT_HOPS[0])
    apply(daemon, wires, ("update", 0, BGPUpdate(
        attributes=first, nlri=[prefix]).encode()))
    apply(daemon, wires, ("flush", 1, None))
    assert daemon.loc_rib.best(prefix).attributes == first

    if refusal == "looped":
        second = dataclasses.replace(first, as_path=(65001, OWN_ASN, 64512))
    else:
        second = first
        daemon.peers["p0"].config.import_policy.deny_prefixes.append(prefix)
    apply(daemon, wires, ("update", 0, BGPUpdate(
        attributes=second, nlri=[prefix]).encode()))
    apply(daemon, wires, ("flush", 1, None))

    assert daemon.peers["p0"].adj_rib_in.get(prefix) is None
    assert prefix not in daemon.loc_rib
    assert [call for call in daemon.sim.cm.calls if call[1] == prefix] == [
        ("install", prefix, ((1, IPv4Address("172.16.0.2")),)),
        ("withdraw", prefix)]
    last = decode_bgp_message(wires[1].sent[-1])
    assert last.withdrawn == [prefix] and not last.nlri


# p0's route is the best; p1 then offers one with a longer AS path, and
# withdraws it again.  Neither UPDATE can move the selection.
WORSE_ROUTE_HISTORY = [
    ("update", 0, BGPUpdate(attributes=PathAttributes(
        as_path=(64512,), next_hop=NEXT_HOPS[0]), nlri=[PREFIXES[3]]).encode()),
    ("update", 1, BGPUpdate(attributes=PathAttributes(
        as_path=(64513, 64512), next_hop=NEXT_HOPS[0]),
        nlri=[PREFIXES[3]]).encode()),
    ("update", 1, BGPUpdate(withdrawn=[PREFIXES[3]]).encode()),
]


def test_a_decision_that_cannot_change_is_skipped():
    ours, __, theirs = run_both([OPEN, OPEN], 2, WORSE_ROUTE_HISTORY)
    assert theirs.decisions == 3
    assert ours.decisions == 1
    assert ours.selection_changes == theirs.selection_changes == 1


class NotBetterLocRIB(LocRIB):
    """``LocRIB.holds`` with "not better" in place of "strictly worse":
    a route that ties with the best is let through undecided."""

    def holds(self, prefix, old, new):
        best = self._best.get(prefix)
        if best is None:
            return False
        if old is not None and any(route is old
                                   for route in self._multipath[prefix]):
            return False
        return new is None or new.preference >= best.preference


class NotBetterDaemon(BGPDaemon):
    def __init__(self, router_name, config):
        super().__init__(router_name, config)
        self.loc_rib = NotBetterLocRIB()


def test_the_rule_weakened_to_not_better_is_caught():
    """p1's route ties with p0's on the ladder, so with two paths it
    joins the multipath set: the weakened rule skips that decision, and
    the comparison with the reference catches it."""
    history = [
        ("update", 0, BGPUpdate(attributes=PathAttributes(
            as_path=(64512,), next_hop=NEXT_HOPS[0]),
            nlri=[PREFIXES[3]]).encode()),
        ("update", 1, BGPUpdate(attributes=PathAttributes(
            as_path=(64513,), next_hop=NEXT_HOPS[0]),
            nlri=[PREFIXES[3]]).encode()),
    ]
    ours, __, __ = run_both([OPEN, OPEN], 2, history)
    assert len(ours.loc_rib.multipath(PREFIXES[3])) == 2
    with pytest.raises(AssertionError):
        run_both([OPEN, OPEN], 2, history, daemon_class=NotBetterDaemon)
