"""Property test: a BGP decision that cannot change may be skipped.

The rule: an UPDATE from peer p for prefix x leaves x's selection as it
was when p's earlier route (if any) is not in x's multipath set and p's
new route is absent or has a strictly worse ``preference`` than the
selected one.  It is held against :class:`bgp_reference.ProbingDaemon`,
which runs the full decision for every prefix an UPDATE touches: over
random histories of announcements and withdrawals from 2-4 peers, with
preference ties (equal keys broken by router id and peer name), a
locally originated network and ``max_paths`` 1-4, wherever the rule
fires the selection that follows is the one before.  The daemon
applies the rule (``LocRIB.holds``); ``test_bgp_rib_oracle.py`` holds
the daemon that skips to the reference that does not.
"""

from hypothesis import event, given, settings, strategies as st

from bgp_reference import ProbingDaemon
from repro.bgp.messages import BGPUpdate, Origin, PathAttributes
from repro.netproto.addr import IPv4Address
from test_bgp_rib_oracle import PREFIXES, build, establish

# Few values per attribute, so that preference keys often tie and a
# route often differs from the selection by one step of the ladder.
attributes = st.builds(
    PathAttributes,
    origin=st.sampled_from([Origin.IGP, Origin.INCOMPLETE]),
    as_path=st.sampled_from([(64512,), (64513,), (64512, 64513),
                             (64513, 64512, 64513)]),
    next_hop=st.just(IPv4Address("172.16.9.9")),
    med=st.none() | st.integers(0, 1),
    local_pref=st.none() | st.sampled_from((100, 200)),
)

# PREFIXES[0] is the daemon's own network: its local route competes.
touched = st.lists(st.sampled_from(PREFIXES[:2]), min_size=1, max_size=2,
                   unique=True)

updates = st.builds(BGPUpdate, attributes=attributes, nlri=touched) \
    | st.builds(BGPUpdate, withdrawn=touched)


def selection(daemon, prefix):
    return daemon.loc_rib.best(prefix), daemon.loc_rib.multipath(prefix)


def rule_fires(before, peer, new_route):
    """Whether the rule lets ``peer``'s UPDATE skip a decision, given
    the selection ``before`` it and the peer's route after it (or None)."""
    best, multipath = before
    if any(route.peer_name == peer for route in multipath):
        return False
    if new_route is None:
        return True
    return best is not None and new_route.preference > best.preference


@given(data=st.data(), peers=st.integers(2, 4), max_paths=st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_a_skipped_decision_keeps_the_selection(data, peers, max_paths):
    daemon, wires = build(ProbingDaemon, [({}, {})] * peers, max_paths)
    for state in daemon.peers.values():
        establish(daemon, state)
    history = data.draw(st.lists(st.tuples(st.integers(0, peers - 1),
                                           updates),
                                 min_size=10, max_size=40))
    fired = 0
    for index, update in history:
        peer = f"p{index}"
        prefixes = update.nlri or update.withdrawn
        before = {prefix: selection(daemon, prefix) for prefix in prefixes}
        daemon.receive(wires[index], update.encode(), None)
        for prefix in prefixes:
            new_route = daemon.peers[peer].adj_rib_in.get(prefix)
            if rule_fires(before[prefix], peer, new_route):
                fired += 1
                assert selection(daemon, prefix) == before[prefix], (
                    peer, prefix, max_paths)
    event(f"rule fired {min(fired, 10)}{'+' if fired >= 10 else ''} times")
