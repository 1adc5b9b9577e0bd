"""Unit tests: BGP FSM, RIBs, decision process, policy."""

import sys
from pathlib import Path

import pytest

from repro.bgp.decision import decide, preference_key
from repro.bgp.fsm import BGPState, SessionFSM
from repro.bgp.messages import (
    Origin, PathAttributes, decode_bgp_message, encode_attributes,
    encode_update)
from repro.bgp.policy import ExportPolicy, ImportPolicy
from repro.bgp.rib import AdjRIBIn, AdjRIBOut, LocRIB, RIBRoute
from repro.netproto.addr import IPv4Address, IPv4Prefix

# The transition log is test-only code beside the property suites.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "property"))
from bgp_reference import record_transitions  # noqa: E402


@pytest.fixture
def history(monkeypatch):
    """Each session FSM's transitions during the test."""
    return record_transitions(monkeypatch)


P1 = IPv4Prefix("10.1.0.0/24")
P2 = IPv4Prefix("10.2.0.0/24")


def route(prefix=P1, as_path=(65002,), peer="p1", router_id="2.2.2.2",
          local_pref=None, med=None, origin=Origin.IGP):
    return RIBRoute(
        prefix=prefix,
        attributes=PathAttributes(
            origin=origin, as_path=tuple(as_path),
            next_hop=IPv4Address("192.168.0.1"),
            med=med, local_pref=local_pref,
        ),
        peer_name=peer,
        peer_router_id=IPv4Address(router_id),
    )


class TestFSM:
    def test_happy_path(self):
        fsm = SessionFSM("peer")
        fsm.start(0.0)
        assert fsm.state is BGPState.CONNECT
        fsm.transport_up(0.1)
        assert fsm.state is BGPState.OPEN_SENT
        fsm.open_received(0.2)
        assert fsm.state is BGPState.OPEN_CONFIRM
        fsm.keepalive_received(0.3)
        assert fsm.established
        assert fsm.established_at == 0.3

    def test_passive_open(self):
        fsm = SessionFSM("peer")
        fsm.start(0.0)
        fsm.open_received(0.1)  # peer's OPEN arrives before transport event
        assert fsm.state is BGPState.OPEN_CONFIRM

    def test_failure_resets(self):
        fsm = SessionFSM("peer")
        fsm.start(0.0)
        fsm.transport_up(0.1)
        fsm.open_received(0.2)
        fsm.keepalive_received(0.3)
        fsm.session_failed(1.0, "hold expired")
        assert fsm.state is BGPState.IDLE
        assert fsm.established_at is None

    def test_start_idempotent_outside_idle(self, history):
        fsm = SessionFSM("peer")
        fsm.start(0.0)
        fsm.start(0.5)  # no effect
        assert len(history[fsm]) == 1

    def test_keepalive_in_established_no_transition(self, history):
        fsm = SessionFSM("peer")
        fsm.start(0.0)
        fsm.transport_up(0.1)
        fsm.open_received(0.2)
        fsm.keepalive_received(0.3)
        count = len(history[fsm])
        fsm.keepalive_received(30.0)
        assert len(history[fsm]) == count

    def test_times_in_state(self, history):
        """The transition log holds each state's entry time."""
        fsm = SessionFSM("peer")
        fsm.start(0.0)
        fsm.transport_up(1.0)
        fsm.open_received(2.0)
        fsm.keepalive_received(3.0)
        assert [(change.time, change.to_state) for change in history[fsm]] == [
            (0.0, BGPState.CONNECT), (1.0, BGPState.OPEN_SENT),
            (2.0, BGPState.OPEN_CONFIRM), (3.0, BGPState.ESTABLISHED)]


class TestRIBs:
    def test_adj_rib_in_update_withdraw(self):
        rib = AdjRIBIn("p1")
        rib.update(route())
        assert rib.get(P1) is not None
        assert rib.withdraw(P1)
        assert rib.get(P1) is None
        assert not rib.withdraw(P1)

    def test_adj_rib_in_clear_returns_prefixes(self):
        rib = AdjRIBIn("p1")
        rib.update(route(prefix=P1))
        rib.update(route(prefix=P2))
        lost = rib.clear()
        assert lost == sorted([P1, P2], key=lambda p: p.key())
        assert len(rib) == 0

    def test_loc_rib_change_detection(self):
        rib = LocRIB()
        r = route()
        assert rib.set_selection(P1, r, (r,))
        assert not rib.set_selection(P1, r, (r,))  # identical: no change
        r2 = route(as_path=(65003,), peer="p2")
        assert rib.set_selection(P1, r2, (r2,))

    def test_loc_rib_removal(self):
        rib = LocRIB()
        r = route()
        rib.set_selection(P1, r, (r,))
        assert rib.set_selection(P1, None)
        assert P1 not in rib
        assert not rib.set_selection(P1, None)  # already gone

    def test_loc_rib_multipath_defaults_to_best(self):
        rib = LocRIB()
        r = route()
        rib.set_selection(P1, r)
        assert rib.multipath(P1) == (r,)

    def test_adj_rib_out_dedup(self):
        rib = AdjRIBOut("p1")
        attrs = PathAttributes(as_path=(1,))
        assert rib.record_announce(P1, attrs)
        assert not rib.record_announce(P1, attrs)  # same attrs: suppress
        assert rib.record_announce(P1, PathAttributes(as_path=(1, 2)))

    def test_adj_rib_out_withdraw_only_if_advertised(self):
        rib = AdjRIBOut("p1")
        assert not rib.record_withdraw(P1)
        rib.record_announce(P1, PathAttributes())
        assert rib.record_withdraw(P1)


class TestDecision:
    def test_empty(self):
        outcome = decide([])
        assert outcome.best is None
        assert outcome.multipath == ()

    def test_shorter_as_path_wins(self):
        long = route(as_path=(1, 2, 3), peer="p1")
        short = route(as_path=(4, 5), peer="p2", router_id="3.3.3.3")
        assert decide([long, short]).best is short

    def test_local_pref_beats_as_path(self):
        preferred = route(as_path=(1, 2, 3), local_pref=200, peer="p1")
        short = route(as_path=(4,), peer="p2")
        assert decide([preferred, short]).best is preferred

    def test_local_route_beats_learned(self):
        local = RIBRoute(prefix=P1, attributes=PathAttributes(), peer_name="")
        learned = route(as_path=(1,))
        assert decide([local, learned]).best is local

    def test_origin_breaks_tie(self):
        igp = route(origin=Origin.IGP, peer="p1")
        egp = route(origin=Origin.EGP, peer="p2", router_id="3.3.3.3")
        assert decide([egp, igp]).best is igp

    def test_med_breaks_tie(self):
        low = route(med=5, peer="p1")
        high = route(med=10, peer="p2", router_id="3.3.3.3")
        assert decide([high, low]).best is low

    def test_router_id_final_tiebreak(self):
        a = route(peer="p1", router_id="1.1.1.1")
        b = route(peer="p2", router_id="2.2.2.2")
        assert decide([b, a]).best is a

    def test_multipath_gathers_equal_cost(self):
        a = route(peer="p1", router_id="1.1.1.1")
        b = route(peer="p2", router_id="2.2.2.2")
        c = route(as_path=(1, 2), peer="p3", router_id="3.3.3.3")  # longer
        outcome = decide([a, b, c], max_paths=4)
        assert set(outcome.multipath) == {a, b}

    def test_multipath_capped(self):
        routes = [route(peer=f"p{i}", router_id=f"{i+1}.0.0.1") for i in range(6)]
        outcome = decide(routes, max_paths=3)
        assert len(outcome.multipath) == 3

    def test_max_paths_one_single(self):
        a = route(peer="p1", router_id="1.1.1.1")
        b = route(peer="p2", router_id="2.2.2.2")
        assert decide([a, b], max_paths=1).multipath == (a,)

    def test_bad_max_paths(self):
        with pytest.raises(ValueError):
            decide([route()], max_paths=0)

    def test_preference_key_defaults(self):
        # absent local-pref compares as 100
        default = route()
        explicit = route(local_pref=100, peer="p2", router_id="3.3.3.3")
        assert preference_key(default) == preference_key(explicit)


class TestPolicy:
    def test_import_deny(self):
        policy = ImportPolicy(deny_prefixes=[IPv4Prefix("10.0.0.0/8")])
        assert policy.apply(P1, PathAttributes()) is None

    def test_import_allow_only(self):
        policy = ImportPolicy(allow_only=[P2])
        assert policy.apply(P1, PathAttributes()) is None
        assert policy.apply(P2, PathAttributes()) is not None

    def test_import_set_local_pref(self):
        policy = ImportPolicy(set_local_pref=500)
        rewritten = policy.apply(P1, PathAttributes(as_path=(1,)))
        assert rewritten.local_pref == 500
        assert rewritten.as_path == (1,)

    def test_import_set_local_pref_and_med(self):
        policy = ImportPolicy(set_local_pref=500, set_med=7)
        attrs = PathAttributes(origin=Origin.EGP, as_path=(1, 2),
                               next_hop=IPv4Address("192.168.0.1"),
                               med=3, local_pref=100)
        assert policy.apply(P1, attrs) == PathAttributes(
            origin=Origin.EGP, as_path=(1, 2),
            next_hop=IPv4Address("192.168.0.1"), med=7, local_pref=500)
        assert attrs.med == 3 and attrs.local_pref == 100  # frozen

    def test_export_deny(self):
        policy = ExportPolicy(deny_prefixes=[P1])
        assert not policy.permits(P1)
        assert policy.permits(P2)

    def test_export_prepend(self):
        # The daemon encodes an export with 1 + prepend_count copies of
        # its own AS in front of the path.
        policy = ExportPolicy(prepend_count=2)
        wire = encode_attributes(PathAttributes(as_path=(9,)), b"", 65001,
                                 1 + policy.prepend_count)
        update = decode_bgp_message(encode_update(b"", wire, b""))
        assert update.attributes.as_path == (65001,) * 3 + (9,)

    def test_default_policies_pass_through(self):
        attrs = PathAttributes(as_path=(1,))
        assert ImportPolicy().apply(P1, attrs) is attrs
        assert ExportPolicy().permits(P1)
