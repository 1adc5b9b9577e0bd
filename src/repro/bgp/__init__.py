"""BGP-4: the emulated routing control plane (Quagga's stand-in).

The paper runs unmodified Quagga ``bgpd`` daemons as the emulated
control plane.  This package implements the equivalent functionality
natively so the Connection Manager still observes *genuine BGP wire
traffic*:

* :mod:`repro.bgp.messages` — RFC 4271 message encoding/decoding
  (OPEN, UPDATE with path attributes and NLRI, KEEPALIVE,
  NOTIFICATION);
* :mod:`repro.bgp.fsm` — the session finite state machine
  (Idle/Connect/OpenSent/OpenConfirm/Established);
* :mod:`repro.bgp.rib` — Adj-RIB-In, Loc-RIB and Adj-RIB-Out;
* :mod:`repro.bgp.decision` — the decision process with ECMP multipath
  (Quagga's ``maximum-paths``);
* :mod:`repro.bgp.daemon` — :class:`BGPDaemon`, the emulated process:
  real timers (connect retry, keepalive, hold, advertisement
  interval), route origination, propagation with AS-path prepending,
  and FIB programming through the Connection Manager.
"""

from repro.bgp.messages import (
    BGPMessage,
    BGPOpen,
    BGPUpdate,
    BGPKeepalive,
    BGPNotification,
    PathAttributes,
    Origin,
    decode_bgp_message,
    decode_bgp_stream,
)
from repro.bgp.fsm import BGPState, SessionFSM
from repro.bgp.rib import AdjRIBIn, LocRIB, RIBRoute
from repro.bgp.decision import decide, RouteComparison
from repro.bgp.policy import ExportPolicy, ImportPolicy
from repro.bgp.daemon import BGPDaemon, BGPPeerConfig, BGPConfig

__all__ = [
    "BGPMessage",
    "BGPOpen",
    "BGPUpdate",
    "BGPKeepalive",
    "BGPNotification",
    "PathAttributes",
    "Origin",
    "decode_bgp_message",
    "decode_bgp_stream",
    "BGPState",
    "SessionFSM",
    "AdjRIBIn",
    "LocRIB",
    "RIBRoute",
    "decide",
    "RouteComparison",
    "ExportPolicy",
    "ImportPolicy",
    "BGPDaemon",
    "BGPPeerConfig",
    "BGPConfig",
]
