"""Control-plane message tracing.

The Connection Manager sees every control-plane byte; this module
turns that into an analysable trace — the equivalent of running
tcpdump on Horse's management network.  Each record carries the send
time, channel label, direction, protocol guess and a decoded summary
("BGP UPDATE announce 3", "OF FLOW_MOD ADD", "OSPF HELLO"...).

``examples/control_plane_trace.py`` prints one; it is also handy when
debugging why an experiment stays in FTI mode longer than expected.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.simulation import Simulation

from repro.bgp.messages import (
    BGP_MARKER,
    BGPKeepalive,
    BGPNotification,
    BGPOpen,
    BGPUpdate,
    decode_bgp_stream,
)
from repro.openflow.constants import MsgType, OFP_VERSION
from repro.openflow.messages import decode_message_stream
from repro.ospf.packets import (
    OSPF_VERSION,
    OSPFHello,
    OSPFLinkStateUpdate,
    decode_ospf_message,
)


@dataclass(frozen=True)
class TraceRecord:
    """One control-plane send."""

    time: float
    channel: str
    sender: str
    receiver: str
    protocol: str
    summary: str
    size: int

    def __str__(self) -> str:
        return (f"t={self.time:.6f}s {self.channel} {self.sender}->"
                f"{self.receiver} [{self.protocol}] {self.summary} "
                f"({self.size}B)")


def classify(data: bytes) -> tuple:
    """(protocol, summary) for a control-plane payload."""
    if len(data) >= 19 and data[:16] == BGP_MARKER:
        return "bgp", _summarise_bgp(data)
    if len(data) >= 8 and data[0] == OFP_VERSION:
        try:
            MsgType(data[1])
        except ValueError:
            pass
        else:
            return "openflow", _summarise_openflow(data)
    if len(data) >= 8 and data[0] == OSPF_VERSION and data[1] in (1, 4):
        return "ospf", _summarise_ospf(data)
    return "unknown", f"{len(data)} bytes"


def _summarise_bgp(data: bytes) -> str:
    parts = []
    rest = data
    try:
        while rest:
            message, rest = decode_bgp_stream(rest)
            if isinstance(message, BGPOpen):
                parts.append(f"OPEN AS{message.asn}")
            elif isinstance(message, BGPUpdate):
                parts.append(
                    f"UPDATE announce={len(message.nlri)} "
                    f"withdraw={len(message.withdrawn)}"
                )
            elif isinstance(message, BGPKeepalive):
                parts.append("KEEPALIVE")
            elif isinstance(message, BGPNotification):
                parts.append(f"NOTIFICATION {message.code}/{message.subcode}")
    except Exception:  # partial trailing data: keep what we decoded
        parts.append("<undecodable>")
    return ", ".join(parts)


def _summarise_openflow(data: bytes) -> str:
    parts = []
    rest = data
    try:
        while rest:
            message, rest = decode_message_stream(rest)
            parts.append(type(message).msg_type.name)
    except Exception:
        parts.append("<undecodable>")
    return ", ".join(parts)


def _summarise_ospf(data: bytes) -> str:
    try:
        message = decode_ospf_message(data)
    except Exception:
        return "<undecodable>"
    if isinstance(message, OSPFHello):
        return f"HELLO neighbors={len(message.neighbor_ids)}"
    if isinstance(message, OSPFLinkStateUpdate):
        return f"LS_UPDATE lsas={len(message.lsas)}"
    return type(message).__name__


class MessageTrace:
    """Records every control-plane send of a simulation."""

    def __init__(self, sim: "Simulation", max_records: int = 0):
        self.sim = sim
        self.max_records = max_records
        self.records: List[TraceRecord] = []
        self.dropped = 0
        sim.cm.add_observer(self._observe)

    def _observe(self, channel, receiver, data: bytes) -> None:
        if self.max_records and len(self.records) >= self.max_records:
            self.dropped += 1
            return
        protocol, summary = classify(data)
        sender = channel.peer_of(receiver)
        self.records.append(
            TraceRecord(
                time=self.sim.clock.now,
                channel=channel.label,
                sender=getattr(sender, "name", "?"),
                receiver=getattr(receiver, "name", "?"),
                protocol=protocol,
                summary=summary,
                size=len(data),
            )
        )

    # -- analysis ---------------------------------------------------------------

    def by_protocol(self) -> Counter:
        """Message counts per protocol."""
        return Counter(record.protocol for record in self.records)

    def between(self, start: float, end: float) -> List[TraceRecord]:
        """Records in a time window."""
        return [r for r in self.records if start <= r.time <= end]

    def activity_windows(self, quiet_gap: float) -> List[tuple]:
        """Contiguous bursts of control traffic, split at quiet gaps.

        Returns (start, end, message count) triples — a direct view of
        what the hybrid clock's FTI episodes look like.
        """
        windows = []
        start = None
        last = None
        count = 0
        for record in self.records:
            if start is None:
                start, last, count = record.time, record.time, 1
                continue
            if record.time - last > quiet_gap:
                windows.append((start, last, count))
                start, count = record.time, 0
            last = record.time
            count += 1
        if start is not None:
            windows.append((start, last, count))
        return windows

    def summary_lines(self, limit: int = 20) -> List[str]:
        """Human-readable digest of the first ``limit`` records."""
        return [str(record) for record in self.records[:limit]]

    def __len__(self) -> int:
        return len(self.records)
