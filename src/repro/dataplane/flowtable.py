"""The OpenFlow flow table of a simulated switch.

Entries are matched by descending priority (first installed wins a
priority tie, like hardware TCAM ordering).  Counters accrue from the
fluid model — byte counts integrate flow rates over time, and packet
counts are synthesised assuming MTU-sized packets — so STATS_REPLY
messages carry live numbers for Hedera to poll.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.openflow.actions import Action, ActionOutput, output_ports
from repro.openflow.constants import FlowModCommand, OFP_FLOW_PERMANENT
from repro.openflow.match import Match

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netproto.packet import FiveTuple, Packet

MTU_BYTES = 1500


@dataclass
class FlowEntry:
    """One flow-table entry with live counters."""

    match: Match
    actions: List[Action] = field(default_factory=list)
    priority: int = 0x8000
    cookie: int = 0
    idle_timeout: int = OFP_FLOW_PERMANENT
    hard_timeout: int = OFP_FLOW_PERMANENT
    installed_at: float = 0.0
    byte_count: float = 0.0
    last_used_at: float = 0.0
    _seq: int = field(default_factory=itertools.count().__next__)

    @property
    def packet_count(self) -> int:
        """Synthesised packet counter (fluid bytes / MTU)."""
        return int(self.byte_count // MTU_BYTES)

    def output_ports(self) -> List[int]:
        """Ports this entry outputs to (empty = drop)."""
        return output_ports(self.actions)

    def sort_key(self) -> tuple:
        """Descending priority, then install order."""
        return (-self.priority, self._seq)

    def duration(self, now: float) -> float:
        """Seconds since installation."""
        return max(0.0, now - self.installed_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        acts = ",".join(str(a) for a in self.actions) or "drop"
        return f"<FlowEntry prio={self.priority} {self.match} -> {acts}>"


class FlowTable:
    """A priority-ordered flow table."""

    def __init__(self, owner=None) -> None:
        self._entries: List[FlowEntry] = []
        self.lookups = 0
        self.misses = 0
        # Bumped on every mutation; the network uses it to decide when
        # a previously-missed flow deserves a fresh PACKET_IN.
        self.version = 0
        self._owner = owner  # the Switch folding version into fwd_epoch

    def _bump(self) -> None:
        """Every mutation lands here: the version moves (and with it
        the owner's ``fwd_epoch``) and the owner is registered as
        touched with its network."""
        self.version += 1
        if self._owner is not None:
            self._owner.touched()

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[FlowEntry]:
        """Entries in match order (highest priority first)."""
        return list(self._entries)

    def add(self, entry: FlowEntry, replace: bool = True) -> FlowEntry:
        """Insert an entry; replaces a same-(match, priority) entry.

        Replacement keeps OpenFlow ADD semantics: counters reset.
        """
        if replace:
            self._entries = [
                existing
                for existing in self._entries
                if not (
                    existing.priority == entry.priority
                    and existing.match.is_strict_equal(entry.match)
                )
            ]
        self._entries.append(entry)
        self._entries.sort(key=FlowEntry.sort_key)
        self._bump()
        return entry

    def delete(self, match: Match, strict: bool = False,
               priority: "int | None" = None, out_port: "int | None" = None) -> List[FlowEntry]:
        """Remove entries per OpenFlow DELETE semantics.

        Non-strict: remove every entry whose match is subsumed by
        ``match``.  Strict: remove the single entry with identical
        match and priority.  ``out_port`` further filters to entries
        that output there.  Returns the removed entries.
        """
        removed: List[FlowEntry] = []
        kept: List[FlowEntry] = []
        for entry in self._entries:
            if strict:
                hit = (
                    entry.match.is_strict_equal(match)
                    and (priority is None or entry.priority == priority)
                )
            else:
                hit = match.subsumes(entry.match)
            if hit and out_port is not None and out_port not in entry.output_ports():
                hit = False
            (removed if hit else kept).append(entry)
        self._entries = kept
        if removed:
            self._bump()
        return removed

    def match_five_tuple(
        self,
        flow_key: "FiveTuple",
        in_port: "int | None" = None,
        dl_src=None,
        dl_dst=None,
    ) -> Optional[FlowEntry]:
        """Highest-priority entry matching a five-tuple, or None."""
        self.lookups += 1
        for entry in self._entries:
            if entry.match.matches_five_tuple(
                flow_key, in_port=in_port, dl_src=dl_src, dl_dst=dl_dst
            ):
                return entry
        self.misses += 1
        return None

    def match_packet(self, packet: "Packet", in_port: "int | None" = None) -> Optional[FlowEntry]:
        """Highest-priority entry matching a packet, or None."""
        self.lookups += 1
        for entry in self._entries:
            if entry.match.matches_packet(packet, in_port=in_port):
                return entry
        self.misses += 1
        return None

    def expire(self, now: float) -> List[FlowEntry]:
        """Remove entries past their idle/hard timeout; returns them.

        The switch agent turns these into FLOW_REMOVED messages when
        the controller asked for notification.
        """
        expired: List[FlowEntry] = []
        kept: List[FlowEntry] = []
        for entry in self._entries:
            hard_hit = (
                entry.hard_timeout != OFP_FLOW_PERMANENT
                and now - entry.installed_at >= entry.hard_timeout
            )
            idle_reference = max(entry.last_used_at, entry.installed_at)
            idle_hit = (
                entry.idle_timeout != OFP_FLOW_PERMANENT
                and now - idle_reference >= entry.idle_timeout
            )
            (expired if hard_hit or idle_hit else kept).append(entry)
        self._entries = kept
        if expired:
            self._bump()
        return expired

    def clear(self) -> None:
        """Flush the table."""
        self._entries.clear()
        self._bump()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowTable entries={len(self._entries)} lookups={self.lookups}>"
