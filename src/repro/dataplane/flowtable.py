"""The OpenFlow flow table of a simulated switch.

Entries are matched by descending priority (first installed wins a
priority tie, like hardware TCAM ordering).  Counters accrue from the
fluid model — byte counts integrate flow rates over time, and packet
counts are synthesised assuming MTU-sized packets — so STATS_REPLY
messages carry live numbers for Hedera to poll.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.openflow.actions import Action, ActionOutput, output_ports
from repro.openflow.constants import FlowModCommand, OFP_FLOW_PERMANENT
from repro.openflow.match import Match

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netproto.packet import FiveTuple, Packet

MTU_BYTES = 1500
_NEVER = float("inf")


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


def _index_key(match: Match) -> "FiveTuple | None":
    """The one flow an entry with this match can ever capture, if the
    match is an exact five-tuple and nothing else (any port, any MACs);
    such entries are found by hash.  Anything else is scanned."""
    if (match.tp_src is None or match.tp_dst is None
            or match.in_port is not None or match.dl_src is not None
            or match.dl_dst is not None
            or match.dl_type not in (None, 0x0800)):
        return None
    return match.five_tuple()


def _insort(entries: List[FlowEntry], entry: FlowEntry) -> None:
    bisect.insort(entries, entry, key=FlowEntry.sort_key)


def _unsort(entries: List[FlowEntry], entry: FlowEntry) -> None:
    """Remove ``entry`` (present; sort keys are unique) from a list
    kept in ``sort_key`` order."""
    del entries[bisect.bisect_left(entries, entry.sort_key(),
                                   key=FlowEntry.sort_key)]


# The expiry bound is ``reference + timeout`` while a sweep judges
# ``now - reference >= timeout``; rounding can put the sum an ulp or two
# past the instant the difference first reaches the timeout, so the
# bound is pulled in by far more than that.
_DEADLINE_SLACK = 1e-6


def _expiry_bound(entry: FlowEntry) -> float:
    """No sweep before this time can expire ``entry``: the hard
    deadline is exact, and ``last_used_at`` only ever moves the idle one
    later."""
    bound = _NEVER
    if entry.hard_timeout != OFP_FLOW_PERMANENT:
        bound = entry.installed_at + entry.hard_timeout
    if entry.idle_timeout != OFP_FLOW_PERMANENT:
        bound = min(bound, max(entry.last_used_at, entry.installed_at)
                    + entry.idle_timeout)
    return bound - _DEADLINE_SLACK


class FlowTable:
    """A priority-ordered flow table.

    ``_entries`` is the table, in match order.  Three indexes over it
    make the common operations cost what they touch: ``_by_key`` finds
    the entry an ADD replaces; ``_exact`` finds, by hash, the entries
    that match one five-tuple and nothing else, leaving ``_scanned``
    (everything with a wildcard, a port or a MAC in its match) to the
    ordered scan; ``_deadline`` is the earliest time any entry could
    expire.
    """

    def __init__(self, owner=None) -> None:
        self._entries: List[FlowEntry] = []
        self._by_key: Dict[tuple, FlowEntry] = {}
        self._exact: Dict["FiveTuple", List[FlowEntry]] = {}
        self._scanned: List[FlowEntry] = []
        self._deadline = _NEVER
        self.lookups = 0
        self.misses = 0
        self.index_hits = 0      # five-tuple lookups the hash answered
        self.scans = 0           # ... that had to walk _scanned
        self.expiry_checks = 0
        self.expiry_sweeps = 0
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

    def _bucket(self, entry: FlowEntry) -> List[FlowEntry]:
        """The match-ordered list five-tuple lookups find ``entry`` in."""
        key = _index_key(entry.match)
        if key is None:
            return self._scanned
        return self._exact.setdefault(key, [])

    def add(self, entry: FlowEntry) -> FlowEntry:
        """Insert an entry, replacing the one with the same match and
        priority if there is one (OpenFlow ADD: its counters are gone)."""
        key = (entry.priority, entry.match)
        old = self._by_key.get(key)
        if old is not None:
            _unsort(self._entries, old)
            _unsort(self._bucket(old), old)
        self._by_key[key] = entry
        _insort(self._entries, entry)
        _insort(self._bucket(entry), entry)
        self._deadline = min(self._deadline, _expiry_bound(entry))
        self._bump()
        return entry

    def _keep(self, kept: List[FlowEntry]) -> None:
        """Replace the table's content by ``kept`` (already in match
        order) and rebuild the indexes over it."""
        self._entries = kept
        self._by_key = {(e.priority, e.match): e for e in kept}
        self._exact = {}
        self._scanned = []
        for entry in kept:
            self._bucket(entry).append(entry)
        self._deadline = min(map(_expiry_bound, kept), default=_NEVER)
        self._bump()

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
        if removed:
            self._keep(kept)
        return removed

    def match_five_tuple(
        self,
        flow_key: "FiveTuple",
        in_port: "int | None" = None,
        dl_src=None,
        dl_dst=None,
    ) -> Optional[FlowEntry]:
        """Highest-priority entry matching a five-tuple, or None.

        The best exact-five-tuple entry comes from the hash; entries
        that need evaluating are scanned in match order only as far as
        they could still outrank it — "highest priority, then first
        installed" holds across both kinds.
        """
        self.lookups += 1
        exact = self._exact.get(flow_key)
        best = exact[0] if exact else None
        if self._scanned:
            self.scans += 1
            bar = best.sort_key() if best is not None else None
            for entry in self._scanned:
                if bar is not None and entry.sort_key() > bar:
                    break
                if entry.match.matches_five_tuple(
                    flow_key, in_port=in_port, dl_src=dl_src, dl_dst=dl_dst
                ):
                    return entry
        else:
            self.index_hits += 1
        if best is None:
            self.misses += 1
        return best

    def match_packet(self, packet: "Packet", in_port: "int | None" = None) -> Optional[FlowEntry]:
        """Highest-priority entry matching a packet, or None."""
        self.lookups += 1
        for entry in self._entries:
            if entry.match.matches_packet(packet, in_port=in_port):
                return entry
        self.misses += 1
        return None

    def expiry_due(self, now: float) -> bool:
        """Whether a sweep at ``now`` could expire anything: one compare
        against the earliest possible deadline of any entry."""
        self.expiry_checks += 1
        return now >= self._deadline

    def expire(self, now: float) -> List[FlowEntry]:
        """Remove entries past their idle/hard timeout; returns them.

        The switch agent turns these into FLOW_REMOVED messages when
        the controller asked for notification.  Callers that own a
        clock ask :meth:`expiry_due` first and bring ``last_used_at``
        current before sweeping.
        """
        if now < self._deadline:
            return []
        self.expiry_sweeps += 1
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
        if expired:
            self._keep(kept)
        else:
            # Stamps have moved since the bound was taken: re-arm it.
            self._deadline = min(map(_expiry_bound, kept), default=_NEVER)
        return expired

    def clear(self) -> None:
        """Flush the table."""
        self._keep([])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowTable entries={len(self._entries)} lookups={self.lookups}>"
