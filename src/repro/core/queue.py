"""The future event list: a binary heap with lazy cancellation.

The queue is the heart of the DES half of the engine.  It orders events
by ``(time, priority, seq)`` and supports O(log n) push/pop plus O(1)
cancellation (cancelled events are dropped when they surface).

Heap entries are ``(time, priority, seq, event)`` tuples, i.e. the
event's :meth:`~repro.core.events.Event.sort_key` with the event
behind it: the heap makes about ten comparisons per event, and tuples
of numbers compare in C where ``Event.__lt__`` built two tuples in
Python each time.  ``seq`` is unique per queue, so a comparison never
reaches the event itself.

The live count is maintained exactly: push/pop adjust it directly and
:meth:`Event.cancel` notifies the owning queue, so ``len(queue)`` is
O(1) instead of a heap scan.  When cancelled entries outnumber live
ones (BGP keepalive churn cancels millions of timers), the queue
compacts itself automatically, bounding heap growth.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List, Optional, Tuple

from repro.core.errors import SchedulingError
from repro.core.events import Event

# Auto-compaction never fires below this raw heap size: tiny heaps are
# cheap to scan and compacting them constantly would cost more than it
# saves.
_COMPACT_MIN_HEAP = 64


class EventQueue:
    """A priority queue of :class:`~repro.core.events.Event` objects.

    The queue owns the sequence counter that breaks (time, priority)
    ties, so event ordering is a function of this simulation alone —
    not of how many simulations ran earlier in the process.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._pushed = 0
        self._popped = 0
        self._cancelled_seen = 0
        # Exact number of live (non-cancelled) events in the heap, and
        # the number of cancelled entries still physically present.
        self._live = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self._seq = itertools.count()

    def push(self, event: Event) -> Event:
        """Insert an event; returns it for chaining/cancel handles.

        The event's provisional seq is replaced with this queue's own
        numbering (insertion order), making traces reproducible per
        simulation.
        """
        event.seq = next(self._seq)
        event.queue = self
        heapq.heappush(
            self._heap, (event.time, event.priority, event.seq, event))
        self._pushed += 1
        if event.cancelled:
            self._cancelled_pending += 1
        else:
            self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None when empty.

        Cancelled events encountered on the way are discarded silently.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            event.queue = None
            if event.cancelled:
                self._cancelled_seen += 1
                self._cancelled_pending -= 1
                continue
            self._popped += 1
            self._live -= 1
            return event
        return None

    def peek(self) -> Optional[Event]:
        """The earliest live event without removing it, or None."""
        while self._heap:
            event = self._heap[0][3]
            if event.cancelled:
                heapq.heappop(self._heap)
                event.queue = None
                self._cancelled_seen += 1
                self._cancelled_pending -= 1
                continue
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Firing time of the earliest live event, or None when empty."""
        event = self.peek()
        if event is None:
            return None
        return event.time

    def __len__(self) -> int:
        """Exact number of live events — O(1)."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __iter__(self) -> Iterator[Event]:
        """Iterate over live events in firing order (non-destructive)."""
        return iter([entry[3] for entry in sorted(self._heap)
                     if not entry[3].cancelled])

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[3].queue = None
        self._heap.clear()
        self._live = 0
        self._cancelled_pending = 0

    def compact(self) -> None:
        """Physically remove cancelled events.

        Called automatically when cancelled entries exceed half the raw
        heap; also available for callers that want a tight heap before
        a long quiescent period.
        """
        live = []
        for entry in self._heap:
            event = entry[3]
            if event.cancelled:
                event.queue = None
                self._cancelled_seen += 1
            else:
                live.append(entry)
        heapq.heapify(live)
        self._heap = live
        self._cancelled_pending = 0
        self._compactions += 1

    def _note_cancelled(self) -> None:
        """Event.cancel() hook: keep the live count exact and compact
        when garbage dominates the heap."""
        self._live -= 1
        self._cancelled_pending += 1
        if (len(self._heap) >= _COMPACT_MIN_HEAP
                and self._cancelled_pending * 2 > len(self._heap)):
            self.compact()

    @property
    def stats(self) -> dict:
        """Counters for tests and benchmarks."""
        return {
            "pushed": self._pushed,
            "popped": self._popped,
            "cancelled_seen": self._cancelled_seen,
            "pending_raw": len(self._heap),
            "live": self._live,
            "cancelled_pending": self._cancelled_pending,
            "compactions": self._compactions,
        }

    def validate_not_past(self, event: Event, now: float) -> None:
        """Guard against scheduling into the past."""
        if event.time < now - 1e-12:
            raise SchedulingError(
                f"event at t={event.time} is before current time t={now}"
            )
