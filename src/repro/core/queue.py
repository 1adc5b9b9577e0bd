"""The future event list: a binary heap with lazy cancellation.

The queue is the heart of the DES half of the engine.  It orders events
by ``(time, priority, seq)`` and supports O(log n) push/pop plus O(1)
cancellation (cancelled events are dropped when they surface).

Heap entries are ``(time, priority, seq, event)`` tuples, i.e. the
event's :meth:`~repro.core.events.Event.sort_key` with the event
behind it: the heap makes about ten comparisons per event, and tuples
of numbers compare in C.  ``seq`` is unique per queue, so a comparison
never reaches the event itself.

A cancelled entry stays in the heap until it surfaces.  Nothing
removes it earlier or counts it: the six ``horsebench`` workloads push
175 653 events and cancel none (``docs/control_plane.md``, "What the
event queue does not do").
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List, Optional, Tuple

from repro.core.errors import SchedulingError
from repro.core.events import Event


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
        self._seq = itertools.count()

    def push(self, event: Event) -> Event:
        """Insert an event; returns it for chaining/cancel handles.

        The event is numbered from this queue's own counter (insertion
        order), making traces reproducible per simulation.
        """
        event.seq = next(self._seq)
        heapq.heappush(
            self._heap, (event.time, event.priority, event.seq, event))
        self._pushed += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None when empty.

        Cancelled events encountered on the way are discarded silently.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                self._cancelled_seen += 1
                continue
            self._popped += 1
            return event
        return None

    def peek(self) -> Optional[Event]:
        """The earliest live event without removing it, or None."""
        while self._heap:
            event = self._heap[0][3]
            if event.cancelled:
                heapq.heappop(self._heap)
                self._cancelled_seen += 1
                continue
            return event
        return None

    def __len__(self) -> int:
        """Exact number of live events (a heap scan: debugging and
        tests, not the run loop)."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def __bool__(self) -> bool:
        return any(not entry[3].cancelled for entry in self._heap)

    def __iter__(self) -> Iterator[Event]:
        """Iterate over live events in firing order (non-destructive)."""
        return iter([entry[3] for entry in sorted(self._heap)
                     if not entry[3].cancelled])

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()

    @property
    def stats(self) -> dict:
        """Counters for tests and benchmarks."""
        return {
            "pushed": self._pushed,
            "popped": self._popped,
            "cancelled_seen": self._cancelled_seen,
            "pending_raw": len(self._heap),
        }

    def validate_not_past(self, event: Event, now: float) -> None:
        """Guard against scheduling into the past."""
        if event.time < now - 1e-12:
            raise SchedulingError(
                f"event at t={event.time} is before current time t={now}"
            )
