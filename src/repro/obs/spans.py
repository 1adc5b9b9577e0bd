"""Ring-buffered span tracer with wall *and* virtual timestamps.

Design constraints, in order:

1. **Fingerprints must not move.**  Tracing never touches simulation
   state; it only *reads* the virtual clock.  All recorded data stays
   outside hashed result fields.
2. **Disabled must be ~free.**  `span()` on a disabled tracer returns a
   shared no-op singleton — one attribute check, no allocation — so the
   realloc hot loop can stay instrumented unconditionally.
3. **Bounded memory.**  Spans land in a `deque(maxlen=...)`; overflow
   evicts the oldest and bumps `dropped`.

Thread model: each thread gets its own depth stack (`threading.local`)
so fleet worker threads nest independently; the ring buffer itself is
guarded by a lock only on the record path (enabled-only cost).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

DEFAULT_CAPACITY = 65536


@dataclass
class Span:
    """One completed timed region."""

    name: str
    wall_start: float          # epoch seconds (time.time at tracer start
    wall_end: float            # + perf_counter delta: monotonic *and* absolute)
    virtual_start: Optional[float]
    virtual_end: Optional[float]
    depth: int
    thread: str
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def wall_duration(self) -> float:
        return self.wall_end - self.wall_start

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
            "wall_duration": self.wall_duration,
            "depth": self.depth,
            "thread": self.thread,
        }
        if self.virtual_start is not None:
            out["virtual_start"] = self.virtual_start
        if self.virtual_end is not None:
            out["virtual_end"] = self.virtual_end
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class _NullSpan:
    """Shared no-op context manager handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """A live span; records itself into the tracer on exit."""

    __slots__ = ("_tracer", "name", "attrs", "_wall_start", "_virtual_start",
                 "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-region (e.g. result sizes)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        local = tracer._local
        depth = getattr(local, "depth", 0)
        local.depth = depth + 1
        self._depth = depth
        self._wall_start = time.perf_counter()
        clock = tracer._virtual_clock
        self._virtual_start = clock() if clock is not None else None
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        wall_end = time.perf_counter()
        clock = tracer._virtual_clock
        virtual_end = clock() if clock is not None else None
        tracer._local.depth = self._depth
        tracer._record(Span(
            name=self.name,
            wall_start=tracer._epoch + self._wall_start,
            wall_end=tracer._epoch + wall_end,
            virtual_start=self._virtual_start,
            virtual_end=virtual_end,
            depth=self._depth,
            thread=threading.current_thread().name,
            attrs=self.attrs,
        ))
        return False


class Tracer:
    """Ring-buffered tracer.  Off by default; `enable()` to arm."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.enabled = False
        self.dropped = 0
        self._capacity = capacity
        self._spans: "list[Span]" = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._virtual_clock: Optional[Callable[[], float]] = None
        # Anchor: epoch + perf_counter gives timestamps that are both
        # monotonic (within a process) and absolute (across processes).
        self._epoch = time.time() - time.perf_counter()

    # -- lifecycle ---------------------------------------------------

    def enable(self, capacity: Optional[int] = None) -> None:
        if capacity is not None:
            self._capacity = capacity
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def set_virtual_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Install (or remove) the simulated-time source for new spans."""
        self._virtual_clock = clock

    # -- recording ---------------------------------------------------

    def span(self, name: str, /, **attrs) -> "_ActiveSpan | _NullSpan":
        if not self.enabled:
            return NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def _record(self, sp: Span) -> None:
        with self._lock:
            if len(self._spans) >= self._capacity:
                # Ring semantics: evict oldest.  A plain list + slice
                # keeps iteration order simple; eviction is rare and
                # amortized by dropping a block at once.
                evict = max(1, self._capacity // 16)
                del self._spans[:evict]
                self.dropped += evict
            self._spans.append(sp)

    # -- inspection --------------------------------------------------

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


TRACER = Tracer()


def span(name: str, /, **attrs):
    """Module-level shortcut: ``with span("realloc.solve", flows=N):``

    ``name`` is positional-only so attributes may freely use the key
    ``name`` (``span("scenario.run", name=spec.name)``).
    """
    if not TRACER.enabled:
        return NULL_SPAN
    return _ActiveSpan(TRACER, name, attrs)


def enable_tracing(capacity: Optional[int] = None) -> None:
    TRACER.enable(capacity)


def disable_tracing() -> None:
    TRACER.disable()


def tracing_enabled() -> bool:
    return TRACER.enabled
