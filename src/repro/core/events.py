"""Events and their ordering.

Every occurrence in the experiment — a flow starting, a BGP message
arriving, a statistics sample — is an :class:`Event` with a firing time,
a priority and a monotonically increasing sequence number.  The triple
``(time, priority, seq)`` gives a total, deterministic order: ties in
time break by priority (control plane first, statistics last), ties in
priority break by insertion order.

The sequence number is assigned by the
:class:`~repro.core.queue.EventQueue` an event is pushed onto, so each
simulation numbers its events from zero: identical seeds produce
identical traces no matter how many simulations ran earlier in the
process (campaign workers rely on this).  An event that was never
pushed has no ``seq``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.simulation import Simulation

# Lower value fires first among same-time events.
PRIORITY_CONTROL = 0
PRIORITY_DEFAULT = 10
PRIORITY_STATS = 20


class Event:
    """A schedulable occurrence in simulated time.

    Subclasses override :meth:`fire`.  Events support lazy cancellation:
    a cancelled event stays in the heap but is skipped when popped.
    ``seq`` is set by the :class:`~repro.core.queue.EventQueue` the
    event is pushed onto, from the queue's own counter (per-simulation
    determinism).
    """

    __slots__ = ("time", "priority", "seq", "cancelled")

    def __init__(self, time: float, priority: int = PRIORITY_DEFAULT):
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = float(time)
        self.priority = priority
        self.cancelled = False

    def sort_key(self) -> tuple:
        """The deterministic total-order key (of a pushed event)."""
        return (self.time, self.priority, self.seq)

    def cancel(self) -> None:
        """Mark the event so the queue drops it instead of firing it."""
        self.cancelled = True

    def fire(self, sim: "Simulation") -> None:
        """Execute the event's effect.  Subclasses must override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<{type(self).__name__} t={self.time:.6f} prio={self.priority}{state}>"


class CallbackEvent(Event):
    """The workhorse event: fires ``callback(*operands)``.

    A scheduled action is this one object: the callable and the
    operands it is called with ride in slots, so scheduling one needs
    no closure, cell or bound method.  The callback is a module-level
    function (or any callable) that looks up what it acts on when it
    fires, as a closure would.
    """

    __slots__ = ("callback", "operands", "label")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        operands: tuple = (),
        priority: int = PRIORITY_DEFAULT,
        label: str = "",
    ):
        # Every slot set here, Event.__init__'s included, as in
        # ControlDeliveryEvent: one action is one constructor call.
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = float(time)
        self.priority = priority
        self.cancelled = False
        self.callback = callback
        self.operands = operands
        self.label = label

    def fire(self, sim: "Simulation") -> None:
        self.callback(*self.operands)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.label or getattr(
            self.callback, "__qualname__", type(self.callback).__name__)
        return f"<CallbackEvent t={self.time:.6f} {label}>"


class ControlDeliveryEvent(Event):
    """Delivery of control-plane bytes to an emulated endpoint.

    Fired by the Connection Manager; always runs at control priority so
    the control plane observes a message before any same-instant
    data-plane consequence.
    """

    __slots__ = ("channel", "receiver", "data", "metadata")

    def __init__(self, time: float, channel, receiver, data: bytes, metadata=None):
        # Every slot set here, Event.__init__'s included: one delivery
        # is one object and one constructor call.
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = float(time)
        self.priority = PRIORITY_CONTROL
        self.cancelled = False
        self.channel = channel
        self.receiver = receiver
        self.data = data
        self.metadata = metadata

    def fire(self, sim: "Simulation") -> None:
        # Arrival of control bytes is itself control activity: it must
        # keep the clock in FTI mode (paper: "as long as both parties
        # exchange updates, the experiment remains in FTI mode").
        sim.clock.notify_control_activity(self.time)
        self.receiver.receive(self.channel, self.data, self.metadata)


class ProcessWakeupEvent(Event):
    """Wakes an emulated control-plane process so its timers can run.

    Emulated daemons (BGP, OSPF, controllers) expose a ``tick(now)``
    method; the engine wakes them at their requested times.
    """

    __slots__ = ("process",)

    def __init__(self, time: float, process):
        super().__init__(time, priority=PRIORITY_CONTROL)
        self.process = process

    def fire(self, sim: "Simulation") -> None:
        self.process.tick(self.time)
