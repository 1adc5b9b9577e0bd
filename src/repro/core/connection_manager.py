"""The Connection Manager — the bridge between emulation and simulation.

Figure 2 of the paper places the Connection Manager (CM) between the
emulated control plane and the simulated data plane.  It has three
responsibilities, all reproduced here:

1. **Carry control-plane bytes.**  Emulated endpoints (BGP/OSPF daemons,
   OpenFlow controllers and switch agents) communicate over
   :class:`ControlChannel` objects.  A channel is a reliable, in-order
   byte stream with a configurable latency — the simulated stand-in for
   the TCP connections Quagga and OpenFlow use in real Horse.
2. **Signal control activity.**  Every send and every delivery notifies
   the hybrid clock, which is what triggers (or sustains) FTI mode.
3. **Program the data plane.**  When a daemon's RIB changes, the CM
   installs/withdraws the corresponding FIB entries in the simulated
   router, and relays OpenFlow flow-table changes to switch models —
   the "Install routes" arrow of Figure 1.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Protocol, TYPE_CHECKING

from repro.core.errors import ControlPlaneError, SchedulingError
from repro.core.events import ControlDeliveryEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.simulation import Simulation


class ControlEndpoint(Protocol):
    """Anything that can terminate a control channel.

    Implementations: BGP/OSPF daemons, OpenFlow controllers, OpenFlow
    switch agents.
    """

    name: str

    def receive(self, channel: "ControlChannel", data: bytes, metadata: Any) -> None:
        """Handle bytes delivered on ``channel``."""
        ...  # pragma: no cover - protocol definition


class ControlChannel:
    """A bidirectional, reliable, in-order control-plane byte stream."""

    _ids = itertools.count(1)

    def __init__(
        self,
        manager: "ConnectionManager",
        endpoint_a: ControlEndpoint,
        endpoint_b: ControlEndpoint,
        latency: float = 0.0001,
        label: str = "",
    ):
        if latency < 0:
            raise ControlPlaneError(f"negative channel latency: {latency}")
        self.id = next(self._ids)
        self.manager = manager
        self.endpoint_a = endpoint_a
        self.endpoint_b = endpoint_b
        self.latency = latency
        self.label = label or f"chan{self.id}"
        self.open = True
        self.messages_ab = 0
        self.messages_ba = 0
        self.bytes_ab = 0
        self.bytes_ba = 0

    def peer_of(self, endpoint: ControlEndpoint) -> ControlEndpoint:
        """The endpoint at the other side of the channel."""
        if endpoint is self.endpoint_a:
            return self.endpoint_b
        if endpoint is self.endpoint_b:
            return self.endpoint_a
        raise ControlPlaneError(
            f"{getattr(endpoint, 'name', endpoint)!r} is not on channel {self.label}"
        )

    def send(self, sender: ControlEndpoint, data: bytes, metadata: Any = None) -> None:
        """Send bytes from ``sender`` to the opposite endpoint."""
        if not self.open:
            return  # bytes into a closed channel vanish, like a dead TCP peer
        receiver = self.peer_of(sender)
        if sender is self.endpoint_a:
            self.messages_ab += 1
            self.bytes_ab += len(data)
        else:
            self.messages_ba += 1
            self.bytes_ba += len(data)
        self.manager.deliver(self, receiver, data, metadata)

    def close(self) -> None:
        """Tear the channel down; in-flight bytes are still delivered."""
        self.open = False

    def reopen(self) -> None:
        """Bring the channel back (cable replugged)."""
        self.open = True

    @property
    def total_messages(self) -> int:
        """Messages carried in both directions."""
        return self.messages_ab + self.messages_ba

    @property
    def total_bytes(self) -> int:
        """Bytes carried in both directions."""
        return self.bytes_ab + self.bytes_ba

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        a = getattr(self.endpoint_a, "name", "?")
        b = getattr(self.endpoint_b, "name", "?")
        return f"<ControlChannel {self.label} {a}<->{b} msgs={self.total_messages}>"


class ConnectionManager:
    """Bridges emulated control plane and simulated data plane."""

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.channels: List[ControlChannel] = []
        self.route_installs = 0
        self.route_withdrawals = 0
        self.flow_mods = 0
        self.deliveries = 0
        # Observers get (channel, receiver, data) on every delivery;
        # used by tests and by the experiment tracer.
        self._observers: List[Callable[[ControlChannel, ControlEndpoint, bytes], None]] = []

    # -- channels ---------------------------------------------------------

    def open_channel(
        self,
        endpoint_a: ControlEndpoint,
        endpoint_b: ControlEndpoint,
        latency: float = 0.0001,
        label: str = "",
    ) -> ControlChannel:
        """Create a control channel between two emulated endpoints."""
        channel = ControlChannel(self, endpoint_a, endpoint_b, latency, label)
        self.channels.append(channel)
        return channel

    def deliver(
        self,
        channel: ControlChannel,
        receiver: ControlEndpoint,
        data: bytes,
        metadata: Any = None,
    ) -> None:
        """Schedule delivery of control bytes after the channel latency.

        Sending is control-plane activity: the clock is notified *now*
        (enter/stay in FTI), and again at delivery time by the event.
        """
        sim = self.sim
        clock = sim.clock
        clock.notify_control_activity()
        latency = channel.latency
        if latency < 0:
            # now + latency is never in the past otherwise, which is
            # all Scheduler.push would check.
            raise SchedulingError(
                f"negative latency {latency} on channel {channel.label}")
        self.deliveries += 1
        sim.queue.push(ControlDeliveryEvent(
            clock.now + latency, channel, receiver, data, metadata))
        if self._observers:
            for observer in self._observers:
                observer(channel, receiver, data)

    def add_observer(
        self, observer: Callable[[ControlChannel, ControlEndpoint, bytes], None]
    ) -> None:
        """Register a callback invoked on every control-plane send."""
        self._observers.append(observer)

    # -- data-plane programming -------------------------------------------

    def install_route(self, node_name: str, prefix, next_hops) -> None:
        """Install a route into a simulated router's FIB.

        ``next_hops`` is a list of (port, gateway) pairs; more than one
        entry means ECMP.  Called by routing daemons when their RIB
        selects new best paths.
        """
        router = self._router(node_name)
        router.fib.install(prefix, next_hops)
        self.route_installs += 1
        self.sim.clock.notify_control_activity()
        self.sim.network.invalidate_routing()

    def withdraw_route(self, node_name: str, prefix) -> None:
        """Remove a route from a simulated router's FIB."""
        router = self._router(node_name)
        router.fib.withdraw(prefix)
        self.route_withdrawals += 1
        self.sim.clock.notify_control_activity()
        self.sim.network.invalidate_routing()

    def record_flow_mod(self) -> None:
        """Count an OpenFlow flow-table change (switch agents call this)."""
        self.flow_mods += 1
        self.sim.clock.notify_control_activity()
        self.sim.network.invalidate_routing()

    def _router(self, node_name: str):
        network = self.sim.network
        if network is None:
            raise ControlPlaneError("no network attached to the simulation")
        node = network.get_node(node_name)
        if not hasattr(node, "fib"):
            raise ControlPlaneError(f"node {node_name!r} has no FIB")
        return node

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        """Counters used by benches and integration tests."""
        return {
            "channels": len(self.channels),
            "deliveries": self.deliveries,
            "route_installs": self.route_installs,
            "route_withdrawals": self.route_withdrawals,
            "flow_mods": self.flow_mods,
            "control_messages": sum(c.total_messages for c in self.channels),
            "control_bytes": sum(c.total_bytes for c in self.channels),
        }
