"""The controller-side OpenFlow endpoint and its application model.

A :class:`Controller` is an emulated control-plane process hosting one
or more :class:`ControllerApp` instances (the paper's "Applications"
box in Figure 2).  It performs the OpenFlow handshake with every
connected switch agent and dispatches events to the apps, Ryu-style:

* ``on_switch_join(dp)`` — handshake completed;
* ``on_packet_in(dp, msg)`` — table miss somewhere;
* ``on_stats_reply(dp, msg)`` — statistics arrived (Hedera's food);
* ``on_flow_removed(dp, msg)`` — an entry expired.

``dp`` is a :class:`Datapath` handle with convenience senders
(``flow_mod``, ``packet_out``, ``request_flow_stats`` ...).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.openflow.actions import Action
from repro.openflow.constants import (
    FlowModCommand,
    OFDecodeError,
    OFP_NO_BUFFER,
    StatsType,
)
from repro.openflow.match import Match, MatchInterner
from repro.openflow.messages import (
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    Hello,
    OFMessage,
    PacketIn,
    PacketOut,
    StatsReply,
    StatsRequest,
    counts_by_type,
    decode_messages,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.connection_manager import ControlChannel
    from repro.core.simulation import Simulation


class Datapath:
    """The controller's handle on one connected switch."""

    def __init__(self, controller: "Controller", channel: "ControlChannel",
                 name: str):
        self.controller = controller
        self.channel = channel
        self.name = name  # switch name, for logs and app convenience
        self.dpid: Optional[int] = None
        self.ports: List[int] = []
        self.ready = False

    # -- senders ---------------------------------------------------------------

    def send(self, message: OFMessage) -> None:
        """Send a raw OpenFlow message to this switch."""
        self.controller.sent[type(message)] += 1
        self.channel.send(self.controller, message.encode())

    def flow_mod(
        self,
        match: Match,
        actions: List[Action],
        priority: int = 0x8000,
        command: FlowModCommand = FlowModCommand.ADD,
        idle_timeout: int = 0,
        hard_timeout: int = 0,
        cookie: int = 0,
    ) -> None:
        """Install/modify/delete a flow entry."""
        self.send(
            FlowMod(
                xid=self.controller.next_xid(),
                match=match,
                actions=actions,
                priority=priority,
                command=command,
                idle_timeout=idle_timeout,
                hard_timeout=hard_timeout,
                cookie=cookie,
            )
        )

    def packet_out(self, data: bytes, actions: List[Action],
                   in_port: int = 0) -> None:
        """Inject a packet into the switch's data plane."""
        self.send(
            PacketOut(
                xid=self.controller.next_xid(),
                buffer_id=OFP_NO_BUFFER,
                in_port=in_port,
                actions=actions,
                data=data,
            )
        )

    def group_mod(self, group_id: int, buckets, command=None,
                  group_type=None) -> None:
        """Create/modify/delete a SELECT group (switch-side ECMP)."""
        from repro.openflow.constants import GroupModCommand, GroupType
        from repro.openflow.messages import GroupMod

        self.send(
            GroupMod(
                xid=self.controller.next_xid(),
                command=command if command is not None else GroupModCommand.ADD,
                group_type=group_type if group_type is not None else GroupType.SELECT,
                group_id=group_id,
                buckets=list(buckets),
            )
        )

    def request_flow_stats(self, match: "Match | None" = None) -> int:
        """Ask for flow statistics; returns the request xid."""
        xid = self.controller.next_xid()
        self.send(StatsRequest(xid=xid, stats_type=StatsType.FLOW,
                               match=match or Match()))
        return xid

    def barrier(self) -> None:
        """Send a barrier request."""
        self.send(BarrierRequest(xid=self.controller.next_xid()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Datapath {self.name} dpid={self.dpid} ready={self.ready}>"


class ControllerApp:
    """Base class for controller applications."""

    name = "app"

    def __init__(self) -> None:
        self.controller: Optional["Controller"] = None

    # Lifecycle -----------------------------------------------------------------
    def setup(self, controller: "Controller") -> None:
        """Called when the app is added to a controller."""
        self.controller = controller

    def on_start(self, sim: "Simulation") -> None:
        """Called when the experiment starts (arm timers here)."""

    # Events ---------------------------------------------------------------------
    def on_switch_join(self, dp: Datapath) -> None:
        """A switch finished its handshake."""

    def on_packet_in(self, dp: Datapath, message: PacketIn) -> None:
        """A PACKET_IN arrived."""

    def on_stats_reply(self, dp: Datapath, message: StatsReply) -> None:
        """A STATS_REPLY arrived."""

    def on_flow_removed(self, dp: Datapath, message: FlowRemoved) -> None:
        """A FLOW_REMOVED arrived."""

    def stats(self) -> Dict[str, int]:
        """Counters for diagnostics and benches (none by default)."""
        return {}


class Controller:
    """An emulated SDN controller process."""

    def __init__(self, name: str = "controller"):
        self.name = name
        self.sim: Optional["Simulation"] = None
        self.apps: List[ControllerApp] = []
        self.datapaths: Dict[int, Datapath] = {}  # keyed by channel id
        self._by_name: Dict[str, Datapath] = {}
        # One parse per distinct match extent; the experiment hands the
        # same table to this controller's switch agents.
        self.matches = MatchInterner()
        self._xid = 0
        self.packet_ins = 0
        self.stats_replies = 0
        self.decode_errors = 0
        self.sent: Dict[type, int] = defaultdict(int)  # by message class
        self.received: Dict[type, int] = defaultdict(int)
        # FLOW stats entries that reached the apps and were read
        # header-first vs materialised into FlowStatsEntry objects.
        self.stats_entries_header_first = 0
        self.stats_entries_materialised = 0

    # -- wiring ---------------------------------------------------------------------

    def add_app(self, app: ControllerApp) -> ControllerApp:
        """Host an application on this controller."""
        self.apps.append(app)
        app.setup(self)
        return app

    def bind_channel(self, channel: "ControlChannel", switch_name: str) -> Datapath:
        """Register the channel to one switch agent (called by the API)."""
        datapath = Datapath(self, channel, switch_name)
        self.datapaths[channel.id] = datapath
        self._by_name.setdefault(switch_name, datapath)
        return datapath

    def start(self, sim: "Simulation") -> None:
        """Process hook: start handshakes and app timers."""
        self.sim = sim
        for datapath in self.datapaths.values():
            datapath.send(Hello(xid=self.next_xid()))
            datapath.send(FeaturesRequest(xid=self.next_xid()))
        for app in self.apps:
            app.on_start(sim)

    # -- channel input -----------------------------------------------------------------

    def receive(self, channel: "ControlChannel", data: bytes, metadata: Any) -> None:
        """Handle switch -> controller bytes (possibly several messages).

        The whole delivery is decoded before any of it is dispatched: a
        delivery with a malformed message anywhere in it is counted and
        dropped, and no app hears of it.
        """
        datapath = self.datapaths.get(channel.id)
        if datapath is None:
            return
        try:
            messages = decode_messages(data, self.matches)
        except OFDecodeError:
            self.decode_errors += 1
            return
        for message in messages:
            self._dispatch(datapath, message)

    def _dispatch(self, dp: Datapath, message: OFMessage) -> None:
        self.received[type(message)] += 1
        if isinstance(message, Hello):
            return
        if isinstance(message, FeaturesReply):
            dp.dpid = message.datapath_id
            dp.ports = [port.port_no for port in message.ports]
            dp.ready = True
            for app in self.apps:
                app.on_switch_join(dp)
        elif isinstance(message, PacketIn):
            self.packet_ins += 1
            for app in self.apps:
                app.on_packet_in(dp, message)
        elif isinstance(message, StatsReply):
            self.stats_replies += 1
            entries = message.flow_entries_held
            for app in self.apps:
                app.on_stats_reply(dp, message)
            if message.flow_entries_held:
                self.stats_entries_header_first += entries
            else:
                self.stats_entries_materialised += entries
        elif isinstance(message, FlowRemoved):
            for app in self.apps:
                app.on_flow_removed(dp, message)
        elif isinstance(message, EchoRequest):
            dp.send(EchoReply(xid=message.xid, data=message.data))
        elif isinstance(message, ErrorMsg):
            # Errors are recorded but not fatal; apps may inspect them.
            pass

    # -- helpers ------------------------------------------------------------------------

    def next_xid(self) -> int:
        """Monotonic transaction id."""
        self._xid += 1
        return self._xid

    def datapath_by_name(self, switch_name: str) -> Optional[Datapath]:
        """Find a datapath by its switch's name."""
        return self._by_name.get(switch_name)

    def stats(self) -> Dict[str, int]:
        """Counters for diagnostics and benches: messages by type each
        way, decode errors, the match table's hits and misses, and how
        FLOW stats entries were read."""
        stats = {
            "datapaths": len(self.datapaths),
            "packet_ins": self.packet_ins,
            "stats_replies": self.stats_replies,
            "decode_errors": self.decode_errors,
            "match_intern_hits": self.matches.hits,
            "match_intern_misses": self.matches.misses,
            "stats_entries_header_first": self.stats_entries_header_first,
            "stats_entries_materialised": self.stats_entries_materialised,
        }
        stats.update(counts_by_type(self.sent, self.received))
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Controller {self.name} dps={len(self.datapaths)} apps={len(self.apps)}>"
