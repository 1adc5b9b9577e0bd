"""The datapath-side OpenFlow endpoint.

A :class:`SwitchAgent` attaches to a simulated switch and terminates
its control channel: it answers the controller's handshake, applies
FLOW_MODs to the simulated flow table, resolves PACKET_OUTs into
transmissions, serves statistics from the fluid counters and raises
PACKET_INs on table misses.

Every byte that crosses the channel is a real encoded OpenFlow message
— the Connection Manager sees genuine control-plane traffic, which is
what drives the hybrid clock into FTI mode.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.core.errors import ControlPlaneError
from repro.netproto.packet import Packet, PacketDecodeError
from repro.openflow.actions import ActionOutput
from repro.openflow.constants import (
    ErrorType,
    FlowModCommand,
    GroupModCommand,
    OFDecodeError,
    PortNo,
    StatsType,
)
from repro.openflow.groups import Group
from repro.openflow.match import Match, MatchInterner
from repro.openflow.messages import (
    AggregateStats,
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    GroupMod,
    Hello,
    OFMessage,
    PacketIn,
    PacketOut,
    PortDesc,
    PortStatsEntry,
    StatsReply,
    StatsRequest,
    counts_by_type,
    decode_messages,
)

_MATCH_ALL = Match()

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.connection_manager import ControlChannel
    from repro.core.simulation import Simulation
    from repro.dataplane.switch import Switch


class SwitchAgent:
    """Bridges one simulated switch to its OpenFlow controller."""

    def __init__(self, switch: "Switch",
                 matches: "MatchInterner | None" = None):
        self.switch = switch
        self.name = f"agent-{switch.name}"
        self.channel: Optional["ControlChannel"] = None
        self.sim: Optional["Simulation"] = None
        self.connected = False
        # The experiment passes its controller's table, so a match sent
        # down a path is parsed by the first agent on it only.
        self.matches = matches if matches is not None else MatchInterner()
        self.packet_ins_sent = 0
        self.flow_mods_applied = 0
        self.decode_errors = 0
        self.sent: Dict[type, int] = defaultdict(int)  # by message class
        self.received: Dict[type, int] = defaultdict(int)
        self._xid = 0
        switch.agent = self

    # -- lifecycle -----------------------------------------------------------

    def start(self, sim: "Simulation") -> None:
        """Process hook: remember the simulation."""
        self.sim = sim

    def bind_channel(self, channel: "ControlChannel") -> None:
        """Attach the control channel to the controller."""
        self.channel = channel

    def tick(self, now: float) -> None:
        """Periodic upkeep: expire timed-out flow entries.

        Almost always one float compare: the table knows the earliest
        time any of its entries could expire.  Only when that time has
        come are the byte counters — and with them every entry's
        ``last_used_at`` — brought current, so idleness is judged on
        what the flows did up to ``now``, not up to the last time
        somebody happened to read a counter.
        """
        table = self.switch.table
        if not table.expiry_due(now):
            return
        if self.sim is not None and self.sim.network is not None:
            self.sim.network.accrue(now)
        expired = table.expire(now)
        for entry in expired:
            self._send(
                FlowRemoved(
                    match=entry.match,
                    priority=entry.priority,
                    cookie=entry.cookie,
                    duration_sec=entry.duration(now),
                    packet_count=entry.packet_count,
                    byte_count=int(entry.byte_count),
                )
            )
        if expired and self.sim is not None and self.sim.network is not None:
            self.sim.network.invalidate_routing()

    # -- channel input ----------------------------------------------------------

    def receive(self, channel: "ControlChannel", data: bytes, metadata: Any) -> None:
        """Handle controller -> switch bytes (possibly several messages).

        The whole delivery is decoded before any of it is applied: if a
        message anywhere in it is malformed, nothing is — no flow-mod
        ahead of the bad one reaches the table — and the controller gets
        an ``ErrorMsg`` (bad request) back.
        """
        try:
            messages = decode_messages(data, self.matches)
        except OFDecodeError:
            self.decode_errors += 1
            self._send(ErrorMsg(err_type=ErrorType.BAD_REQUEST))
            return
        for message in messages:
            self._dispatch(message)

    def _dispatch(self, message: OFMessage) -> None:
        self.received[type(message)] += 1
        if isinstance(message, Hello):
            self._send(Hello(xid=message.xid))
        elif isinstance(message, FeaturesRequest):
            self._send(self._features_reply(message.xid))
            self.connected = True
        elif isinstance(message, EchoRequest):
            self._send(EchoReply(xid=message.xid, data=message.data))
        elif isinstance(message, FlowMod):
            self._apply_flow_mod(message)
        elif isinstance(message, GroupMod):
            self._apply_group_mod(message)
        elif isinstance(message, PacketOut):
            self._apply_packet_out(message)
        elif isinstance(message, StatsRequest):
            self._send(self._stats_reply(message))
        elif isinstance(message, BarrierRequest):
            self._send(BarrierReply(xid=message.xid))
        else:
            self._send(
                ErrorMsg(xid=message.xid, err_type=ErrorType.BAD_REQUEST,
                         data=type(message).__name__.encode())
            )

    # -- message handlers -----------------------------------------------------------

    def _features_reply(self, xid: int) -> FeaturesReply:
        ports = [
            PortDesc(port_no=number, name=f"{self.switch.name}-eth{number}")
            for number in sorted(self.switch.ports)
        ]
        return FeaturesReply(
            xid=xid, datapath_id=self.switch.dpid, n_tables=1, ports=ports
        )

    def _apply_flow_mod(self, message: FlowMod) -> None:
        # Imported here, not at module top: dataplane.flowtable needs
        # openflow.actions, so a top-level import would be circular.
        from repro.dataplane.flowtable import FlowEntry

        now = self._now()
        table = self.switch.table
        if message.command is FlowModCommand.ADD:
            table.add(
                FlowEntry(
                    match=message.match,
                    actions=list(message.actions),
                    priority=message.priority,
                    cookie=message.cookie,
                    idle_timeout=message.idle_timeout,
                    hard_timeout=message.hard_timeout,
                    installed_at=now,
                    last_used_at=now,
                )
            )
        elif message.command in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
            strict = message.command is FlowModCommand.MODIFY_STRICT
            touched = False
            for entry in self.switch.table.entries():
                hit = (
                    entry.match.is_strict_equal(message.match)
                    and entry.priority == message.priority
                    if strict
                    else message.match.subsumes(entry.match)
                )
                if hit:
                    entry.actions = list(message.actions)
                    touched = True
            if not touched:  # MODIFY with no match behaves like ADD
                self._apply_flow_mod(
                    FlowMod(
                        xid=message.xid, match=message.match,
                        command=FlowModCommand.ADD, priority=message.priority,
                        idle_timeout=message.idle_timeout,
                        hard_timeout=message.hard_timeout,
                        cookie=message.cookie, actions=list(message.actions),
                    )
                )
                return
        elif message.command in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT):
            strict = message.command is FlowModCommand.DELETE_STRICT
            out_port = None if message.out_port == 0xFFFFFFFF else message.out_port
            table.delete(
                message.match, strict=strict,
                priority=message.priority if strict else None,
                out_port=out_port,
            )
        else:  # pragma: no cover - enum is exhaustive
            raise ControlPlaneError(f"unknown flow-mod command {message.command}")
        self.flow_mods_applied += 1
        if self.sim is not None:
            self.sim.cm.record_flow_mod()

    def _apply_group_mod(self, message: GroupMod) -> None:
        groups = self.switch.groups
        try:
            if message.command is GroupModCommand.ADD:
                groups.add(Group(
                    group_id=message.group_id,
                    group_type=message.group_type,
                    buckets=tuple(message.buckets),
                ))
            elif message.command is GroupModCommand.MODIFY:
                groups.modify(Group(
                    group_id=message.group_id,
                    group_type=message.group_type,
                    buckets=tuple(message.buckets),
                ))
            else:
                groups.delete(message.group_id)
        except Exception:
            self._send(ErrorMsg(xid=message.xid, err_type=3, err_code=0))
            return
        if self.sim is not None:
            self.sim.cm.record_flow_mod()

    def _apply_packet_out(self, message: PacketOut) -> None:
        if not message.data or self.sim is None or self.sim.network is None:
            return
        try:
            packet = Packet.decode(message.data)
        except PacketDecodeError:
            self._send(ErrorMsg(xid=message.xid,
                                err_type=ErrorType.BAD_REQUEST))
            return
        in_port = message.in_port
        outputs: List = []
        for action in message.actions:
            if not isinstance(action, ActionOutput):
                continue
            if action.port in (PortNo.FLOOD, PortNo.ALL):
                outputs.extend(
                    (number, packet) for number in self.switch.flood_ports(in_port)
                )
            elif action.port == PortNo.IN_PORT:
                outputs.append((in_port, packet))
            elif action.port in self.switch.ports:
                outputs.append((action.port, packet))
        self.sim.network.transmit(self.switch, outputs)

    def _stats_reply(self, request: StatsRequest) -> StatsReply:
        now = self._now()
        if self.sim is not None and self.sim.network is not None:
            # Counters must be current as of "now" for Hedera's demand
            # estimation to see fresh byte counts.
            self.sim.network.accrue(now)
        if request.stats_type is StatsType.FLOW:
            entries = self.switch.table.entries()
            wanted = request.match
            if wanted != _MATCH_ALL:  # the all-wildcard match subsumes all
                entries = [e for e in entries if wanted.subsumes(e.match)]
            return StatsReply.for_flow_rows(request.xid, (
                (entry.match, entry.priority, entry.duration(now),
                 entry.cookie, entry.packet_count, int(entry.byte_count))
                for entry in entries
            ))
        if request.stats_type is StatsType.PORT:
            wanted = request.port_no
            ports = [
                PortStatsEntry(
                    port_no=port.number,
                    rx_packets=port.rx_packets,
                    tx_packets=port.tx_packets,
                    rx_bytes=int(port.rx_bytes),
                    tx_bytes=int(port.tx_bytes),
                )
                for number, port in sorted(self.switch.ports.items())
                if wanted in (0xFFFFFFFF, number)
            ]
            return StatsReply(xid=request.xid, stats_type=StatsType.PORT,
                              port_stats=ports)
        total_bytes = sum(e.byte_count for e in self.switch.table.entries())
        total_packets = sum(e.packet_count for e in self.switch.table.entries())
        return StatsReply(
            xid=request.xid,
            stats_type=StatsType.AGGREGATE,
            aggregate=AggregateStats(
                packet_count=total_packets,
                byte_count=int(total_bytes),
                flow_count=len(self.switch.table),
            ),
        )

    # -- datapath -> controller ---------------------------------------------------------

    def packet_in(self, in_port: int, packet: Packet, now: float) -> None:
        """Raise a PACKET_IN for a table miss."""
        if self.channel is None:
            return
        data = packet.encode()
        self.packet_ins_sent += 1
        self._send(
            PacketIn(
                xid=self._next_xid(),
                total_len=packet.size or len(data),
                in_port=in_port,
                reason=0,
                data=data,
            )
        )

    # -- plumbing ----------------------------------------------------------------------

    def _send(self, message: OFMessage) -> None:
        if self.channel is None:
            return
        self.sent[type(message)] += 1
        self.channel.send(self, message.encode())

    def stats(self) -> Dict[str, int]:
        """Counters for diagnostics and benches: messages by type each
        way, decode errors, and the flow table's own (lookups answered
        by the five-tuple index vs by an ordered scan, expiry checks vs
        the sweeps they let through)."""
        table = self.switch.table
        stats = {
            "entries": len(table),
            "packet_ins_sent": self.packet_ins_sent,
            "flow_mods_applied": self.flow_mods_applied,
            "decode_errors": self.decode_errors,
            "table_lookups": table.lookups,
            "table_misses": table.misses,
            "table_index_hits": table.index_hits,
            "table_scans": table.scans,
            "expiry_checks": table.expiry_checks,
            "expiry_sweeps": table.expiry_sweeps,
        }
        stats.update(counts_by_type(self.sent, self.received))
        return stats

    def _next_xid(self) -> int:
        self._xid += 1
        return self._xid

    def _now(self) -> float:
        return self.sim.clock.now if self.sim is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SwitchAgent {self.name} connected={self.connected}>"
