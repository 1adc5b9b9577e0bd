"""The classic learning L2 switch.

Reactive MAC learning: remember which port each source MAC was seen
on; known destinations get an exact dl_dst flow entry plus a
PACKET_OUT of the triggering frame, unknown destinations get flooded.

Works on loop-free topologies (no spanning tree — documented
limitation, as in every minimal controller tutorial).  This app
exercises the full reactive machinery: PACKET_IN, FLOW_MOD and
PACKET_OUT, including flooding.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.netproto.packet import Packet, PacketDecodeError
from repro.openflow.actions import ActionOutput
from repro.openflow.constants import PortNo
from repro.openflow.controller import ControllerApp, Datapath
from repro.openflow.match import Match
from repro.openflow.messages import PacketIn


class LearningSwitchApp(ControllerApp):
    """Per-switch MAC learning."""

    name = "learning-switch"

    def __init__(self, idle_timeout: int = 0):
        super().__init__()
        self.idle_timeout = idle_timeout
        # (switch name, mac int) -> port
        self.mac_tables: Dict[Tuple[str, int], int] = {}
        self.floods = 0
        self.installs = 0

    def on_packet_in(self, dp: Datapath, message: PacketIn) -> None:
        try:
            packet = Packet.decode(message.data)
        except PacketDecodeError:
            return  # nothing to learn from a frame that does not parse
        src_key = (dp.name, int(packet.eth.src))
        self.mac_tables[src_key] = message.in_port

        if packet.eth.dst.is_broadcast() or packet.eth.dst.is_multicast():
            self._flood(dp, message)
            return

        dst_key = (dp.name, int(packet.eth.dst))
        out_port = self.mac_tables.get(dst_key)
        if out_port is None:
            self._flood(dp, message)
            return

        self.installs += 1
        dp.flow_mod(
            match=Match(dl_dst=packet.eth.dst),
            actions=[ActionOutput(out_port)],
            priority=100,
            idle_timeout=self.idle_timeout,
        )
        dp.packet_out(
            data=message.data,
            actions=[ActionOutput(out_port)],
            in_port=message.in_port,
        )

    def _flood(self, dp: Datapath, message: PacketIn) -> None:
        self.floods += 1
        dp.packet_out(
            data=message.data,
            actions=[ActionOutput(PortNo.FLOOD)],
            in_port=message.in_port,
        )
