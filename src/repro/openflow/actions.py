"""OpenFlow actions and their wire codec.

The subset Horse's demo needs: OUTPUT (to a port, to the controller, or
FLOOD) and SET_FIELD for the occasional rewrite.  An empty action list
means drop, as in the spec; :class:`ActionDrop` exists as an explicit
marker for readability in controller code.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

from repro.netproto.addr import IPv4Address, MACAddress
from repro.openflow.constants import OFDecodeError, PortNo

ACTION_OUTPUT = 0
ACTION_SET_DL_SRC = 4
ACTION_SET_DL_DST = 5
ACTION_SET_NW_SRC = 6
ACTION_SET_NW_DST = 7
ACTION_GROUP = 22  # OF 1.1+ OFPAT_GROUP
ACTION_DROP = 0xFFFF  # local marker, never a real wire code in OF 1.0

_TLV = struct.Struct("!HH")
_OUTPUT = struct.Struct("!HHIH2x")
_OUTPUT_BODY = struct.Struct("!IH2x")
_GROUP = struct.Struct("!HHI")
_U32 = struct.Struct("!I")


class Action:
    """Base class for flow actions."""

    type_code: int = -1

    def encode(self) -> bytes:
        """Serialise to (type, len, body...) TLV."""
        raise NotImplementedError


@dataclass(frozen=True)
class ActionOutput(Action):
    """Forward the packet/flow out of ``port``.

    ``port`` may be a physical port number or a reserved
    :class:`~repro.openflow.constants.PortNo` value (CONTROLLER, FLOOD).
    """

    port: int
    max_len: int = 0xFFFF

    type_code = ACTION_OUTPUT

    def encode(self) -> bytes:
        return _OUTPUT.pack(ACTION_OUTPUT, 12, self.port, self.max_len)

    def __str__(self) -> str:
        try:
            name = PortNo(self.port).name
        except ValueError:
            name = str(self.port)
        return f"output:{name}"


@dataclass(frozen=True)
class ActionSetField(Action):
    """Rewrite one header field (dl_src/dl_dst/nw_src/nw_dst)."""

    field: str
    value: "MACAddress | IPv4Address"

    _FIELD_CODES = {
        "dl_src": ACTION_SET_DL_SRC,
        "dl_dst": ACTION_SET_DL_DST,
        "nw_src": ACTION_SET_NW_SRC,
        "nw_dst": ACTION_SET_NW_DST,
    }

    @property
    def type_code(self) -> int:  # type: ignore[override]
        return self._FIELD_CODES[self.field]

    def encode(self) -> bytes:
        code = self._FIELD_CODES[self.field]
        if self.field.startswith("dl_"):
            body = self.value.packed() + b"\x00" * 6  # pad to 8
            return _TLV.pack(code, 4 + len(body)) + body
        body = self.value.packed() + b"\x00" * 4
        return _TLV.pack(code, 4 + len(body)) + body

    def __str__(self) -> str:
        return f"set_{self.field}:{self.value}"


@dataclass(frozen=True)
class ActionGroup(Action):
    """Send the packet/flow through a group (SELECT groups = ECMP)."""

    group_id: int

    type_code = ACTION_GROUP

    def encode(self) -> bytes:
        return _GROUP.pack(ACTION_GROUP, 8, self.group_id)

    def __str__(self) -> str:
        return f"group:{self.group_id}"


@dataclass(frozen=True)
class ActionDrop(Action):
    """Explicit drop marker — encodes to nothing (empty action list)."""

    type_code = ACTION_DROP

    def encode(self) -> bytes:
        return b""

    def __str__(self) -> str:
        return "drop"


def encode_actions(actions: List[Action]) -> bytes:
    """Serialise an action list to its wire form."""
    return b"".join(action.encode() for action in actions)


_SET_FIELDS = {
    ACTION_SET_DL_SRC: ("dl_src", 6, MACAddress),
    ACTION_SET_DL_DST: ("dl_dst", 6, MACAddress),
    ACTION_SET_NW_SRC: ("nw_src", 4, IPv4Address),
    ACTION_SET_NW_DST: ("nw_dst", 4, IPv4Address),
}


def decode_actions(data: bytes, start: int = 0,
                   end: "int | None" = None) -> List[Action]:
    """Parse the wire-form action list ``data[start:end]``.

    The TLVs must tile the extent exactly and each body must be at
    least as long as its type needs (longer is padding, as encoded);
    anything else is an :class:`OFDecodeError`.
    """
    if end is None:
        end = len(data)
    actions: List[Action] = []
    offset = start
    while offset + 4 <= end:
        code, length = _TLV.unpack_from(data, offset)
        if length < 4 or offset + length > end:
            raise OFDecodeError(f"bad action TLV at offset {offset - start}")
        body = offset + 4
        room = length - 4
        if code == ACTION_OUTPUT:
            if room != _OUTPUT_BODY.size:
                raise OFDecodeError("bad OUTPUT action length")
            port, max_len = _OUTPUT_BODY.unpack_from(data, body)
            actions.append(ActionOutput(port=port, max_len=max_len))
        elif code == ACTION_GROUP:
            if room < 4:
                raise OFDecodeError("truncated GROUP action")
            actions.append(ActionGroup(_U32.unpack_from(data, body)[0]))
        elif code in _SET_FIELDS:
            field, width, kind = _SET_FIELDS[code]
            if room < width:
                raise OFDecodeError(f"truncated set_{field} action")
            actions.append(ActionSetField(
                field, kind(int.from_bytes(data[body:body + width], "big"))))
        else:
            raise OFDecodeError(f"unknown action type {code}")
        offset += length
    if offset != end:
        raise OFDecodeError("trailing bytes after action list")
    return actions


def output_ports(actions: List[Action]) -> List[int]:
    """The ports an action list outputs to (empty = drop)."""
    return [a.port for a in actions if isinstance(a, ActionOutput)]
