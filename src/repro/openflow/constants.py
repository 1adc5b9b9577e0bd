"""OpenFlow protocol constants (1.0-flavoured)."""

from __future__ import annotations

import enum

# We advertise version 1 (OpenFlow 1.0); the subset implemented is the
# one Horse's demo needs (flow-mods, packet-in/out, port & flow stats).
OFP_VERSION = 0x01

OFP_HEADER_LEN = 8
OFP_NO_BUFFER = 0xFFFFFFFF
OFP_DEFAULT_PRIORITY = 0x8000
OFP_FLOW_PERMANENT = 0  # idle/hard timeout value meaning "never expire"


class OFDecodeError(ValueError):
    """The one error every OpenFlow decoder raises on malformed bytes.

    Lives here (not in ``messages``) because the match, action and
    bucket codecs raise it too, and ``messages`` imports those.
    """


class MsgType(enum.IntEnum):
    """OpenFlow message type codes (ofp_type)."""

    HELLO = 0
    ERROR = 1
    ECHO_REQUEST = 2
    ECHO_REPLY = 3
    FEATURES_REQUEST = 5
    FEATURES_REPLY = 6
    PACKET_IN = 10
    FLOW_REMOVED = 11
    PORT_STATUS = 12
    PACKET_OUT = 13
    FLOW_MOD = 14
    GROUP_MOD = 15  # OF 1.1+ extension: select groups for ECMP
    STATS_REQUEST = 16
    STATS_REPLY = 17
    BARRIER_REQUEST = 18
    BARRIER_REPLY = 19


class PortNo(enum.IntEnum):
    """Reserved port numbers (subset of ofp_port).

    Ports are 32-bit here (an OF 1.3-ism kept for headroom; OF 1.0 used
    16-bit ports — documented deviation).
    """

    IN_PORT = 0xFFFFFFF8
    FLOOD = 0xFFFFFFFB
    ALL = 0xFFFFFFFC
    CONTROLLER = 0xFFFFFFFD
    LOCAL = 0xFFFFFFFE
    ANY = 0xFFFFFFFF


class FlowModCommand(enum.IntEnum):
    """ofp_flow_mod_command."""

    ADD = 0
    MODIFY = 1
    MODIFY_STRICT = 2
    DELETE = 3
    DELETE_STRICT = 4


class StatsType(enum.IntEnum):
    """ofp_stats_types (subset)."""

    FLOW = 1
    AGGREGATE = 2
    PORT = 4


class GroupModCommand(enum.IntEnum):
    """ofp_group_mod_command."""

    ADD = 0
    MODIFY = 1
    DELETE = 2


class GroupType(enum.IntEnum):
    """ofp_group_type (subset: the two the data plane can express)."""

    ALL = 0      # replicate to every bucket (not used by the demo)
    SELECT = 1   # hash-select one bucket — switch-side ECMP


class ErrorType(enum.IntEnum):
    """ofp_error_type (subset)."""

    HELLO_FAILED = 0
    BAD_REQUEST = 1
    BAD_ACTION = 2
    FLOW_MOD_FAILED = 3
