"""OpenFlow group table: switch-side ECMP via SELECT groups.

OpenFlow 1.1+ lets a flow entry point at a *group*; a SELECT group
hashes each flow onto one of its action buckets.  This is how real
fabrics do proactive ECMP — a handful of prefix entries plus one
group, instead of one exact-match entry per flow — and it is the
extension this reproduction adds beyond the paper's OF 1.0 feature
set (the paper lists programmable-switch support as future work).

Bucket selection uses the flow's five-tuple hash with a per-switch
seed, matching the data plane's router ECMP behaviour.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import DataPlaneError
from repro.netproto.hashing import ecmp_hash, five_tuple_hash
from repro.netproto.packet import FiveTuple
from repro.openflow.actions import Action, decode_actions, encode_actions
from repro.openflow.constants import GroupType, OFDecodeError

_BUCKET_HEAD = struct.Struct("!H2x")


@dataclass(frozen=True)
class Bucket:
    """One action bucket of a group."""

    actions: Tuple[Action, ...]

    def encode(self) -> bytes:
        wire_actions = encode_actions(list(self.actions))
        return _BUCKET_HEAD.pack(4 + len(wire_actions)) + wire_actions

    @classmethod
    def from_wire(cls, data: bytes, start: int, end: int) -> Tuple["Bucket", int]:
        """Parse the bucket at ``data[start:]`` (it must end by ``end``);
        returns (bucket, offset just past it)."""
        if end - start < 4:
            raise OFDecodeError("truncated bucket")
        (length,) = _BUCKET_HEAD.unpack_from(data, start)
        if length < 4 or start + length > end:
            raise OFDecodeError(f"bad bucket length {length}")
        stop = start + length
        return cls(actions=tuple(decode_actions(data, start + 4, stop))), stop


@dataclass(frozen=True)
class Group:
    """A group table entry."""

    group_id: int
    group_type: GroupType = GroupType.SELECT
    buckets: Tuple[Bucket, ...] = ()

    def select_bucket(self, flow: FiveTuple, seed: int = 0) -> Optional[Bucket]:
        """The bucket a SELECT group hashes this flow onto."""
        if not self.buckets:
            return None
        if self.group_type is GroupType.SELECT:
            index = ecmp_hash(five_tuple_hash(flow, seed=seed), len(self.buckets))
            return self.buckets[index]
        return self.buckets[0]


class GroupTable:
    """The per-switch group table."""

    def __init__(self, owner=None) -> None:
        self._groups: Dict[int, Group] = {}
        self.version = 0
        self._owner = owner  # the Switch folding version into fwd_epoch

    def _bump(self) -> None:
        """Every mutation lands here: the version moves (and with it
        the owner's ``fwd_epoch``) and the owner is registered as
        touched with its network."""
        self.version += 1
        if self._owner is not None:
            self._owner.touched()

    def add(self, group: Group) -> None:
        """Insert a group; re-adding an existing id is an error (spec)."""
        if group.group_id in self._groups:
            raise DataPlaneError(f"group {group.group_id} already exists")
        self._groups[group.group_id] = group
        self._bump()

    def modify(self, group: Group) -> None:
        """Replace an existing group's type/buckets."""
        if group.group_id not in self._groups:
            raise DataPlaneError(f"group {group.group_id} does not exist")
        self._groups[group.group_id] = group
        self._bump()

    def delete(self, group_id: int) -> bool:
        """Remove a group; True when it existed."""
        removed = self._groups.pop(group_id, None) is not None
        if removed:
            self._bump()
        return removed

    def get(self, group_id: int) -> Optional[Group]:
        """Look a group up by id."""
        return self._groups.get(group_id)

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, group_id: int) -> bool:
        return group_id in self._groups
