"""Import/export routing policy.

A minimal route-map model: prefix-list filtering plus attribute
rewriting, applied on receipt (import) and before advertisement
(export).  Enough to express the common experiments — deny a prefix,
raise local-pref from a preferred neighbor, prepend for traffic
engineering — without a full policy language.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.bgp.messages import PathAttributes
from repro.netproto.addr import IPv4Prefix


def _passes(prefix: IPv4Prefix, deny: List[IPv4Prefix],
            allow_only: Optional[List[IPv4Prefix]]) -> bool:
    """The prefix-list filter both policies share: no denied prefix
    overlaps ``prefix``, and an allowed one does when the list is set.
    An empty list is decided without a scan: most policies are."""
    if deny and any(denied.overlaps(prefix) for denied in deny):
        return False
    return allow_only is None or (
        bool(allow_only)
        and any(allowed.overlaps(prefix) for allowed in allow_only))


@dataclass
class ImportPolicy:
    """Filters/rewrites applied to routes received from a peer."""

    deny_prefixes: List[IPv4Prefix] = field(default_factory=list)
    allow_only: Optional[List[IPv4Prefix]] = None
    set_local_pref: Optional[int] = None
    set_med: Optional[int] = None

    def apply(
        self, prefix: IPv4Prefix, attributes: PathAttributes
    ) -> Optional[PathAttributes]:
        """Returns rewritten attributes, or None when the route is denied."""
        if not _passes(prefix, self.deny_prefixes, self.allow_only):
            return None
        local_pref, med = self.set_local_pref, self.set_med
        if local_pref is None and med is None:
            return attributes  # most policies: shared, not copied
        return PathAttributes(
            origin=attributes.origin,
            as_path=attributes.as_path,
            next_hop=attributes.next_hop,
            med=attributes.med if med is None else med,
            local_pref=attributes.local_pref if local_pref is None else local_pref,
        )


@dataclass
class ExportPolicy:
    """Filters/rewrites applied before advertising to a peer: the daemon
    calls :meth:`permits` when it queues an announcement and adds
    ``prepend_count`` to its own eBGP prepend when it encodes one."""

    deny_prefixes: List[IPv4Prefix] = field(default_factory=list)
    allow_only: Optional[List[IPv4Prefix]] = None
    prepend_count: int = 0  # extra copies of our own ASN (TE knob)

    def permits(self, prefix: IPv4Prefix) -> bool:
        """The filter half: whether the prefix may be advertised at all."""
        return _passes(prefix, self.deny_prefixes, self.allow_only)
