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
        rewritten = attributes
        if self.set_local_pref is not None:
            rewritten = PathAttributes(
                origin=rewritten.origin,
                as_path=rewritten.as_path,
                next_hop=rewritten.next_hop,
                med=rewritten.med,
                local_pref=self.set_local_pref,
            )
        if self.set_med is not None:
            rewritten = PathAttributes(
                origin=rewritten.origin,
                as_path=rewritten.as_path,
                next_hop=rewritten.next_hop,
                med=self.set_med,
                local_pref=rewritten.local_pref,
            )
        return rewritten


@dataclass
class ExportPolicy:
    """Filters/rewrites applied before advertising to a peer."""

    deny_prefixes: List[IPv4Prefix] = field(default_factory=list)
    allow_only: Optional[List[IPv4Prefix]] = None
    prepend_count: int = 0  # extra copies of our own ASN (TE knob)

    def permits(self, prefix: IPv4Prefix) -> bool:
        """The filter half: whether the prefix may be advertised at all."""
        return _passes(prefix, self.deny_prefixes, self.allow_only)

    def apply(
        self, prefix: IPv4Prefix, attributes: PathAttributes, own_asn: int
    ) -> Optional[PathAttributes]:
        """Returns attributes to advertise, or None to suppress.

        The mandatory eBGP prepend of our own ASN happens in the daemon
        — ``prepend_count`` adds extra copies beyond it.
        """
        if not self.permits(prefix):
            return None
        rewritten = attributes
        for __ in range(self.prepend_count):
            rewritten = rewritten.with_prepended(own_asn)
        return rewritten
