"""The OSPF-lite codec and SPF as they stood before the LSU pipeline
was reworked (PR 14), kept as test-only reference implementations.

The eager decoder builds every ``LSALink``/``LSAPrefix`` of every LSA
it is handed and the encoder packs them back object by object; the SPF
confirms each link's back-link with a linear scan.  The shipped code
must agree with them: byte for byte on the encoder, field by field on
the decoder, route for route on the SPF.

:class:`ReceivePathReference` is the daemon's receive path from before
an experiment's daemons shared one decode table: every LSU is decoded
by each receiver, and the last hello that decoded is cached per
neighbour.  The shipped daemons must put the same bytes on every wire
and end with the same LSDBs and FIBs.  Nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.ospf import packets
from repro.ospf.daemon import OSPFDaemon
from repro.ospf.packets import OSPFDecodeError
from repro.ospf.spf import INFINITY, SPFResult

OSPF_VERSION = 2
TYPE_HELLO = 1
TYPE_LS_UPDATE = 4

HEADER = struct.Struct("!BBH4s")


@dataclass(frozen=True)
class LSALink:
    """One point-to-point adjacency in a Router-LSA."""

    neighbor_id: IPv4Address
    cost: int = 1

    _STRUCT = struct.Struct("!4sH")

    def encode(self) -> bytes:
        return self._STRUCT.pack(self.neighbor_id.packed(), self.cost)

    @classmethod
    def decode(cls, data: bytes) -> "LSALink":
        raw_id, cost = cls._STRUCT.unpack(data[: cls._STRUCT.size])
        return cls(neighbor_id=IPv4Address.from_bytes(raw_id), cost=cost)


@dataclass(frozen=True)
class LSAPrefix:
    """One stub prefix in a Router-LSA."""

    prefix: IPv4Prefix
    cost: int = 0

    _STRUCT = struct.Struct("!4sBH")

    def encode(self) -> bytes:
        return self._STRUCT.pack(
            self.prefix.network.packed(), self.prefix.length, self.cost
        )

    @classmethod
    def decode(cls, data: bytes) -> "LSAPrefix":
        raw_net, length, cost = cls._STRUCT.unpack(data[: cls._STRUCT.size])
        return cls(
            prefix=IPv4Prefix.from_network(IPv4Address.from_bytes(raw_net), length),
            cost=cost,
        )


@dataclass(frozen=True)
class RouterLSA:
    """A router's link-state advertisement."""

    advertising_router: IPv4Address
    sequence: int
    links: Tuple[LSALink, ...] = ()
    prefixes: Tuple[LSAPrefix, ...] = ()

    _FIXED = struct.Struct("!4sIHH")

    def encode(self) -> bytes:
        head = self._FIXED.pack(
            self.advertising_router.packed(),
            self.sequence,
            len(self.links),
            len(self.prefixes),
        )
        parts = [head]
        parts.extend(link.encode() for link in self.links)
        parts.extend(prefix.encode() for prefix in self.prefixes)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["RouterLSA", bytes]:
        raw_id, sequence, n_links, n_prefixes = cls._FIXED.unpack_from(data)
        offset = cls._FIXED.size
        links = []
        for __ in range(n_links):
            links.append(LSALink.decode(data[offset:]))
            offset += LSALink._STRUCT.size
        prefixes = []
        for __ in range(n_prefixes):
            prefixes.append(LSAPrefix.decode(data[offset:]))
            offset += LSAPrefix._STRUCT.size
        lsa = cls(
            advertising_router=IPv4Address.from_bytes(raw_id),
            sequence=sequence,
            links=tuple(links),
            prefixes=tuple(prefixes),
        )
        return lsa, data[offset:]

    def newer_than(self, other: "RouterLSA") -> bool:
        """Sequence-number comparison (no wraparound handling needed for
        experiment-length runs)."""
        return self.sequence > other.sequence


@dataclass
class OSPFHello:
    """The hello: intervals and the neighbors we have heard from."""

    router_id: IPv4Address
    hello_interval: float = 2.0
    dead_interval: float = 8.0
    neighbors: List[IPv4Address] = field(default_factory=list)

    def encode(self) -> bytes:
        body = struct.pack(
            "!HHH",
            int(self.hello_interval * 10),  # tenths of seconds on the wire
            int(self.dead_interval * 10),
            len(self.neighbors),
        )
        body += b"".join(n.packed() for n in self.neighbors)
        header = HEADER.pack(
            OSPF_VERSION, TYPE_HELLO, HEADER.size + len(body), self.router_id.packed()
        )
        return header + body

    @classmethod
    def decode_body(cls, router_id: IPv4Address, body: bytes) -> "OSPFHello":
        hello_tenths, dead_tenths, count = struct.unpack_from("!HHH", body)
        offset = 6
        neighbors = []
        for __ in range(count):
            neighbors.append(IPv4Address.from_bytes(body[offset : offset + 4]))
            offset += 4
        return cls(
            router_id=router_id,
            hello_interval=hello_tenths / 10.0,
            dead_interval=dead_tenths / 10.0,
            neighbors=neighbors,
        )


@dataclass
class OSPFLinkStateUpdate:
    """A flood unit: one or more LSAs."""

    router_id: IPv4Address
    lsas: List[RouterLSA] = field(default_factory=list)

    def encode(self) -> bytes:
        body = struct.pack("!H", len(self.lsas))
        body += b"".join(lsa.encode() for lsa in self.lsas)
        header = HEADER.pack(
            OSPF_VERSION, TYPE_LS_UPDATE, HEADER.size + len(body),
            self.router_id.packed(),
        )
        return header + body

    @classmethod
    def decode_body(cls, router_id: IPv4Address, body: bytes) -> "OSPFLinkStateUpdate":
        (count,) = struct.unpack_from("!H", body)
        rest = body[2:]
        lsas = []
        for __ in range(count):
            lsa, rest = RouterLSA.decode(rest)
            lsas.append(lsa)
        return cls(router_id=router_id, lsas=lsas)


def decode_ospf_message(data: bytes):
    """Parse one OSPF-lite message (hello or LS update)."""
    if len(data) < HEADER.size:
        raise OSPFDecodeError("truncated OSPF header")
    version, msg_type, length, raw_id = HEADER.unpack_from(data)
    if version != OSPF_VERSION:
        raise OSPFDecodeError(f"unsupported OSPF version {version}")
    if length != len(data):
        raise OSPFDecodeError(f"bad OSPF length {length} != {len(data)}")
    router_id = IPv4Address.from_bytes(raw_id)
    body = data[HEADER.size :]
    if msg_type == TYPE_HELLO:
        return OSPFHello.decode_body(router_id, body)
    if msg_type == TYPE_LS_UPDATE:
        return OSPFLinkStateUpdate.decode_body(router_id, body)
    raise OSPFDecodeError(f"unknown OSPF message type {msg_type}")


class ReceivePathReference(OSPFDaemon):
    """An OSPF daemon that decodes every delivery itself, except a hello
    byte-identical to the last one that decoded from the same neighbour."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # peer name -> (wire, message) of its last hello that decoded.
        self.hellos: Dict[str, tuple] = {}

    def receive(self, channel, data, metadata):
        peer_name = self._channel_to_neighbor.get(channel.id)
        if peer_name is None:
            return
        state = self.neighbors[peer_name]
        cached = self.hellos.get(peer_name)
        if cached is not None and data == cached[0]:
            message = cached[1]
        else:
            try:
                message = packets.decode_ospf_message(data)
            except OSPFDecodeError:
                self.decode_errors += 1
                return
            if message.msg_type == TYPE_HELLO:
                self.hellos[peer_name] = (data, message)
        state.last_heard = self._now()
        if message.msg_type == TYPE_HELLO:
            self._handle_hello(state, message)
        else:
            self._handle_lsu(state, message)


def shortest_paths(lsdb: LinkStateDatabase, root_id: IPv4Address) -> SPFResult:
    """Compute ECMP shortest paths from ``root_id`` over the LSDB."""
    # Build the bidirectionally-confirmed adjacency map.
    adjacency: Dict[int, List[Tuple[int, int]]] = {}
    for lsa in lsdb.all_lsas():
        me = int(lsa.advertising_router)
        for link in lsa.links:
            neighbor = int(link.neighbor_id)
            neighbor_lsa = lsdb.get(neighbor)
            if neighbor_lsa is None:
                continue
            if not any(int(back.neighbor_id) == me for back in neighbor_lsa.links):
                continue  # not confirmed in both directions
            adjacency.setdefault(me, []).append((neighbor, link.cost))

    root = int(root_id)
    distance: Dict[int, float] = {root: 0.0}
    # first_hops[router] = set of first-hop *neighbor router ids* on
    # shortest paths from the root.
    first_hops: Dict[int, Set[int]] = {root: set()}
    heap: List[Tuple[float, int]] = [(0.0, root)]
    visited: Set[int] = set()

    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for neighbor, cost in adjacency.get(node, ()):
            candidate = dist + cost
            current = distance.get(neighbor, INFINITY)
            if candidate < current - 1e-12:
                distance[neighbor] = candidate
                if node == root:
                    first_hops[neighbor] = {neighbor}
                else:
                    first_hops[neighbor] = set(first_hops[node])
                heapq.heappush(heap, (candidate, neighbor))
            elif abs(candidate - current) <= 1e-12:
                # Equal-cost alternative: merge first hops.
                extra = {neighbor} if node == root else first_hops.get(node, set())
                first_hops.setdefault(neighbor, set()).update(extra)

    result = SPFResult(router_distance=dict(distance))
    for lsa in lsdb.all_lsas():
        router = int(lsa.advertising_router)
        if router not in distance:
            continue
        for stub in lsa.prefixes:
            total = distance[router] + stub.cost
            hops = first_hops.get(router, set())
            if router == root:
                # Our own prefixes are connected routes; skip.
                continue
            if not hops:
                continue
            existing = result.prefix_routes.get(stub.prefix)
            if existing is None or total < existing[0] - 1e-12:
                result.prefix_routes[stub.prefix] = (total, set(hops))
            elif abs(total - existing[0]) <= 1e-12:
                existing[1].update(hops)
    return result
