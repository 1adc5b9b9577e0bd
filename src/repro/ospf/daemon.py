"""The emulated OSPF-lite daemon.

Runs the classic link-state loop in experiment time: periodic hellos,
dead-interval neighbor detection, Router-LSA origination and reliable
flooding, and a (debounced) SPF run that installs ECMP routes into the
simulated router's FIB via the Connection Manager.

The hello cadence gives Horse's hybrid clock the periodic
control-plane activity pattern the paper describes for Hedera: the
experiment re-enters FTI around every hello burst and falls back to
DES in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.errors import ConfigurationError, ControlPlaneError, a_number
from repro.netproto.addr import IPv4Address, IPv4Prefix
from repro.ospf.lsdb import LinkStateDatabase
from repro.ospf.packets import (
    TYPE_HELLO,
    LSALink,
    LSAPrefix,
    OSPFDecodeError,
    OSPFHello,
    OSPFLinkStateUpdate,
    RouterLSA,
    decode_ospf_message,
)
from repro.ospf.spf import shortest_paths

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.connection_manager import ControlChannel
    from repro.core.simulation import Simulation


@dataclass
class OSPFPeerConfig:
    """One point-to-point OSPF neighbor."""

    peer_name: str
    peer_router_id: IPv4Address
    local_port: int
    peer_address: IPv4Address
    cost: int = 1


@dataclass
class OSPFConfig:
    """Daemon-wide configuration.

    The timers are checked here, where they are configured: the hello
    and dead timers travel in the hello as tenths of a second in a
    16-bit field, the hello timer must be able to fire, a neighbour that
    is declared dead sooner than it says hello never stays adjacent,
    and the SPF cannot run before the change that triggers it.
    """

    router_id: IPv4Address
    networks: List[Tuple[IPv4Prefix, int]] = field(default_factory=list)
    hello_interval: float = 2.0
    dead_interval: float = 8.0
    spf_delay: float = 0.05
    install_routes: bool = True

    def __post_init__(self) -> None:
        hello, dead = self.hello_interval, self.dead_interval
        for name, value in (("hello_interval", hello), ("dead_interval", dead)):
            if (not isinstance(value, (int, float))
                    or not 0 < value * 10 < 0x10000):
                raise ConfigurationError(
                    f"OSPF {name!r} is {value!r}; accepted: a positive "
                    f"number of seconds below 6553.6 (its tenths fill a "
                    f"16-bit field of the hello)")
        if not dead > hello:
            raise ConfigurationError(
                f"OSPF 'dead_interval' is {dead!r} with 'hello_interval' "
                f"{hello!r}; accepted: dead_interval > hello_interval "
                f"(an adjacency must outlive the gap between two hellos)")
        if not (a_number(self.spf_delay) and self.spf_delay >= 0):
            raise ConfigurationError(
                f"OSPF 'spf_delay' is {self.spf_delay!r}; accepted: a "
                f"number of seconds >= 0")


class _NeighborState:
    """Internal per-neighbor adjacency state."""

    def __init__(self, config: OSPFPeerConfig):
        self.config = config
        self.router_id = int(config.peer_router_id)
        self.channel: Optional["ControlChannel"] = None
        self.heard = False        # we received their hello
        self.full = False         # they listed us -> adjacency up
        self.last_heard = -1.0
        # The last hello from this neighbour that decoded, as bytes and
        # as a message: a delivery equal to those bytes is that message.
        self.hello_wire: Optional[bytes] = None
        self.hello: Optional[OSPFHello] = None


class OSPFDaemon:
    """An emulated link-state routing process bound to one router."""

    def __init__(self, router_name: str, config: OSPFConfig):
        self.router_name = router_name
        self.name = f"ospfd-{router_name}"
        self.config = config
        self._router_id = int(config.router_id)
        self.sim: Optional["Simulation"] = None
        self.lsdb = LinkStateDatabase()
        self.neighbors: Dict[str, _NeighborState] = {}
        self._channel_to_neighbor: Dict[int, str] = {}
        self._sequence = 0
        self._spf_scheduled = False
        self._installed: Set[IPv4Prefix] = set()
        # The encoded hello and the heard-set it lists.
        self._hello_heard: Optional[Tuple[int, ...]] = None
        self._hello_wire = b""
        self.spf_runs = 0
        self.hellos_sent = 0
        self.lsus_sent = 0
        self.lsas_received = 0
        self.lsas_accepted = 0
        self.lsa_bodies_parsed = 0
        self.decode_errors = 0

    # -- wiring -----------------------------------------------------------------

    def add_neighbor(self, peer_config: OSPFPeerConfig,
                     channel: "ControlChannel") -> None:
        """Register a neighbor and its control channel."""
        if peer_config.peer_name in self.neighbors:
            raise ControlPlaneError(
                f"{self.name}: duplicate neighbor {peer_config.peer_name}"
            )
        state = _NeighborState(peer_config)
        state.channel = channel
        self.neighbors[peer_config.peer_name] = state
        self._channel_to_neighbor[channel.id] = peer_config.peer_name

    def start(self, sim: "Simulation") -> None:
        """Process hook: originate our LSA and start the hello timer."""
        self.sim = sim
        self._originate_lsa()
        sim.scheduler.periodic(
            self.config.hello_interval,
            self._hello_round,
            start_after=0.01,  # first hello almost immediately
            label=f"{self.name} hello",
        )
        sim.scheduler.periodic(
            self.config.dead_interval / 2.0,
            self._check_dead_neighbors,
            label=f"{self.name} dead check",
        )

    # -- hello machinery ----------------------------------------------------------

    def _hello_round(self) -> None:
        heard_ids = tuple([
            state.router_id for state in self.neighbors.values() if state.heard
        ])
        if heard_ids != self._hello_heard:
            # A hello says who we hear; it is encoded when that changes.
            self._hello_heard = heard_ids
            self._hello_wire = OSPFHello(
                router_id=self._router_id,
                hello_interval=self.config.hello_interval,
                dead_interval=self.config.dead_interval,
                neighbors=heard_ids,
            ).encode()
        data = self._hello_wire
        for state in self.neighbors.values():
            if state.channel is not None:
                self.hellos_sent += 1
                state.channel.send(self, data)

    def _check_dead_neighbors(self) -> None:
        now = self._now()
        for state in self.neighbors.values():
            if not state.full:
                continue
            if now - state.last_heard > self.config.dead_interval:
                self._adjacency_down(state)

    def _adjacency_down(self, state: _NeighborState) -> None:
        state.heard = False
        state.full = False
        self._originate_lsa()
        self._schedule_spf()

    def neighbor_down(self, peer_name: str) -> None:
        """Externally fail an adjacency (link failure experiments)."""
        state = self.neighbors.get(peer_name)
        if state is not None and (state.heard or state.full):
            self._adjacency_down(state)

    # -- channel input ----------------------------------------------------------------

    def receive(self, channel: "ControlChannel", data: bytes, metadata: Any) -> None:
        """Handle bytes from a neighbor."""
        peer_name = self._channel_to_neighbor.get(channel.id)
        if peer_name is None:
            return
        state = self.neighbors[peer_name]
        if data == state.hello_wire:
            # Decoding is a function of the bytes alone, and these are
            # the bytes of a hello that decoded: a steady-state hello
            # is parsed once.  Garbage never equals validated bytes.
            message = state.hello
        else:
            try:
                message = decode_ospf_message(data)
            except OSPFDecodeError:
                # Dropped before it can refresh the dead timer: garbage
                # must not keep an adjacency alive.
                self.decode_errors += 1
                return
            if message.msg_type == TYPE_HELLO:
                state.hello_wire = data
                state.hello = message
        state.last_heard = self._now()
        if message.msg_type == TYPE_HELLO:
            self._handle_hello(state, message)
        else:
            self._handle_lsu(state, message)

    def _handle_hello(self, state: _NeighborState, hello: OSPFHello) -> None:
        newly_heard = not state.heard
        state.heard = True
        two_way = self._router_id in hello.neighbor_ids
        if two_way and not state.full:
            state.full = True
            self._originate_lsa()
            self._send_full_lsdb(state)
            self._schedule_spf()
        if newly_heard:
            # Answer immediately so the peer reaches two-way without
            # waiting a full hello interval.
            self._hello_round()

    def _handle_lsu(self, state: _NeighborState, update: OSPFLinkStateUpdate) -> None:
        accepted: List[RouterLSA] = []
        self.lsas_received += len(update.lsas)
        for lsa in update.lsas:
            if lsa.originator == self._router_id:
                # Someone floods our own (possibly stale) LSA back;
                # re-originate with a higher sequence if it is newer
                # than what we think we have.
                ours = self.lsdb.get(self._router_id)
                if ours is not None and lsa.newer_than(ours):
                    self._sequence = lsa.sequence
                    self._originate_lsa()
                continue
            if self.lsdb.consider(lsa):
                accepted.append(lsa)
        if accepted:
            self.lsas_accepted += len(accepted)
            self._flood(accepted, exclude=state.config.peer_name)
            self._schedule_spf()

    # -- LSA origination and flooding ----------------------------------------------------

    def _originate_lsa(self) -> None:
        self._sequence += 1
        links = tuple(
            LSALink(neighbor_id=state.config.peer_router_id, cost=state.config.cost)
            for state in self.neighbors.values()
            if state.full
        )
        prefixes = tuple(
            LSAPrefix(prefix=prefix, cost=cost)
            for prefix, cost in self.config.networks
        )
        lsa = RouterLSA(
            advertising_router=self.config.router_id,
            sequence=self._sequence,
            links=links,
            prefixes=prefixes,
        )
        self.lsdb.consider(lsa)
        self._flood([lsa])
        self._schedule_spf()

    def _send_full_lsdb(self, state: _NeighborState) -> None:
        lsas = self.lsdb.all_lsas()
        if not lsas or state.channel is None:
            return
        update = OSPFLinkStateUpdate(router_id=self._router_id, lsas=lsas)
        self.lsus_sent += 1
        state.channel.send(self, update.encode())

    def _flood(self, lsas: List[RouterLSA], exclude: str = "") -> None:
        if not lsas:
            return
        update = OSPFLinkStateUpdate(router_id=self._router_id, lsas=lsas)
        data = update.encode()
        for name, state in self.neighbors.items():
            if name == exclude or not state.full or state.channel is None:
                continue
            self.lsus_sent += 1
            state.channel.send(self, data)

    # -- SPF and FIB programming ------------------------------------------------------------

    def _schedule_spf(self) -> None:
        if self._spf_scheduled or self.sim is None:
            return
        self._spf_scheduled = True
        self.sim.scheduler.after(
            self.config.spf_delay, self._run_spf, label=f"{self.name} spf"
        )

    def _run_spf(self) -> None:
        self._spf_scheduled = False
        self.spf_runs += 1
        self.lsa_bodies_parsed += sum(
            1 for lsa in self.lsdb.all_lsas() if not lsa.body_parsed)
        result = shortest_paths(self.lsdb, self.config.router_id)

        hop_by_router_id: Dict[int, Tuple[int, IPv4Address]] = {
            state.router_id:
                (state.config.local_port, state.config.peer_address)
            for state in self.neighbors.values()
            if state.full
        }
        # Many prefixes share one first-hop set; its next-hop list is
        # built once.
        hops_by_set: Dict[frozenset, List[Tuple[int, IPv4Address]]] = {}
        desired: Dict[IPv4Prefix, List[Tuple[int, IPv4Address]]] = {}
        for prefix, (__, first_hop_ids) in result.prefix_routes.items():
            key = frozenset(first_hop_ids)
            next_hops = hops_by_set.get(key)
            if next_hops is None:
                next_hops = hops_by_set[key] = [
                    hop_by_router_id[router_id]
                    for router_id in sorted(first_hop_ids)
                    if router_id in hop_by_router_id
                ]
            if next_hops:
                desired[prefix] = next_hops

        if not self.config.install_routes or self.sim is None:
            return
        for prefix in list(self._installed):
            if prefix not in desired:
                self.sim.cm.withdraw_route(self.router_name, prefix)
                self._installed.discard(prefix)
        for prefix, hops in desired.items():
            self.sim.cm.install_route(self.router_name, prefix, hops)
            self._installed.add(prefix)

    # -- queries -----------------------------------------------------------------------------

    def full_neighbors(self) -> List[str]:
        """Names of neighbors with full adjacency."""
        return sorted(name for name, s in self.neighbors.items() if s.full)

    def route_count(self) -> int:
        """Number of prefixes currently installed."""
        return len(self._installed)

    def stats(self) -> dict:
        """Counters for tests and benches."""
        return {
            "neighbors": len(self.neighbors),
            "full": sum(1 for state in self.neighbors.values() if state.full),
            "lsdb": len(self.lsdb),
            "spf_runs": self.spf_runs,
            "hellos_sent": self.hellos_sent,
            "lsus_sent": self.lsus_sent,
            "lsas_received": self.lsas_received,
            "lsas_accepted": self.lsas_accepted,
            "lsa_bodies_parsed": self.lsa_bodies_parsed,
            "decode_errors": self.decode_errors,
            "routes": len(self._installed),
        }

    def _now(self) -> float:
        return self.sim.clock.now if self.sim is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OSPFDaemon {self.name} lsdb={len(self.lsdb)} full={len(self.full_neighbors())}>"
