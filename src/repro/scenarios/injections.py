"""Composable fault injections.

Every class here is a declarative description of one disturbance —
cut this cable at t=12, flap that one five times, take a router down
for maintenance, partition the fabric, brown a link out to 30 % of its
capacity, slam extra traffic in.  Injections serialize to plain dicts
(for JSON specs and campaign workers) and schedule themselves onto an
:class:`~repro.api.experiment.Experiment`'s scheduler, so a scenario
is just "build the experiment, schedule the list, run".

``schedule`` returns the injection's *disruption marks* — the
(time, label) instants at which it perturbs the network.  The runner
uses them to measure per-injection recovery time: the delay until all
offered traffic is delivered again after each mark.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type, TYPE_CHECKING

from repro.core.errors import (
    ConfigurationError,
    a_list_of_string_pairs,
    a_list_of_strings,
    a_number,
    a_number_or_null,
    a_string,
    an_integer,
    an_object,
    expect,
    expect_fields,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.experiment import Experiment

Mark = Tuple[float, str]

_LINK_FIELDS = (("at", a_number), ("node_a", a_string),
                ("node_b", a_string))

# kind string -> injection class; populated by @register.
INJECTION_KINDS: Dict[str, Type["Injection"]] = {}


def register(cls: Type["Injection"]) -> Type["Injection"]:
    """Class decorator adding an injection to the serialization registry."""
    if not cls.kind or cls.kind in INJECTION_KINDS:
        raise ValueError(f"bad or duplicate injection kind {cls.kind!r}")
    INJECTION_KINDS[cls.kind] = cls
    return cls


def injection_from_dict(data: Dict[str, Any]) -> "Injection":
    """Deserialize any registered injection from its dict form."""
    try:
        cls = INJECTION_KINDS[data["kind"]]
    except (KeyError, TypeError):  # no kind, an unknown one, no object
        raise ConfigurationError(
            f"unknown injection kind "
            f"{expect('an injection', data, an_object).get('kind')!r}; "
            f"choose from {sorted(INJECTION_KINDS)}") from None
    kwargs = {key: value for key, value in data.items() if key != "kind"}
    try:
        return cls(**kwargs)
    except TypeError as exc:  # a key the class has no field for
        raise ConfigurationError(
            f"injection {data['kind']!r}: {exc}") from None


@dataclass
class Injection:
    """Base: something that perturbs the network at time ``at``."""

    at: float = 0.0

    kind = ""  # overridden by every registered subclass
    #: (field, kind) for every field validate() type-checks, kinds from
    #: :mod:`repro.core.errors`; one entry per field, so the check costs
    #: O(1) per field and no reflection.
    typed_fields = (("at", a_number),)

    def validate(self) -> None:
        expect_fields(self, self.typed_fields)
        if self.at < 0:
            raise ConfigurationError(
                f"{type(self).__name__}.at must be >= 0, got {self.at}")

    def label(self) -> str:
        """Short human-readable identity used in results."""
        return f"{self.kind}@{self.at:g}"

    def last_effect_at(self) -> float:
        """The latest instant this injection acts on the network.

        Spec validation rejects injections whose effects outlive the
        scenario horizon — otherwise results would carry disruption
        marks for events that never fired.
        """
        return self.at

    def schedule(self, exp: "Experiment") -> List[Mark]:
        """Arm this injection on an experiment; returns disruption marks."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        data.update(dataclasses.asdict(self))
        return data


@register
@dataclass
class LinkFail(Injection):
    """Cut the cable between two nodes."""

    kind = "link-fail"
    typed_fields = _LINK_FIELDS

    node_a: str = ""
    node_b: str = ""

    def label(self) -> str:
        return f"link-fail {self.node_a}-{self.node_b}@{self.at:g}"

    def schedule(self, exp: "Experiment") -> List[Mark]:
        exp.fail_link(self.node_a, self.node_b, at=self.at)
        return [(self.at, self.label())]


@register
@dataclass
class LinkRestore(Injection):
    """Replug a previously failed cable."""

    kind = "link-restore"
    typed_fields = _LINK_FIELDS

    node_a: str = ""
    node_b: str = ""

    def label(self) -> str:
        return f"link-restore {self.node_a}-{self.node_b}@{self.at:g}"

    def schedule(self, exp: "Experiment") -> List[Mark]:
        exp.restore_link(self.node_a, self.node_b, at=self.at)
        return [(self.at, self.label())]


@register
@dataclass
class LinkFlap(Injection):
    """Fail/restore a link repeatedly — the classic convergence killer.

    Cycle ``i`` cuts the link at ``at + i * period`` and replugs it
    ``duty * period`` later, for ``cycles`` cycles.
    """

    kind = "link-flap"
    typed_fields = _LINK_FIELDS + (("cycles", an_integer),
                                   ("period", a_number), ("duty", a_number))

    node_a: str = ""
    node_b: str = ""
    cycles: int = 3
    period: float = 4.0
    duty: float = 0.5          # fraction of each period spent down

    def validate(self) -> None:
        super().validate()
        if self.cycles < 1:
            raise ConfigurationError("LinkFlap.cycles must be >= 1")
        if self.period <= 0:
            raise ConfigurationError("LinkFlap.period must be positive")
        if not 0.0 < self.duty < 1.0:
            raise ConfigurationError("LinkFlap.duty must be in (0, 1)")

    def label(self) -> str:
        return (f"link-flap {self.node_a}-{self.node_b}"
                f"x{self.cycles}@{self.at:g}")

    def last_effect_at(self) -> float:
        return (self.at + (self.cycles - 1) * self.period
                + self.duty * self.period)

    def schedule(self, exp: "Experiment") -> List[Mark]:
        marks: List[Mark] = []
        for cycle in range(self.cycles):
            down_at = self.at + cycle * self.period
            up_at = down_at + self.duty * self.period
            exp.fail_link(self.node_a, self.node_b, at=down_at)
            exp.restore_link(self.node_a, self.node_b, at=up_at)
            marks.append((down_at,
                          f"link-flap {self.node_a}-{self.node_b}"
                          f"#{cycle}@{down_at:g}"))
        return marks


@register
@dataclass
class NodeFail(Injection):
    """Take a whole device down: node, cables, control sessions."""

    kind = "node-fail"
    typed_fields = (("at", a_number), ("node", a_string))

    node: str = ""

    def label(self) -> str:
        return f"node-fail {self.node}@{self.at:g}"

    def schedule(self, exp: "Experiment") -> List[Mark]:
        exp.fail_node(self.node, at=self.at)
        return [(self.at, self.label())]


@register
@dataclass
class NodeRecover(Injection):
    """Bring a failed device back with all its cables."""

    kind = "node-recover"
    typed_fields = NodeFail.typed_fields

    node: str = ""

    def label(self) -> str:
        return f"node-recover {self.node}@{self.at:g}"

    def schedule(self, exp: "Experiment") -> List[Mark]:
        exp.restore_node(self.node, at=self.at)
        return [(self.at, self.label())]


@register
@dataclass
class Partition(Injection):
    """Split the network in two: cut every link crossing the boundary.

    ``group`` names one side; every link with exactly one endpoint in
    the group goes down at ``at``.  ``heal_at`` optionally replugs
    them all.
    """

    kind = "partition"
    typed_fields = (("at", a_number), ("group", a_list_of_strings),
                    ("heal_at", a_number_or_null))

    group: List[str] = field(default_factory=list)
    heal_at: Optional[float] = None

    def validate(self) -> None:
        super().validate()
        if not self.group:
            raise ConfigurationError("Partition.group must not be empty")
        if self.heal_at is not None and self.heal_at < self.at:
            raise ConfigurationError("Partition.heal_at precedes the cut")

    def label(self) -> str:
        return f"partition [{','.join(self.group)}]@{self.at:g}"

    def last_effect_at(self) -> float:
        return self.at if self.heal_at is None else self.heal_at

    def _crossing_links(self, exp: "Experiment") -> List[Tuple[str, str]]:
        inside = set(self.group)
        crossing = []
        for link in exp.network.links:
            a, b = (node.name for node in link.endpoints())
            if (a in inside) != (b in inside):
                crossing.append((a, b))
        return crossing

    def schedule(self, exp: "Experiment") -> List[Mark]:
        crossing = self._crossing_links(exp)
        if not crossing:
            raise ConfigurationError(
                f"partition group {self.group!r} crosses no links")
        for a, b in crossing:
            exp.fail_link(a, b, at=self.at)
        marks: List[Mark] = [(self.at, self.label())]
        if self.heal_at is not None:
            for a, b in crossing:
                exp.restore_link(a, b, at=self.heal_at)
            marks.append((self.heal_at,
                          f"partition-heal@{self.heal_at:g}"))
        return marks


@register
@dataclass
class CapacityDegrade(Injection):
    """Gray failure: the link stays up but loses capacity.

    Routing protocols do not react (the cable still carries hellos),
    so only the fluid rates feel it — the silent-brownout case.
    ``until`` optionally schedules the repair back to nominal.
    """

    kind = "capacity-degrade"
    typed_fields = _LINK_FIELDS + (("factor", a_number),
                                   ("until", a_number_or_null))

    node_a: str = ""
    node_b: str = ""
    factor: float = 0.5
    until: Optional[float] = None

    def validate(self) -> None:
        super().validate()
        if not 0.0 < self.factor <= 1.0:
            raise ConfigurationError(
                f"CapacityDegrade.factor must be in (0, 1], got {self.factor}")
        if self.until is not None and self.until < self.at:
            raise ConfigurationError("CapacityDegrade.until precedes onset")

    def label(self) -> str:
        return (f"degrade {self.node_a}-{self.node_b}"
                f"x{self.factor:g}@{self.at:g}")

    def last_effect_at(self) -> float:
        return self.at if self.until is None else self.until

    def schedule(self, exp: "Experiment") -> List[Mark]:
        exp.degrade_link(self.node_a, self.node_b, self.factor,
                         at=self.at, until=self.until)
        return [(self.at, self.label())]


@register
@dataclass
class TrafficBurst(Injection):
    """Offer extra flows for a while — load as a fault.

    Explicit ``pairs`` are used when given; otherwise ``flows`` (src,
    dst) pairs are drawn from the topology's hosts with ``random.Random
    (seed)``, so the burst is identical on every run of the spec.
    """

    kind = "traffic-burst"
    typed_fields = (("at", a_number), ("duration", a_number),
                    ("rate_bps", a_number), ("flows", an_integer),
                    ("seed", an_integer), ("pairs", a_list_of_string_pairs))

    duration: float = 5.0
    rate_bps: float = 500_000_000.0
    flows: int = 4
    seed: int = 0
    pairs: List[List[str]] = field(default_factory=list)

    def validate(self) -> None:
        super().validate()
        if self.duration <= 0:
            raise ConfigurationError("TrafficBurst.duration must be positive")
        if self.rate_bps <= 0:
            raise ConfigurationError("TrafficBurst.rate_bps must be positive")
        if not self.pairs and self.flows < 1:
            raise ConfigurationError("TrafficBurst needs pairs or flows >= 1")

    def label(self) -> str:
        count = len(self.pairs) or self.flows
        return f"traffic-burst x{count}@{self.at:g}"

    def _choose_pairs(self, exp: "Experiment") -> List[Tuple[str, str]]:
        if self.pairs:
            return [(src, dst) for src, dst in self.pairs]
        hosts = [host.name for host in exp.network.hosts()]
        if len(hosts) < 2:
            raise ConfigurationError("traffic burst needs >= 2 hosts")
        rng = random.Random(self.seed)
        return [tuple(rng.sample(hosts, 2)) for __ in range(self.flows)]

    def schedule(self, exp: "Experiment") -> List[Mark]:
        for src, dst in self._choose_pairs(exp):
            exp.add_flow(src, dst, rate_bps=self.rate_bps,
                         start_time=self.at, duration=self.duration)
        return [(self.at, self.label())]
