"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is a complete experiment as *data*: which
topology to build, which control plane to run on it, what traffic to
offer, which faults to inject when, how long to simulate, and the seed
that pins down every random choice.  Specs round-trip through JSON, so
campaigns can be saved, diffed, shipped to worker processes, and any
single scenario can be re-run bit-for-bit from its serialized form.

The topology/protocol/traffic thirds are *recipes* — a registry name
plus keyword parameters — rather than live objects, because a spec
must stay picklable and JSON-serializable to fan out across a
:class:`~repro.scenarios.campaign.Campaign`'s worker processes.
"""

from __future__ import annotations

import functools
import inspect
import json
import random
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SimulationConfig
from repro.core.errors import (
    ConfigurationError,
    a_boolean,
    a_list,
    a_list_of_string_pairs,
    a_number,
    a_string,
    an_integer,
    an_object,
    expect,
    expect_fields,
)
from repro.results.records import spec_hash as _spec_hash
from repro.results.slo import SLO, slo_from_dict
from repro.scenarios.injections import Injection, injection_from_dict
from repro.topology.builders import (
    jellyfish_topo,
    leaf_spine_topo,
    linear_topo,
    star_topo,
    tree_topo,
    wan_topo,
)
from repro.topology.fattree import FatTreeTopo
from repro.topology.graphml import graphml_topo
from repro.topology.topo import Topo
from repro.traffic import patterns


#: Every version of the serialized spec schema, oldest first — the one
#: table of what each added.  Versions only ever add: a file of any
#: listed version loads (fields it predates default off; a file with no
#: ``schema_version`` key is v1), and ``from_dict`` rejects a version
#: beyond the newest rather than silently dropping what it cannot know.
SPEC_SCHEMA_VERSIONS: Dict[int, str] = {
    1: "the PR 1 shape (no version stamp, no slos)",
    2: "the `slos` assertion list and the version stamp",
    3: "the traffic `flows` list: explicit per-flow "
       "[src, dst, rate_bps] entries (the traffic-matrix families)",
    4: 'the "static" protocol kind, the "graphml" topology kind and '
       "the `symmetry` sim_params knob (quotient simulation — "
       "fingerprint-covered via the spec hash like every sim_params "
       "field)",
}
SPEC_SCHEMA_VERSION = max(SPEC_SCHEMA_VERSIONS)


#: Parameter annotation -> the value kind check_params demands; other
#: annotations go unchecked.
_ANNOTATION_KINDS = {"int": an_integer, "float": a_number,
                     "bool": a_boolean, "str": a_string}


@functools.lru_cache(maxsize=None)
def _keyword_parameters(target: Callable[..., Any]) -> Tuple[
        Tuple[str, ...], Tuple[str, ...], Dict[str, Callable[[Any], bool]]]:
    """The names ``target`` takes by keyword, those of them it gives no
    default (each sorted), and the value kind of those annotated with a
    plain scalar type.  Cached because ``inspect.signature`` costs tens
    of microseconds and the check below runs several times per generated
    scenario; the targets are the registries' module-level callables, so
    the cache stays small."""
    parameters = sorted(
        (name, parameter) for name, parameter
        in inspect.signature(target).parameters.items()
        if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD,
                              parameter.KEYWORD_ONLY))
    kinds = {}
    for name, parameter in parameters:
        annotation = getattr(parameter.annotation, "__name__",
                             parameter.annotation)
        if annotation in _ANNOTATION_KINDS:
            kinds[name] = _ANNOTATION_KINDS[annotation]
    return (tuple(name for name, __ in parameters),
            tuple(name for name, parameter in parameters
                  if parameter.default is parameter.empty),
            kinds)


def check_params(what: str, target: Callable[..., Any],
                 params: Dict[str, Any],
                 supplied: Sequence[str] = ()) -> None:
    """Reject keys of ``params`` that ``target`` does not take by
    keyword, and parameters it requires that nobody gives, naming the
    ones it does take, and values of the wrong kind for the parameter's
    ``int``/``float``/``bool``/``str`` annotation.  ``supplied`` lists
    the parameters the caller passes itself.  Run before every
    ``target(**params)`` on user-given parameters, so a typo, an
    omission or a string where a number belongs is a
    :class:`ConfigurationError` and a ``TypeError`` stays a defect."""
    names, required, kinds = _keyword_parameters(target)
    unknown = sorted(key for key in params
                     if key not in names or key in supplied)
    missing = [name for name in required
               if name not in params and name not in supplied]
    if unknown:
        problem = (f"unknown {what} parameter{'s' if len(unknown) > 1 else ''} "
                   f"{', '.join(repr(name) for name in unknown)}")
    elif missing:
        problem = f"{what} needs {', '.join(missing)}"
    else:
        for key, value in params.items():
            if key in kinds:
                expect(f"{what} parameter {key}", value, kinds[key])
        return
    accepted = [name for name in names if name not in supplied]
    raise ConfigurationError(
        f"{problem}; accepted: {', '.join(accepted) or 'none'}")


def _check_keys(what: str, data: Dict[str, Any], known: Any) -> None:
    """Reject keys of a serialized object that ``known`` does not list,
    by name — a typo like "injectionss" must not be silently ignored."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown {what} key{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(k) for k in unknown)}; known keys: "
            f"{', '.join(sorted(known))}")


def _recipe_fields(key: str, recipe: type,
                   data: Any) -> Tuple[str, Dict[str, Any]]:
    """The (kind, params) of the serialized ``recipe`` at spec ``key``."""
    _check_keys(key, expect(f"ScenarioSpec.{key}", data, an_object),
                ("kind", "params"))
    return (expect(f"{recipe.__name__}.kind", data.get("kind"), a_string),
            dict(expect(f"{recipe.__name__}.params",
                        data.get("params", {}), an_object)))


# Registry: recipe kind -> builder callable returning a Topo.
TOPOLOGY_BUILDERS: Dict[str, Callable[..., Topo]] = {
    "linear": linear_topo,
    "star": star_topo,
    "tree": tree_topo,
    "leafspine": leaf_spine_topo,
    "wan": wan_topo,
    "jellyfish": jellyfish_topo,
    "fattree": FatTreeTopo,
    "graphml": graphml_topo,
}

PROTOCOL_KINDS = ("none", "static", "bgp", "ospf", "sdn")

TRAFFIC_PATTERNS = ("none", "permutation", "stride", "random",
                    "all_to_one", "one_to_all", "pairs", "matrix")


@dataclass
class TopologyRecipe:
    """How to build the topology: a builder name + its parameters."""

    kind: str = "wan"
    params: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> Topo:
        """Materialize the described :class:`Topo`."""
        try:
            builder = TOPOLOGY_BUILDERS[self.kind]
        except KeyError:
            raise ConfigurationError(
                f"unknown topology kind {self.kind!r}; "
                f"choose from {sorted(TOPOLOGY_BUILDERS)}") from None
        check_params(f"{self.kind} topology", builder, self.params)
        return builder(**self.params)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TopologyRecipe":
        return cls(*_recipe_fields("topology", cls, data))


@dataclass
class ProtocolRecipe:
    """Which control plane to run and with what timers.

    ``params`` are forwarded to the matching setup helper:
    :func:`~repro.api.control_setup.setup_bgp_for_routers` for
    ``bgp``, :func:`~repro.api.control_setup.setup_ospf_for_routers`
    for ``ospf``.  ``sdn`` attaches an OpenFlow controller running
    five-tuple ECMP; ``none`` leaves forwarding state untouched.
    """

    kind: str = "ospf"
    params: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in PROTOCOL_KINDS:
            raise ConfigurationError(
                f"unknown protocol kind {self.kind!r}; "
                f"choose from {PROTOCOL_KINDS}")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProtocolRecipe":
        return cls(*_recipe_fields("protocol", cls, data))


def _is_flow(entry: Any) -> bool:
    """One ``[src, dst, rate_bps]`` entry of a matrix traffic recipe."""
    return (isinstance(entry, (list, tuple)) and len(entry) == 3
            and isinstance(entry[0], str) and isinstance(entry[1], str)
            and a_number(entry[2]))


@dataclass
class TrafficRecipe:
    """What traffic to offer: a pattern over the topology's hosts.

    The (src, dst) pairs come from :mod:`repro.traffic.patterns`,
    seeded by the scenario seed, except ``pairs`` which lists them
    explicitly.  Each pair becomes one CBR UDP flow.

    ``matrix`` is the per-flow form: ``flows`` lists explicit
    ``[src, dst, rate_bps]`` entries, each its own CBR UDP flow at its
    own rate — how the traffic-matrix families (uniform, elephant-mice,
    hotspot) serialize, and what adversarial search mutates.
    """

    pattern: str = "permutation"
    rate_bps: float = 500_000_000.0
    start_time: float = 1.0
    duration: float = 30.0
    stagger: float = 0.0
    stride: int = 1                     # for pattern == "stride"
    pairs: List[List[str]] = field(default_factory=list)  # for "pairs"
    # for pattern == "matrix": [src, dst, rate_bps] per flow
    flows: List[List[Any]] = field(default_factory=list)

    #: (field, kind) validate() type-checks, as for injections.
    typed_fields = (("rate_bps", a_number), ("start_time", a_number),
                    ("duration", a_number), ("stagger", a_number),
                    ("stride", an_integer), ("pairs", a_list_of_string_pairs))

    def validate(self) -> None:
        if self.pattern not in TRAFFIC_PATTERNS:
            raise ConfigurationError(
                f"unknown traffic pattern {self.pattern!r}; "
                f"choose from {TRAFFIC_PATTERNS}")
        expect_fields(self, self.typed_fields)
        if self.pattern == "matrix":
            if not self.flows:
                raise ConfigurationError(
                    "traffic pattern 'matrix' needs at least one "
                    "[src, dst, rate_bps] entry in flows")
            for entry in self.flows:
                if not _is_flow(entry):
                    raise ConfigurationError(
                        f"matrix flow entry must be [src, dst, rate_bps], "
                        f"got {entry!r}")
                if entry[2] <= 0:
                    raise ConfigurationError(
                        f"matrix flow {entry[0]}->{entry[1]} needs a "
                        f"positive rate, got {entry[2]!r}")
        elif self.pattern != "none" and self.rate_bps <= 0:
            raise ConfigurationError("traffic rate_bps must be positive")

    def make_pairs(self, hosts: Sequence[str],
                   rng: random.Random) -> List[Tuple[str, str]]:
        """The (src, dst) host pairs this recipe describes."""
        if self.pattern == "none":
            return []
        if self.pattern == "pairs":
            return [(src, dst) for src, dst in self.pairs]
        if self.pattern == "matrix":
            return [(src, dst) for src, dst, __ in self.flows]
        if self.pattern == "permutation":
            return patterns.permutation_pairs(hosts, rng=rng)
        if self.pattern == "stride":
            return patterns.stride_pairs(hosts, stride=self.stride)
        if self.pattern == "random":
            return patterns.random_pairs(hosts, rng=rng)
        if self.pattern == "all_to_one":
            return patterns.all_to_one_pairs(hosts)
        if self.pattern == "one_to_all":
            return patterns.one_to_all_pairs(hosts)
        raise ConfigurationError(f"unknown traffic pattern {self.pattern!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pattern": self.pattern,
            "rate_bps": self.rate_bps,
            "start_time": self.start_time,
            "duration": self.duration,
            "stagger": self.stagger,
            "stride": self.stride,
            "pairs": [list(pair) for pair in self.pairs],
            "flows": [[src, dst, float(rate)]
                      for src, dst, rate in self.flows],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrafficRecipe":
        _check_keys("traffic",
                    expect("ScenarioSpec.traffic", data, an_object),
                    [known.name for known in fields(cls)])
        pairs = expect("TrafficRecipe.pairs", data.get("pairs", []),
                       a_list_of_string_pairs)
        flows = expect("TrafficRecipe.flows", data.get("flows", []), a_list)
        for entry in flows:
            if not _is_flow(entry):
                raise ConfigurationError(
                    f"TrafficRecipe.flows entry must be [src, dst, "
                    f"rate_bps], got {entry!r}")
        return cls(
            pattern=data.get("pattern", "permutation"),
            rate_bps=data.get("rate_bps", 500_000_000.0),
            start_time=data.get("start_time", 1.0),
            duration=data.get("duration", 30.0),
            stagger=data.get("stagger", 0.0),
            stride=data.get("stride", 1),
            pairs=[list(pair) for pair in pairs],
            flows=[[src, dst, float(rate)] for src, dst, rate in flows],
        )


@dataclass
class ScenarioSpec:
    """One complete, reproducible experiment as data."""

    name: str = "scenario"
    seed: int = 0
    duration: float = 40.0              # simulated horizon in seconds
    topology: TopologyRecipe = field(default_factory=TopologyRecipe)
    protocol: ProtocolRecipe = field(default_factory=ProtocolRecipe)
    traffic: TrafficRecipe = field(default_factory=TrafficRecipe)
    injections: List[Injection] = field(default_factory=list)
    # SLO assertions evaluated inside the runner; every result/record
    # carries one verdict per entry.
    slos: List[SLO] = field(default_factory=list)
    # Extra SimulationConfig fields (fti_increment, des_fallback_timeout,
    # stats_interval...); the scenario seed always wins over any "seed"
    # given here.
    sim_params: Dict[str, Any] = field(default_factory=dict)

    #: (field, kind) validate() type-checks, as for injections.
    typed_fields = (("name", a_string), ("seed", an_integer),
                    ("duration", a_number))

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsense values."""
        expect_fields(self, self.typed_fields)
        if self.duration <= 0:
            raise ConfigurationError("scenario duration must be positive")
        self.protocol.validate()
        self.traffic.validate()
        for injection in self.injections:
            injection.validate()
            if injection.last_effect_at() > self.duration:
                raise ConfigurationError(
                    f"injection {injection.label()} still acts at "
                    f"t={injection.last_effect_at():g} after the scenario "
                    f"ends (duration {self.duration})")
        for slo in self.slos:
            slo.validate()
        check_params("sim_params", SimulationConfig, self.sim_params)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "duration": self.duration,
            "topology": self.topology.to_dict(),
            "protocol": self.protocol.to_dict(),
            "traffic": self.traffic.to_dict(),
            "injections": [inj.to_dict() for inj in self.injections],
            "slos": [slo.to_dict() for slo in self.slos],
            "sim_params": dict(self.sim_params),
        }

    #: Every top-level key a serialized spec may carry (any schema
    #: version to date); anything else is rejected by name.
    KNOWN_KEYS = frozenset((
        "schema_version", "name", "seed", "duration", "topology",
        "protocol", "traffic", "injections", "slos", "sim_params",
    ))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        # Accepts any schema version to date (SPEC_SCHEMA_VERSIONS): v1
        # files simply have no "slos" (or "schema_version") key.  The
        # shape is checked here (objects are objects, lists are lists);
        # leaf values are checked by validate(), which every run calls.
        version = expect("a scenario spec", data,
                         an_object).get("schema_version", 1)
        if type(version) is not int or version < 1:
            raise ConfigurationError(
                f"spec schema_version must be an integer >= 1, got "
                f"{version!r} (this build reads versions 1 to "
                f"{SPEC_SCHEMA_VERSION})")
        if version > SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"spec schema_version {version} is newer than this "
                f"build reads (versions 1 to {SPEC_SCHEMA_VERSION})")
        _check_keys("spec", data, cls.KNOWN_KEYS)
        return cls(
            name=data.get("name", "scenario"),
            seed=data.get("seed", 0),
            duration=data.get("duration", 40.0),
            topology=TopologyRecipe.from_dict(data.get("topology")),
            protocol=ProtocolRecipe.from_dict(data.get("protocol")),
            traffic=TrafficRecipe.from_dict(data.get("traffic")),
            injections=[injection_from_dict(d) for d in expect(
                "ScenarioSpec.injections", data.get("injections", []),
                a_list)],
            slos=[slo_from_dict(d) for d in expect(
                "ScenarioSpec.slos", data.get("slos", []), a_list)],
            sim_params=dict(expect("ScenarioSpec.sim_params",
                                   data.get("sim_params", {}), an_object)),
        )

    def to_json(self, indent: "int | None" = 2) -> str:
        """Serialize; ``from_json`` of the result reproduces the spec."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        """Canonical digest of the serialized spec — with the seed,
        the (spec, seed) identity a result store keys records by."""
        return _spec_hash(self.to_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ScenarioSpec {self.name!r} seed={self.seed} "
            f"topo={self.topology.kind} proto={self.protocol.kind} "
            f"injections={len(self.injections)}>"
        )
