"""Unit: a scenario spec file fails closed.

``repro scenario run --spec FILE`` reads bytes anyone may have edited.
A seeded mutation corpus over two valid saved specs — every field's
value swapped for other JSON types, every key deleted, an unknown key
added to every object and list, the top level replaced — must each
either run, or end as ONE ``repro scenario run: ...`` line from
``main()``: never a traceback.  A *type* swap must end in a
:class:`ConfigurationError` that names the field; a well-typed but
wrong value (an unknown node name, a deleted field whose default does
not fit the topology) may also fail as the typed engine error it
always raised, e.g. a ``TopologyError`` naming the node.
"""

import contextlib
import copy
import dataclasses
import io
import json
import random

import pytest

from repro import cli
from repro.core.errors import ConfigurationError, SimulationError
from repro.scenarios import ScenarioRunner, ScenarioSpec
from repro.scenarios.injections import INJECTION_KINDS

#: Two valid saved specs (``ScenarioSpec.to_dict`` output): every
#: injection kind, SLO kind and scalar sim_params field; explicit pairs
#: and matrix flows; a bool protocol parameter.
BASES = {
    "ospf-every-injection": {
        "schema_version": 4, "name": "fail-closed", "seed": 7,
        "duration": 12.0,
        "topology": {"kind": "leafspine",
                     "params": {"num_spines": 2, "num_leaves": 2,
                                "hosts_per_leaf": 1, "device": "router"}},
        "protocol": {"kind": "ospf",
                     "params": {"hello_interval": 1.0, "dead_interval": 4.0}},
        "traffic": {"pattern": "permutation", "rate_bps": 5e8,
                    "start_time": 1.0, "duration": 9.0, "stagger": 0.0,
                    "stride": 1, "pairs": [], "flows": []},
        "injections": [
            {"kind": "link-fail", "at": 3.0,
             "node_a": "leaf0", "node_b": "spine0"},
            {"kind": "link-restore", "at": 5.0,
             "node_a": "leaf0", "node_b": "spine0"},
            {"kind": "link-flap", "at": 6.0, "node_a": "leaf1",
             "node_b": "spine1", "cycles": 2, "period": 1.0, "duty": 0.5},
            {"kind": "capacity-degrade", "at": 4.0, "node_a": "leaf0",
             "node_b": "spine0", "factor": 0.5, "until": 8.0},
            {"kind": "traffic-burst", "at": 2.0, "duration": 2.0,
             "rate_bps": 1e8, "flows": 2, "seed": 1, "pairs": []},
            {"kind": "partition", "at": 9.0, "group": ["leaf0", "h0_0"],
             "heal_at": 10.0},
            {"kind": "node-fail", "at": 7.0, "node": "spine1"},
            {"kind": "node-recover", "at": 8.0, "node": "spine1"},
        ],
        "slos": [{"kind": "converged_within", "seconds": 20.0},
                 {"kind": "max_recovery_time", "seconds": 10.0},
                 {"kind": "min_delivered_fraction", "fraction": 0.5},
                 {"kind": "max_control_messages", "count": 100000},
                 {"kind": "expr", "expression": "delivered_fraction >= 0"}],
        "sim_params": {"fti_increment": 0.001, "des_fallback_timeout": 0.1,
                       "stats_interval": 0.5, "max_events": 0,
                       "symmetry": False},
    },
    "static-matrix": {
        "schema_version": 4, "name": "fail-closed-matrix", "seed": 3,
        "duration": 6.0,
        "topology": {"kind": "leafspine",
                     "params": {"num_spines": 2, "num_leaves": 2,
                                "hosts_per_leaf": 1, "device": "router"}},
        "protocol": {"kind": "static", "params": {"ecmp": True}},
        "traffic": {"pattern": "matrix", "rate_bps": 5e8,
                    "start_time": 1.0, "duration": 4.0, "stagger": 0.0,
                    "stride": 1, "pairs": [],
                    "flows": [["h0_0", "h1_0", 1e8], ["h1_0", "h0_0", 2e8]]},
        "injections": [
            {"kind": "traffic-burst", "at": 2.0, "duration": 1.0,
             "rate_bps": 1e8, "flows": 1, "seed": 0,
             "pairs": [["h0_0", "h1_0"]]},
        ],
        "slos": [],
        "sim_params": {},
    },
}

#: (spec_hash, result fingerprint) of each base, recorded before the
#: spec checks existed: checking must not move a valid spec.
PINNED = {
    "ospf-every-injection": ("cd9aab1b0d13d69a", "90448e894d0694df"),
    "static-matrix": ("c224ddc2ad6c68b9", "a6e5bcee6160e34f"),
}

#: One value of every JSON type (and a float where an integer belongs).
SWAPS = (None, True, 7, 1.5, "x", [], {})

#: Fields whose type is deliberately lenient: SLO thresholds coerce
#: ("seconds": "20" gates on 20.0, results/slo.py), and the optional
#: times take null.
LENIENT = {"seconds", "fraction", "count", "expression", "until", "heal_at"}


def json_type(value):
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "integer" if isinstance(value, int) else "number"
    return type(value).__name__


def is_type_swap(original, value):
    before, after = json_type(original), json_type(value)
    return before != after and (before, after) != ("number", "integer")


def paths(node, prefix=()):
    """Every position in a JSON document, root first."""
    yield prefix, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from paths(child, prefix + (key,))


def edited(doc, path, edit):
    doc = copy.deepcopy(doc)
    if not path:
        return edit(None, None)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    edit(parent, path[-1])
    return doc


def corpus(base, seed):
    """(label, mutated document, must-be-ConfigurationError) triples:
    two seeded type swaps at every position, every deletion, one extra
    key or entry in every container."""
    rng = random.Random(seed)
    for path, value in paths(base):
        label = "/".join(map(str, path)) or "<top>"
        swaps = [swap for swap in SWAPS if is_type_swap(value, swap)]
        for swap in rng.sample(swaps, 2):
            def put(parent, key, swap=swap):
                if parent is None:
                    return swap
                parent[key] = swap
            strict = not (path and path[-1] in LENIENT)
            yield f"{label} = {swap!r}", edited(base, path, put), strict
        if path:
            yield (f"del {label}",
                   edited(base, path,
                          lambda parent, key: parent.__delitem__(key)),
                   False)
        if isinstance(value, dict):
            yield (f"{label} + bogus",
                   edited(base, path + ("bogus",),
                          lambda parent, key: parent.__setitem__(key, 1)),
                   True)
        elif isinstance(value, list):
            yield (f"{label} + entry",
                   edited(base, path + (0,),
                          lambda parent, key: parent.append({"bogus": 1})),
                   True)


def run_spec(tmp_path, doc):
    """``repro scenario run --spec`` on ``doc``: ("ran", exit code) or
    ("error", the exception main() converted, its one-line message)."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return "ran", cli.main(["scenario", "run", "--spec", str(path)])
        except SystemExit as exit_:
            return "error", exit_.__context__, exit_.code


@pytest.mark.parametrize("name", sorted(BASES))
def test_valid_spec_is_unmoved(name):
    spec = ScenarioSpec.from_dict(BASES[name])
    assert spec.to_dict() == BASES[name]  # it is a saved spec
    assert (spec.spec_hash(), ScenarioRunner().run(spec).fingerprint()) \
        == PINNED[name]


@pytest.mark.parametrize("name", sorted(BASES))
def test_every_mutant_runs_or_fails_in_one_line(tmp_path, name):
    mutants = list(corpus(BASES[name], seed=25))
    assert len(mutants) > 100
    errors = 0
    for label, doc, strict in mutants:
        outcome = run_spec(tmp_path, doc)
        if outcome[0] == "ran":
            assert not strict, f"{label}: a type swap ran"
            continue
        errors += 1
        __, cause, message = outcome
        assert isinstance(message, str) and "\n" not in message, label
        assert message.startswith("repro scenario run: "), label
        assert isinstance(cause, SimulationError), f"{label}: {cause!r}"
        if strict:
            assert isinstance(cause, ConfigurationError), f"{label}: {cause!r}"
    assert errors > len(mutants) // 2


NAMED = {
    # what used to end in a traceback
    "top level is a list": ([], "a scenario spec must be an object"),
    "top level is a string": ("x", "a scenario spec must be an object"),
    "traffic is a list": ({"traffic": []},
                          "ScenarioSpec.traffic must be an object"),
    "an slos entry is a number": ({"slos": [5]}, "an SLO must be an object"),
    "duration is a string": ({"duration": "12"},
                             "ScenarioSpec.duration must be a number"),
    "duration is null": ({"duration": None},
                         "ScenarioSpec.duration must be a number"),
    "duration is NaN": ({"duration": float("nan")},
                        "ScenarioSpec.duration must be a number"),
    "rate_bps is null": ({"traffic": {"rate_bps": None}},
                         "TrafficRecipe.rate_bps must be a number"),
    "fti_increment is null": (
        {"sim_params": {"fti_increment": None}},
        "sim_params parameter fti_increment must be a number"),
    "an injection's at is a string": (
        {"injections": [{"kind": "link-fail", "at": "3",
                         "node_a": "leaf0", "node_b": "spine0"}]},
        "LinkFail.at must be a number"),
    # what used to be accepted silently
    "seed is a string": ({"seed": "7"},
                         "ScenarioSpec.seed must be an integer"),
    "seed is a float": ({"seed": 1.5},
                        "ScenarioSpec.seed must be an integer"),
    "seed is a bool": ({"seed": True},
                       "ScenarioSpec.seed must be an integer"),
    "name is a number": ({"name": 5}, "ScenarioSpec.name must be a string"),
    "symmetry is a string": (
        {"sim_params": {"symmetry": "false"}},
        "sim_params parameter symmetry must be a boolean"),
    "topology param is a float": (
        {"topology": {"kind": "leafspine",
                      "params": {"num_spines": 1.5, "device": "router"}}},
        "leafspine topology parameter num_spines must be an integer"),
}


@pytest.mark.parametrize("case", sorted(NAMED))
def test_named_defects_are_configuration_errors(tmp_path, case):
    patch, why = NAMED[case]
    if isinstance(patch, dict):
        doc = copy.deepcopy(BASES["ospf-every-injection"])
        for key, value in patch.items():
            if isinstance(value, dict) and isinstance(doc[key], dict):
                doc[key] = {**doc[key], **value}
            else:
                doc[key] = value
    else:
        doc = patch
    __, cause, message = run_spec(tmp_path, doc)
    assert isinstance(cause, ConfigurationError)
    assert message.startswith(f"repro scenario run: {why}, got ")


def test_every_injection_field_is_type_checked():
    """validate() checks the fields each class lists: every dataclass
    field of every registered injection must be listed, once."""
    for cls in INJECTION_KINDS.values():
        names = [name for name, __ in cls.typed_fields]
        assert names == [field.name for field in dataclasses.fields(cls)]


def test_command_line_booleans_read_like_a_spec_file():
    """``--protocol-param ecmp=true`` is the bool a spec file spells
    ``true``; 1 is not."""
    argv = ["scenario", "run", "--protocol", "static", "--topo", "fattree",
            "--topo-param", "k=4", "--topo-param", "device=router",
            "--duration", "30", "--protocol-param"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["ecmp=true"]) == 0
    with pytest.raises(SystemExit, match="ecmp must be a boolean, got 1"):
        cli.main(argv + ["ecmp=1"])
