"""Unit: user-given parameters are checked by name before they reach a
``**kwargs`` call.

Every registry entry (topology builder, failure pattern, protocol kind,
traffic family) and ``sim_params`` gets one seeded unknown key; each
must be a :class:`ConfigurationError` that names the key and lists what
is accepted — never the bare ``TypeError`` the call itself would raise.
The same goes for a required parameter nobody gave.
"""

import inspect
import random
import string

import pytest

from repro import cli
from repro.core.errors import ConfigurationError
from repro.scenarios import (
    TRAFFIC_FAMILIES,
    ProtocolRecipe,
    ScenarioRunner,
    ScenarioSpec,
    TopologyRecipe,
    generate_scenario,
)
from repro.scenarios.generators import PATTERNS
from repro.scenarios.runner import _PROTOCOL_SETUPS
from repro.scenarios.spec import (
    PROTOCOL_KINDS,
    TOPOLOGY_BUILDERS,
    check_params,
)

_RNG = random.Random(17)


def unknown_key():
    return "x_" + "".join(_RNG.choice(string.ascii_lowercase)
                          for __ in range(8))


def assert_names(excinfo, key):
    message = str(excinfo.value)
    assert repr(key) in message
    assert "accepted:" in message


@pytest.mark.parametrize("kind", sorted(TOPOLOGY_BUILDERS))
def test_topology_builders_reject_unknown_parameters(kind):
    key = unknown_key()
    with pytest.raises(ConfigurationError) as excinfo:
        TopologyRecipe(kind, {key: 1}).build()
    assert_names(excinfo, key)


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_patterns_reject_unknown_parameters(pattern):
    key = unknown_key()
    with pytest.raises(ConfigurationError) as excinfo:
        generate_scenario(1, pattern=pattern, pattern_params={key: 1})
    assert_names(excinfo, key)


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_patterns_reject_the_parameters_the_generator_supplies(pattern):
    """``seed`` and ``rng`` are the generator's to give: passing one
    was a "multiple values for keyword" TypeError."""
    with pytest.raises(ConfigurationError) as excinfo:
        generate_scenario(1, pattern=pattern, pattern_params={"seed": 3})
    assert_names(excinfo, "seed")


def test_protocol_setup_table_is_the_protocol_registry():
    assert set(_PROTOCOL_SETUPS) == set(PROTOCOL_KINDS)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_protocols_reject_unknown_parameters(kind):
    key = unknown_key()
    spec = generate_scenario(1, protocol=ProtocolRecipe(kind, {key: 1}))
    with pytest.raises(ConfigurationError) as excinfo:
        ScenarioRunner().materialize(spec)
    assert_names(excinfo, key)


#: Protocol parameters with a known name and a value nothing can run
#: with: (parameters, the name the error must carry).
BAD_OSPF_TIMERS = [
    ({"hello_interval": 7000}, "hello_interval"),   # was a struct.error
    ({"hello_interval": 0}, "hello_interval"),      # was a SchedulingError
    ({"hello_interval": -1}, "hello_interval"),
    ({"dead_interval": 7000}, "dead_interval"),
    ({"dead_interval": 1.0}, "dead_interval"),      # ran, never converged
    ({"hello_interval": 3.0, "dead_interval": 3.0}, "dead_interval"),
    ({"spf_delay": -0.5}, "spf_delay"),             # was a SchedulingError
]


@pytest.mark.parametrize("params, name", BAD_OSPF_TIMERS)
def test_ospf_timers_are_rejected_at_materialize(params, name):
    spec = generate_scenario(1, protocol=ProtocolRecipe("ospf", params))
    with pytest.raises(ConfigurationError) as excinfo:
        ScenarioRunner().materialize(spec)
    assert_names(excinfo, name)


@pytest.mark.parametrize("params, name", BAD_OSPF_TIMERS)
def test_a_bad_ospf_timer_is_one_line_from_the_cli(params, name):
    argv = ["scenario", "run", "--protocol", "ospf", "--duration", "30"]
    for key, value in params.items():
        argv += ["--protocol-param", f"{key}={value}"]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"repro scenario run: OSPF {name!r} is ")
    assert "accepted: " in message


#: The same for BGP, which needs routers.
BAD_BGP_PARAMS = [
    ({"max_paths": 0}, "max_paths"),            # was a ValueError mid-run
    ({"hold_time": -5}, "hold_time"),           # was a struct.error
    ({"hold_time": 2}, "hold_time"),            # below RFC 4271's 3 s
    ({"keepalive_interval": 0}, "keepalive_interval"),  # SchedulingError
    ({"advertisement_interval": -1}, "advertisement_interval"),  # the same
]
ROUTER_FATTREE = ["--topo", "fattree", "--topo-param", "k=4",
                  "--topo-param", "device=router"]


@pytest.mark.parametrize("params, name", BAD_BGP_PARAMS)
def test_bgp_parameters_are_rejected_at_materialize(params, name):
    spec = generate_scenario(
        1, topology=TopologyRecipe("fattree", {"k": 4, "device": "router"}),
        protocol=ProtocolRecipe("bgp", params))
    with pytest.raises(ConfigurationError) as excinfo:
        ScenarioRunner().materialize(spec)
    assert_names(excinfo, name)


@pytest.mark.parametrize("params, name", BAD_BGP_PARAMS)
def test_a_bad_bgp_parameter_is_one_line_from_the_cli(params, name):
    argv = ["scenario", "run", "--protocol", "bgp", "--duration", "30",
            *ROUTER_FATTREE]
    for key, value in params.items():
        argv += ["--protocol-param", f"{key}={value}"]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"repro scenario run: BGP {name!r} is ")
    assert "accepted: " in message


@pytest.mark.parametrize("family", TRAFFIC_FAMILIES)
def test_traffic_families_reject_unknown_parameters(family):
    key = unknown_key()
    with pytest.raises(ConfigurationError) as excinfo:
        generate_scenario(1, traffic_family=family,
                          traffic_params={key: 1})
    assert_names(excinfo, key)


def test_sim_params_reject_unknown_keys_at_validate():
    """A typoed *top-level* spec key was always rejected by name; a
    typoed ``sim_params`` key passed validate() and died as a TypeError
    in ``SimulationConfig.__init__``."""
    spec = ScenarioSpec.from_dict({
        **generate_scenario(1).to_dict(),
        "sim_params": {"incremental_reallocc": False}})
    with pytest.raises(ConfigurationError) as excinfo:
        spec.validate()
    assert_names(excinfo, "incremental_reallocc")


def test_the_removed_reallocation_knob_is_rejected_like_any_unknown_key():
    spec = generate_scenario(1)
    spec.sim_params["incremental_realloc"] = False
    with pytest.raises(ConfigurationError) as excinfo:
        ScenarioRunner().materialize(spec)
    assert_names(excinfo, "incremental_realloc")


def test_known_sim_params_still_pass():
    spec = generate_scenario(1)
    spec.sim_params.update(fti_increment=0.002, seed=9, symmetry=True)
    spec.validate()


def test_a_real_type_error_is_not_swallowed():
    """The check reads names only; a defect inside the call stays a
    TypeError."""
    def builder(k=4):
        return k + "one"

    check_params("toy", builder, {"k": 2})
    with pytest.raises(TypeError):
        builder(k=2)
    with pytest.raises(ConfigurationError, match="accepted: k"):
        check_params("toy", builder, {"kk": 2})


# -- required parameters nobody gave ---------------------------------------


def required_parameters(target):
    return [name for name, parameter
            in inspect.signature(target).parameters.items()
            if parameter.default is parameter.empty]


#: (kind, parameter) for every builder parameter without a default.
REQUIRED_TOPOLOGY_PARAMETERS = [
    (kind, name) for kind in sorted(TOPOLOGY_BUILDERS)
    for name in required_parameters(TOPOLOGY_BUILDERS[kind])]


def test_the_builders_with_a_required_parameter_are_known():
    """The cases below must not pass by finding nothing."""
    assert REQUIRED_TOPOLOGY_PARAMETERS == [
        ("graphml", "path"), ("linear", "num_switches"),
        ("star", "num_hosts")]


@pytest.mark.parametrize("kind, name", REQUIRED_TOPOLOGY_PARAMETERS)
def test_topology_builders_name_a_missing_required_parameter(kind, name):
    """Was ``TypeError: linear_topo() missing 1 required positional
    argument: 'num_switches'``."""
    with pytest.raises(ConfigurationError) as excinfo:
        TopologyRecipe(kind).build()
    message = str(excinfo.value)
    assert message.startswith(f"{kind} topology needs {name}; accepted: ")
    assert name in message.partition("accepted: ")[2].split(", ")


@pytest.mark.parametrize("kind, name", REQUIRED_TOPOLOGY_PARAMETERS)
def test_a_missing_topology_parameter_is_one_line_from_the_cli(kind, name):
    argv = ["scenario", "run", "--topo", kind, "--duration", "30"]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(
        f"repro scenario run: {kind} topology needs {name}; accepted: ")


def test_an_unknown_key_is_reported_before_a_missing_one():
    """A typo of the required name is the likelier mistake: name it."""
    with pytest.raises(ConfigurationError, match="unknown linear topology "
                                                 "parameter 'num_switchs'"):
        TopologyRecipe("linear", {"num_switchs": 3}).build()


def test_parameters_the_caller_supplies_are_never_missing():
    """Every setup's ``exp``, the ``sdn`` setup's ``hash_seed``, every
    pattern's ``topo``/``seed``/``rng`` and the traffic matrix's
    ``topo``/``family``/``rng`` have no default and are the caller's to
    give: empty user parameters must stay silent everywhere."""
    assert "hash_seed" in required_parameters(_PROTOCOL_SETUPS["sdn"])
    for kind in PROTOCOL_KINDS:
        assert "exp" in required_parameters(_PROTOCOL_SETUPS[kind])
        ScenarioRunner().materialize(
            generate_scenario(1, protocol=ProtocolRecipe(kind, {})))
    for pattern in sorted(PATTERNS):
        assert "topo" in required_parameters(PATTERNS[pattern])
        generate_scenario(1, pattern=pattern)
    for family in TRAFFIC_FAMILIES:
        generate_scenario(1, traffic_family=family)


def test_check_params_names_every_missing_parameter():
    def builder(exp, width, depth, fanout=2):
        return exp, width, depth, fanout

    check_params("toy", builder, {"width": 1, "depth": 2},
                 supplied=("exp",))
    with pytest.raises(ConfigurationError,
                       match="^toy needs depth, width; "
                             "accepted: depth, fanout, width$"):
        check_params("toy", builder, {}, supplied=("exp",))
