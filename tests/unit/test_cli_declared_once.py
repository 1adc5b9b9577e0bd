"""Unit: the CLI declares each choice, loader and exit once.

Regression tests for what drifted while they were declared several
times: ``choices`` lists that lagged their registries, library errors
that ended in tracebacks, and ``trace run`` ignoring the SLO gate.
Every test drives ``cli.main([...])`` in process.
"""

import argparse
import contextlib
import io
import json
import os

import pytest

from repro import cli
from repro.obs import TRACER, disable_tracing
from repro.results import ResultStore
from repro.scenarios import TRAFFIC_FAMILIES
from repro.scenarios.generators import PATTERNS
from repro.scenarios.search import STRATEGIES
from repro.scenarios.spec import PROTOCOL_KINDS, TOPOLOGY_BUILDERS

RING4 = os.path.join(os.path.dirname(__file__), "..", "data", "ring4.graphml")

REGISTRIES = {
    "pattern": PATTERNS,
    "topo": TOPOLOGY_BUILDERS,
    "protocol": PROTOCOL_KINDS,
    "traffic_family": TRAFFIC_FAMILIES,
    "strategy": STRATEGIES,
}


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def registry_actions():
    """(command, action) for every option, on every subcommand, whose
    value one of the registries validates."""
    found = []

    def walk(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    walk(sub)
            elif action.dest in REGISTRIES:
                found.append((parser.prog, action))

    walk(cli.build_parser())
    return found


@pytest.mark.parametrize(
    "command, action", registry_actions(),
    ids=lambda value: (value.dest if isinstance(value, argparse.Action)
                       else value.replace(" ", "-")))
def test_choices_are_the_registry(command, action):
    assert action.choices is not None, f"{command} --{action.dest}"
    assert set(action.choices) == set(REGISTRIES[action.dest])
    if action.dest == "protocol":
        assert action.default is None


def test_every_registry_option_was_found():
    """The walk above must not pass by finding nothing: seven commands
    take the family options, ``topo classes`` takes ``--topo``."""
    dests = [action.dest for __, action in registry_actions()]
    assert dests.count("topo") == 8
    assert dests.count("protocol") == 7
    assert dests.count("strategy") == 1


@pytest.mark.parametrize("command", ["run", "resume"])
def test_campaign_has_one_fan_out(tmp_path, command):
    """A sweep fans out over this box with ``--workers N`` and across
    boxes with ``fleet serve``; ``campaign run|resume --fleet N`` is
    gone, so argparse rejects it (exit 2) before anything runs."""
    with pytest.raises(SystemExit) as excinfo, \
            contextlib.redirect_stderr(io.StringIO()):
        run_cli(["campaign", command, "--store", str(tmp_path / "s"),
                 "--count", "2", "--fleet", "2"])
    assert excinfo.value.code == 2
    assert not os.path.exists(tmp_path / "s")


def test_static_protocol_runs_from_the_command_line():
    code, out = run_cli(["scenario", "run", "--protocol", "static",
                         "--topo", "fattree", "--topo-param", "k=4",
                         "--topo-param", "device=router",
                         "--duration", "30"])
    assert code == 0
    assert "fp=" in out


def test_graphml_topology_runs_from_the_command_line():
    code, out = run_cli(["scenario", "run", "--topo", "graphml",
                         "--topo-param", f"path={RING4}",
                         "--duration", "30"])
    assert code == 0
    assert "fp=" in out


def _spec_file_with_typoed_sim_param(tmp_path):
    path = tmp_path / "spec.json"
    run_cli(["scenario", "run", "--duration", "30",
             "--save-spec", str(path)])
    spec = json.loads(path.read_text())
    spec["sim_params"] = {"incremental_reallocc": False}
    path.write_text(json.dumps(spec))
    return ["scenario", "run", "--spec", str(path)]


ONE_LINE_ERRORS = {
    "odd fat-tree": lambda tmp: [
        "scenario", "run", "--topo", "fattree", "--topo-param", "k=3"],
    "pattern acts after the horizon": lambda tmp: [
        "scenario", "run", "--duration", "2"],
    "unwritable csv": lambda tmp: [
        "campaign", "report", "--store", str(tmp / "store"),
        "--csv", str(tmp / "absent" / "x.csv")],
    "unwritable save-spec": lambda tmp: [
        "scenario", "run", "--save-spec", str(tmp / "absent" / "x.json")],
    "unknown topo param": lambda tmp: [
        "scenario", "run", "--topo-param", "bogus=1"],
    "unknown pattern param": lambda tmp: [
        "scenario", "run", "--pattern-param", "bogus=1"],
    "unknown protocol param": lambda tmp: [
        "scenario", "run", "--protocol", "ospf",
        "--protocol-param", "bogus=1"],
    "unknown traffic param": lambda tmp: [
        "scenario", "run", "--traffic-family", "hotspot",
        "--traffic-param", "bogus=1"],
    "unknown sim_params key in a spec file": _spec_file_with_typoed_sim_param,
}


@pytest.mark.parametrize("case", sorted(ONE_LINE_ERRORS))
def test_library_errors_exit_with_one_line(tmp_path, case):
    """Each of these ended in a traceback: the error is now one
    ``<command>: <why>`` line (SystemExit with a string prints it to
    stderr and exits 1)."""
    ResultStore(str(tmp_path / "store"))
    argv = ONE_LINE_ERRORS[case](tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        run_cli(argv)
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message
    what, __, why = message.partition(": ")
    assert what == "repro " + " ".join(argv[:2])
    assert why


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_trace_run_gates_on_slos_like_scenario_run(tmp_path, json_flag):
    options = ["--seed", "1", "--duration", "30",
               "--slo", "max_control_messages=1"] + json_flag
    scenario_code, __ = run_cli(["scenario", "run"] + options)
    try:
        trace_code, __ = run_cli(["trace", "run", "--out",
                                  str(tmp_path / "trace.json")] + options)
    finally:
        disable_tracing()  # trace run arms the module-global tracer
        TRACER.clear()
    assert scenario_code == 1
    assert trace_code == scenario_code
