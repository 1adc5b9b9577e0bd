"""A fingerprint does not depend on the interpreter's string-hash seed.

Iteration over a set or a dict keyed by strings follows ``hash(str)``,
which ``PYTHONHASHSEED`` salts per process.  If such an order leaked
into event scheduling, routing or rate allocation, two processes would
disagree on a scenario's fingerprint.  Two interpreters, one with
``PYTHONHASHSEED=0`` and one with ``777``, each run one short spec per
protocol (plus the symmetry quotient) and print their fingerprints;
the two lists must be equal.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

RUN_SPECS = """
import dataclasses
from repro.scenarios import (
    ProtocolRecipe, TopologyRecipe, generate_scenario, run_scenario)

ROUTERS = TopologyRecipe("fattree", {"k": 4, "device": "router"})
SWITCHES = TopologyRecipe("fattree", {"k": 4})
WAN = TopologyRecipe("wan", {})
OSPF = ProtocolRecipe("ospf", {"hello_interval": 1.0, "dead_interval": 4.0})
cases = [
    ("none", SWITCHES, ProtocolRecipe("none", {}), "gray-brownout"),
    ("static", ROUTERS, ProtocolRecipe("static", {}), "k-random-links"),
    ("ospf", WAN, OSPF, "flap-storm"),
    ("bgp", ROUTERS, ProtocolRecipe("bgp", {}), "srlg"),
    ("sdn", SWITCHES, ProtocolRecipe("sdn", {}), "rolling-maintenance"),
]
specs = [(name, generate_scenario(2, pattern=pattern, topology=topology,
                                  protocol=protocol, duration=30.0))
         for name, topology, protocol, pattern in cases]
# The static run again, through the symmetry quotient.
specs.append(("symmetry", dataclasses.replace(
    specs[1][1], sim_params={"symmetry": True})))
for name, spec in specs:
    result = run_scenario(spec)
    assert result.error is None, (name, result.error)
    print(name, result.fingerprint())
"""


def fingerprints(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", RUN_SPECS], env=env, capture_output=True,
        text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()


def test_fingerprints_equal_under_two_hash_seeds():
    first = fingerprints(0)
    assert [line.split()[0] for line in first] == [
        "none", "static", "ospf", "bgp", "sdn", "symmetry"]
    assert fingerprints(777) == first
