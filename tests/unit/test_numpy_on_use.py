"""numpy is bound on first use, by the two features that need it.

The arrays mirror and kernel (from ``ARRAYS_MIN_FLOWS`` registered
flows on) and the columnar result store load numpy through
``repro.core.numpy_loader``; nothing else imports it.  This process
imported numpy long ago, so each test runs a fresh interpreter:

* importing the CLI, and running one spec per control plane under the
  threshold into a JSONL store, imports neither numpy nor networkx;
* a spec at the threshold loads numpy and runs on ``arrays``;
* with ``sys.modules["numpy"] = None`` — set before ``repro`` is
  imported (an install without numpy) or after it (the first load
  fails) — that spec runs on ``heap`` with the same fingerprint, no
  vectorized kernel is reached, and a columnar store refuses with its
  one ConfigurationError before it writes a file.
"""

import os
import subprocess
import sys

import pytest

import repro

_SPECS = '''
import os, sys, tempfile
from repro.core.errors import ConfigurationError
from repro.dataplane import arrays
from repro.results import ResultStore
from repro.results.segment import NUMPY_REQUIRED
from repro.scenarios import (ProtocolRecipe, ScenarioSpec, TopologyRecipe,
                             TrafficRecipe, run_scenario)

ROUTERS = TopologyRecipe("fattree", {"k": 4, "device": "router"})
SWITCHES = TopologyRecipe("fattree", {"k": 4})
OSPF = ProtocolRecipe("ospf", {"hello_interval": 1.0, "dead_interval": 4.0})
SMALL = [(TopologyRecipe("wan", {}), OSPF),
         (ROUTERS, ProtocolRecipe("bgp", {})),
         (ROUTERS, ProtocolRecipe("static", {})),
         (SWITCHES, ProtocolRecipe("sdn", {}))]


def spec(topology, protocol, traffic):
    return ScenarioSpec(name=protocol.kind, seed=3, duration=8.0,
                        topology=topology, protocol=protocol, traffic=traffic)


def small_spec(topology, protocol):
    return spec(topology, protocol, TrafficRecipe(
        rate_bps=4e8, start_time=1.0, duration=5.0))


# Every ordered pair of the k=4 fat-tree's 16 hosts: 240 flows.
HOSTS = [f"h{pod}_{edge}_{host}" for pod in range(4) for edge in range(2)
         for host in range(2)]
BIG = spec(ROUTERS, ProtocolRecipe("static", {}), TrafficRecipe(
    pattern="matrix", start_time=1.0, duration=5.0,
    flows=[[src, dst, 1e8] for src in HOSTS for dst in HOSTS if src != dst]))
assert len(BIG.traffic.flows) >= arrays.ARRAYS_MIN_FLOWS


def run(one):
    result = run_scenario(one)
    assert result.error is None, result.error
    return result


def kernel(result):
    return result.diagnostics["realloc"]["kernel"]


def unreachable(*args, **kwargs):
    raise AssertionError("the vectorized kernel ran without numpy")
'''

_UNDER_THRESHOLD = '''
import repro.cli
from repro.scenarios import Campaign
store = ResultStore(os.path.join(tempfile.mkdtemp(), "store"))
Campaign([small_spec(*case) for case in SMALL], workers=1).run(store)
records = list(store.iter_records())
assert [record["result"]["diagnostics"]["realloc"]["kernel"]
        for record in records] == ["heap"] * len(SMALL), records
for name in ("numpy", "networkx"):
    assert name not in sys.modules, name
'''

_AT_THRESHOLD = '''
result = run(BIG)
assert kernel(result) == "arrays"
assert "numpy" in sys.modules
print(result.fingerprint())
'''

_BLOCKED = '''
arrays.bottleneck_filling_arrays = arrays._batch_fill = unreachable
result = run(BIG)
assert kernel(result) == "heap"
assert "arrays" not in result.diagnostics["realloc"]  # no mirror built
assert not arrays.HAVE_NUMPY
path = os.path.join(tempfile.mkdtemp(), "store")
try:
    ResultStore(path, format="columnar")
except ConfigurationError as exc:
    assert str(exc) == NUMPY_REQUIRED, exc
else:
    raise AssertionError("a columnar store opened without numpy")
assert not os.path.exists(path)
print(result.fingerprint())
'''

_BLOCK = 'import sys\nsys.modules["numpy"] = None\n'


def _python(script):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_runs_under_the_threshold_import_neither_numpy_nor_networkx():
    _python(_SPECS + _UNDER_THRESHOLD)


@pytest.mark.parametrize("blocked_before_import", [True, False],
                         ids=["numpy-not-installed", "first-load-fails"])
def test_without_numpy_the_engine_stays_on_heap(blocked_before_import):
    """The fingerprint of a spec at the threshold is the arrays run's.
    Blocked before ``repro`` loads, ``HAVE_NUMPY`` starts false; blocked
    after, the first load fails and clears it."""
    blocked = (_BLOCK + _SPECS if blocked_before_import
               else _SPECS + _BLOCK) + _BLOCKED
    assert _python(blocked) == _python(_SPECS + _AT_THRESHOLD)
