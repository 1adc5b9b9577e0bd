"""Unit: one fabric graph, asked one way.

``repro.topology.paths`` is the only hop-count BFS and the only
all-shortest-paths unwind in ``src/``: the controller's
``TopologyView``, the static control plane and the baseline emulator
ask it, and networkx is what ``requirements-dev.txt`` says it is — the
``jellyfish`` builder's generator, two ``graph()`` exports and the
oracle these tests compare against.  Pinned here:

* nothing on the run path imports networkx;
* ``shortest_paths`` gives ``sorted(nx.all_shortest_paths(...))``;
* the static FIBs and the baseline's next hops are the ones the parent
  commit (own BFS, ``nx.all_shortest_paths``) chose — goldens recorded
  there.
"""

import hashlib
import json
import os
import subprocess
import sys

import networkx as nx
import pytest

import repro
from repro.api.control_setup import setup_static_routes
from repro.api.experiment import Experiment
from repro.baseline import PacketLevelEmulator
from repro.core.errors import TopologyError
from repro.topology import FatTreeTopo, Topo, jellyfish_topo
from repro.topology.paths import hop_distances, shortest_paths
from repro.traffic import permutation_pairs

# ---------------------------------------------------------------------------
# Import hygiene
# ---------------------------------------------------------------------------

_IMPORTS = "import repro.cli, repro.scenarios, repro.fleet, repro.baseline\n"

_RUNS = '''
from repro.baseline import PacketLevelEmulator
from repro.scenarios import (ProtocolRecipe, ScenarioSpec, TopologyRecipe,
                             TrafficRecipe, run_scenario)
from repro.topology import FatTreeTopo
from repro.traffic import permutation_pairs

traffic = TrafficRecipe(pattern="permutation", rate_bps=4e8,
                        start_time=1.0, duration=3.0)
for device, protocol in (("switch", ProtocolRecipe("sdn", {})),
                         ("router", ProtocolRecipe("static", {})),
                         ("router", ProtocolRecipe("static", {"ecmp": True}))):
    result = run_scenario(ScenarioSpec(
        name=protocol.kind, seed=3, duration=5.0,
        topology=TopologyRecipe("fattree", {"k": 4, "device": device}),
        protocol=protocol, traffic=traffic))
    assert result.error is None, result.error
    assert result.flows_delivered == result.flows_total == 16, protocol

topo = FatTreeTopo(k=4)
emulator = PacketLevelEmulator(topo, time_scale=0.0)
emulator.setup()
report = emulator.run_udp_workload(permutation_pairs(topo.hosts(), seed=42),
                                   duration=1.0, packets_per_second=5)
assert report.packets_delivered == report.packets_sent == 80, report
'''


def _python(script):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_the_run_path_works_with_networkx_blocked():
    """``sys.modules["networkx"] = None`` makes any import of it raise:
    the CLI, scenarios, fleet and baseline import, and an SDN scenario,
    both static scenarios and a baseline workload run, without it."""
    done = _python('import sys\nsys.modules["networkx"] = None\n'
                   + _IMPORTS + _RUNS)
    assert done.returncode == 0, done.stderr


def test_importing_the_packages_does_not_import_networkx():
    done = _python(_IMPORTS + 'import sys\n'
                   'assert "networkx" not in sys.modules\n')
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# shortest_paths against networkx
# ---------------------------------------------------------------------------


def _fabric(topo):
    """The forwarding devices of a topo, as ``paths`` wants them."""
    around = {name: {} for name in topo.switch_specs}
    for link in topo.link_specs:
        if link.node_a in around and link.node_b in around:
            around[link.node_a][link.node_b] = None
            around[link.node_b][link.node_a] = None
    return {name: tuple(peers) for name, peers in around.items()}


def _disconnected():
    topo = Topo("islands")
    for name in ("a1", "a2", "a3", "b1", "b2", "lonely"):
        topo.add_switch(name)
    for a, b in (("a1", "a2"), ("a2", "a3"), ("a1", "a3"), ("b1", "b2")):
        topo.add_link(a, b)
    return topo


@pytest.mark.parametrize("fabric", [
    _fabric(FatTreeTopo(k=4)),
    _fabric(FatTreeTopo(k=4, device="router")),
    _fabric(jellyfish_topo(num_switches=16, ports_per_switch=4, seed=3)),
    _fabric(_disconnected()),
], ids=["fattree-switch", "fattree-router", "jellyfish", "disconnected"])
def test_shortest_paths_equal_networkx(fabric):
    graph = nx.Graph()
    graph.add_nodes_from(fabric)
    graph.add_edges_from((a, b) for a in fabric for b in fabric[a])
    for src in fabric:
        dist = hop_distances(fabric, src)
        assert dist == nx.single_source_shortest_path_length(graph, src)
        for dst in fabric:
            if nx.has_path(graph, src, dst):
                expected = sorted(nx.all_shortest_paths(graph, src, dst))
            else:
                expected = []
            assert shortest_paths(fabric, dist, src, dst) == expected, (
                src, dst)
    assert hop_distances(fabric, "nowhere") == {}
    assert shortest_paths(fabric, {}, "nowhere", next(iter(fabric))) == []


# ---------------------------------------------------------------------------
# Goldens recorded from the parent commit
# ---------------------------------------------------------------------------


def _digest(rows):
    return hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest()


STATIC_FIBS = {
    (4, False): (152, "b8f3e6469b43bc2b27435eddc0120bedccc4f4723e214f0c7ad427fb0ce4c329"),
    (4, True): (152, "4aedf9303cff058fcd3c3944ca8189fe86c97075c4c17b58624c1e55ec3f8167"),
    (8, False): (2528, "5fa345240e53931301c1ee1a613f391307fc1b7d00493657b28cbefcf7906e1f"),
    (8, True): (2528, "be2643c57fdeef76efd130acc1e74ee503fa8083e36661c3e64e387fc45e5efd"),
}


@pytest.mark.parametrize("k, ecmp", sorted(STATIC_FIBS))
def test_static_routes_are_the_parents(k, ecmp):
    exp = Experiment(f"static-{k}")
    exp.load_topo(FatTreeTopo(k=k, device="router"))
    installed = setup_static_routes(exp, ecmp=ecmp)
    rows = [(router.name, str(entry.prefix),
             [(hop.port, hop.gateway and str(hop.gateway))
              for hop in entry.next_hops])
            for router in exp.network.routers()
            for entry in router.fib.entries()]
    assert (sum(installed.values()), _digest(rows)) == STATIC_FIBS[k, ecmp]


def test_baseline_next_hops_are_the_parents():
    topo = FatTreeTopo(k=4)
    emulator = PacketLevelEmulator(topo, time_scale=0.0)
    emulator.setup()
    emulator.install_ecmp_paths(permutation_pairs(topo.hosts(), seed=42),
                                hash_seed=42)
    rows = [(switch, flow, hop)
            for (switch, flow), hop in emulator._next_hop.items()]
    assert len(rows) == 80
    assert _digest(rows) == ("6f4300d2b68419c463843e288dd981ae"
                             "fc269515b2443a06519402b66a034b6f")


def test_baseline_names_an_unattached_host_and_an_unreachable_pair():
    topo = _disconnected()
    topo.add_host("ha", "10.0.0.1")
    topo.add_host("hb", "10.0.0.2")
    topo.add_host("adrift", "10.0.0.3")
    topo.add_link("ha", "a1")
    topo.add_link("hb", "b1")
    emulator = PacketLevelEmulator(topo, time_scale=0.0)
    emulator.setup()
    with pytest.raises(TopologyError, match="not attached"):
        emulator.install_ecmp_paths([("ha", "adrift")])
    # nx.all_shortest_paths raised NetworkXNoPath here.
    with pytest.raises(TopologyError, match="no path from 'ha' to 'hb'"):
        emulator.install_ecmp_paths([("ha", "hb")])
    emulator.install_ecmp_paths([("ha", "ha")])
    assert emulator._next_hop == {("a1", 0): "ha"}
