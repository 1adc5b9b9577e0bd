"""Unit tests: the Jellyfish random-regular topology."""

import sys

import pytest

from repro import cli
from repro.api import Experiment
from repro.controllers import FiveTupleEcmpApp
from repro.core.errors import ConfigurationError, TopologyError
from repro.topology import jellyfish_topo
from repro.traffic import permutation_pairs


class TestStructure:
    def test_counts(self):
        topo = jellyfish_topo(num_switches=10, ports_per_switch=4,
                              hosts_per_switch=2)
        assert len(topo.switches()) == 10
        assert len(topo.hosts()) == 20
        # fabric links: 10 * 4 / 2 = 20, plus 20 host links.
        assert len(topo.link_specs) == 40

    def test_regular_degree(self):
        topo = jellyfish_topo(num_switches=12, ports_per_switch=4,
                              hosts_per_switch=1)
        fabric_degree = {name: 0 for name in topo.switches()}
        for link in topo.link_specs:
            if link.node_a.startswith("s") and link.node_b.startswith("s"):
                fabric_degree[link.node_a] += 1
                fabric_degree[link.node_b] += 1
        assert set(fabric_degree.values()) == {4}

    def test_deterministic_per_seed(self):
        a = jellyfish_topo(num_switches=10, seed=3)
        b = jellyfish_topo(num_switches=10, seed=3)
        c = jellyfish_topo(num_switches=10, seed=4)
        links_a = [(l.node_a, l.node_b) for l in a.link_specs]
        links_b = [(l.node_a, l.node_b) for l in b.link_specs]
        links_c = [(l.node_a, l.node_b) for l in c.link_specs]
        assert links_a == links_b
        assert links_a != links_c

    def test_parameter_validation(self):
        with pytest.raises(TopologyError):
            jellyfish_topo(num_switches=3, ports_per_switch=4)
        with pytest.raises(TopologyError):
            jellyfish_topo(num_switches=5, ports_per_switch=3)


class TestWithoutNetworkx:
    """networkx is the ``jellyfish`` extra, not a requirement: without
    it the builder says so instead of ``ModuleNotFoundError``."""

    @pytest.fixture(autouse=True)
    def hide_networkx(self, monkeypatch):
        # A None entry makes ``import networkx`` raise ImportError.
        monkeypatch.setitem(sys.modules, "networkx", None)

    def test_the_builder_names_the_extra(self):
        with pytest.raises(ConfigurationError,
                           match=r"needs networkx.*'jellyfish' extra"):
            jellyfish_topo(num_switches=10)

    def test_one_line_exit_1_from_the_cli(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scenario", "run", "--topo", "jellyfish",
                      "--duration", "30"])
        message = excinfo.value.code    # a str exits 1 and prints itself
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(
            "repro scenario run: the jellyfish topology needs networkx")
        assert "'jellyfish' extra" in message


class TestTrafficOnJellyfish:
    def test_ecmp_app_delivers_permutation(self):
        exp = Experiment("jelly")
        topo = jellyfish_topo(num_switches=10, ports_per_switch=4,
                              hosts_per_switch=1, seed=7)
        exp.load_topo(topo)
        app = FiveTupleEcmpApp(exp.topology_view())
        exp.use_controller(apps=[app])
        pairs = permutation_pairs(topo.hosts(), seed=7)
        exp.add_traffic(pairs)
        result = exp.run(until=11.0)
        assert result.flows_delivered == result.flows_total == 10
