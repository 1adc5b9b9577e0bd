"""Unit tests: the GraphML topology importer and its CLI surface
(``repro topo import`` / ``repro topo classes``)."""

import contextlib
import io
import json
import os

import pytest

from repro import cli
from repro.core.errors import TopologyError
from repro.topology.graphml import graphml_topo, parse_graphml

DATA_DIR = os.path.abspath(os.path.join(
    os.path.dirname(__file__), "..", "data"))


def fixture(name):
    return os.path.join(DATA_DIR, name)


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class TestParse:
    def test_ring_fixture(self):
        with open(fixture("ring4.graphml")) as handle:
            graph_name, names, edges = parse_graphml(handle.read())
        assert names == ["R0", "R1", "R2", "R3"]
        assert len(edges) == 4
        assert all(capacity == 10e9 for _, _, capacity in edges)

    def test_star_labels_sanitized(self):
        with open(fixture("star3.graphml")) as handle:
            _, names, edges = parse_graphml(handle.read())
        # "Leaf A" etc. sanitize to identifier-ish names
        assert names == ["Hub", "Leaf_A", "Leaf_B", "Leaf_C"]
        assert all(capacity is None for _, _, capacity in edges)

    def test_namespace_free_document(self):
        with open(fixture("mesh5.graphml")) as handle:
            _, names, edges = parse_graphml(handle.read())
        assert len(names) == 5
        capacities = {capacity for _, _, capacity in edges}
        assert len(capacities) > 1  # mixed LinkSpeedRaw values survive

    def test_label_collisions_get_suffixes(self):
        text = """<graphml><graph id=\"g\">
            <node id=\"n0\"><data key=\"label\">Same</data></node>
            <node id=\"n1\"><data key=\"label\">Same</data></node>
            <node id=\"n2\"><data key=\"label\">Same</data></node>
            <edge source=\"n0\" target=\"n1\"/>
          </graph></graphml>"""
        _, names, edges = parse_graphml(text)
        assert names == ["Same", "Same_2", "Same_3"]
        assert edges == [("Same", "Same_2", None)]

    def test_non_finite_capacity_skipped(self):
        # A non-finite value is skipped like an unparsable one: the next
        # capacity attribute, else the default, sets the link.
        text = """<graphml>
            <key id="s" for="edge" attr.name="LinkSpeedRaw"/>
            <key id="b" for="edge" attr.name="bandwidth"/>
            <graph id="g"><node id="a"/><node id="b"/><node id="c"/>
            <edge source="a" target="b"><data key="s">inf</data>
              <data key="b">2e9</data></edge>
            <edge source="b" target="c"><data key="s">nan</data></edge>
          </graph></graphml>"""
        _, __, edges = parse_graphml(text)
        assert [capacity for __, __, capacity in edges] == [2e9, None]

    def test_self_loops_dropped(self):
        text = """<graphml><graph id=\"g\">
            <node id=\"a\"/><node id=\"b\"/>
            <edge source=\"a\" target=\"a\"/>
            <edge source=\"a\" target=\"b\"/>
          </graph></graphml>"""
        _, names, edges = parse_graphml(text)
        assert len(edges) == 1

    def test_bad_xml_rejected(self):
        with pytest.raises(TopologyError):
            parse_graphml("<graphml><graph></graphml>")

    def test_non_graphml_root_rejected(self):
        with pytest.raises(TopologyError):
            parse_graphml("<svg><graph/></svg>")

    def test_edge_to_unknown_node_rejected(self):
        with pytest.raises(TopologyError):
            parse_graphml("""<graphml><graph id=\"g\">
                <node id=\"a\"/>
                <edge source=\"a\" target=\"ghost\"/>
              </graph></graphml>""")

    def test_empty_graph_rejected(self):
        with pytest.raises(TopologyError):
            parse_graphml("<graphml><graph id=\"g\"/></graphml>")


class TestBuild:
    def test_router_mode_with_hosts(self):
        topo = graphml_topo(fixture("ring4.graphml"), hosts_per_node=2)
        assert len(topo.switch_specs) == 4
        assert len(topo.host_specs) == 8
        # 4 ring links + 8 host uplinks
        assert len(topo.link_specs) == 12
        assert topo.host_specs["h_R0_0"].gateway is not None

    def test_switch_mode(self):
        topo = graphml_topo(fixture("ring4.graphml"), device="switch")
        assert all(spec.kind == "switch"
                   for spec in topo.switch_specs.values())
        assert topo.host_specs["h_R0_0"].gateway is None

    def test_capacity_fallback(self):
        topo = graphml_topo(fixture("star3.graphml"),
                            default_capacity_bps=7e9)
        fabric = [l for l in topo.link_specs
                  if not l.node_a.startswith("h_")
                  and not l.node_b.startswith("h_")]
        assert all(l.capacity_bps == 7e9 for l in fabric)

    def test_missing_file_rejected(self):
        with pytest.raises(TopologyError):
            graphml_topo(fixture("nope.graphml"))

    def test_bad_device_rejected(self):
        with pytest.raises(TopologyError):
            graphml_topo(fixture("ring4.graphml"), device="hub")


class TestCliTopo:
    def test_topo_import_emits_recipe(self, tmp_path):
        out = str(tmp_path / "recipe.json")
        code, _ = run_cli(["topo", "import", fixture("ring4.graphml"),
                           "--hosts-per-node", "2", "--out", out])
        assert code == 0
        with open(out) as handle:
            recipe = json.load(handle)
        assert recipe["kind"] == "graphml"
        assert recipe["params"]["hosts_per_node"] == 2
        assert recipe["params"]["path"].endswith("ring4.graphml")

    def test_topo_import_bad_file_fails(self, tmp_path):
        bad = tmp_path / "bad.graphml"
        bad.write_text("<not-graphml/>")
        with pytest.raises(SystemExit):
            run_cli(["topo", "import", str(bad)])

    def test_topo_classes_builtin(self):
        code, out = run_cli(["topo", "classes", "--topo", "fattree",
                             "--topo-param", "k=4",
                             "--topo-param", "device=router"])
        assert code == 0
        assert "36 nodes -> 4 classes" in out
        assert "digest" in out

    def test_topo_classes_graphml_identity(self):
        code, out = run_cli(["topo", "classes", "--topo", "graphml",
                             "--topo-param",
                             f"path={fixture('mesh5.graphml')}"])
        assert code == 0
        assert "compression 1.00x" in out

    def test_topo_classes_from_spec(self, tmp_path):
        from repro.scenarios import (
            NodeFail, ProtocolRecipe, ScenarioSpec, TopologyRecipe,
            TrafficRecipe,
        )
        spec = ScenarioSpec(
            name="cls", seed=1, duration=5.0,
            topology=TopologyRecipe("fattree",
                                    {"k": 4, "device": "router"}),
            protocol=ProtocolRecipe("static", {}),
            traffic=TrafficRecipe(pattern="none"),
            injections=[NodeFail(at=2.0, node="c0_0")],
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        code, out = run_cli(["topo", "classes", "--spec", str(path)])
        assert code == 0
        # the pinned core router is split out into its own class
        assert "c0_0" in out
