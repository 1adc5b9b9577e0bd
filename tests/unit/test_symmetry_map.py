"""Unit tests: color-refinement symmetry detection (SymmetryMap).

The map is a *candidate* automorphism partition: the tests here pin
its structural answers (role classes on regular fabrics, identity on
asymmetric graphs), the pin semantics (correlated injections keep
their targets together, lone injections split them out), canonical
ordering, and — the property fleets and resume depend on — that the
digest is identical across interpreter processes.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.scenarios import (
    CapacityDegrade,
    LinkFail,
    NodeFail,
    ProtocolRecipe,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
)
from repro.symmetry import SymmetryMap, injection_pins, symmetry_map_for_spec
from repro.topology.builders import leaf_spine_topo, wan_topo
from repro.topology.fattree import FatTreeTopo

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def fattree_map(k=4, injections=()):
    topo = FatTreeTopo(k=k, device="router")
    return SymmetryMap.from_topo(topo, pins=injection_pins(injections))


class TestStructuralClasses:
    def test_fattree_collapses_to_roles(self):
        smap = fattree_map()
        # k=4: 4 core + 8 agg + 8 edge + 16 hosts -> one class per tier.
        assert smap.node_count == 36
        assert smap.class_count == 4
        sizes = sorted(len(members) for members in smap.classes)
        assert sizes == [4, 8, 8, 16]
        assert smap.node_compression() == pytest.approx(9.0)
        assert smap.class_count < smap.node_count

    def test_leafspine_roles(self):
        topo = leaf_spine_topo(num_spines=3, num_leaves=4,
                               hosts_per_leaf=2, device="router")
        smap = SymmetryMap.from_topo(topo)
        assert smap.class_count == 3  # spines, leaves, hosts
        assert smap.link_class_count == 2  # leaf-spine, host uplinks

    def test_wan_is_identity(self):
        # Abilene has no two interchangeable cities.
        smap = SymmetryMap.from_topo(wan_topo())
        assert smap.class_count == smap.node_count
        assert smap.node_compression() == 1.0

    def test_class_of_and_link_alignment(self):
        topo = FatTreeTopo(k=4, device="router")
        smap = SymmetryMap.from_topo(topo)
        assert len(smap.link_classes) == len(topo.link_specs)
        # members of one class all map back to the same id
        for class_id, members in enumerate(smap.classes):
            assert {smap.class_of[name] for name in members} == {class_id}
        # classes are canonically ordered by smallest member
        firsts = [members[0] for members in smap.classes]
        assert firsts == sorted(firsts)

    def test_capacity_differences_split_links(self):
        topo = leaf_spine_topo(num_spines=2, num_leaves=2,
                               hosts_per_leaf=1, device="router")
        base = SymmetryMap.from_topo(topo)
        lopsided = leaf_spine_topo(num_spines=2, num_leaves=2,
                                   hosts_per_leaf=1, device="router")
        # degrade one leaf-spine link's declared capacity
        spec = lopsided.link_specs[0]
        spec.capacity_bps = spec.capacity_bps / 2
        split = SymmetryMap.from_topo(lopsided)
        assert split.link_class_count > base.link_class_count
        assert split.class_count >= base.class_count


class TestPins:
    def test_lone_injection_splits_target(self):
        plain = fattree_map()
        target = [l for l in FatTreeTopo(k=4, device="router").link_specs
                  if {l.node_a[0], l.node_b[0]} == {"c", "a"}][0]
        pinned = fattree_map(injections=[LinkFail(
            at=3.0, node_a=target.node_a, node_b=target.node_b)])
        # pinning one link breaks the fabric's rotational symmetry
        assert pinned.class_count > plain.class_count
        assert pinned.link_class_count > plain.link_class_count

    def test_srlg_same_shape_stays_together(self):
        links = [l for l in FatTreeTopo(k=4, device="router").link_specs
                 if {l.node_a[0], l.node_b[0]} == {"c", "a"}]
        srlg = [CapacityDegrade(at=3.0, node_a=l.node_a, node_b=l.node_b,
                                factor=0.5, until=4.5) for l in links]
        plain = fattree_map()
        pinned = fattree_map(injections=srlg)
        # every core-agg link got the SAME pin: no split at all
        assert pinned.class_count == plain.class_count
        assert pinned.link_class_count == plain.link_class_count

    def test_different_timing_splits_srlg_halves(self):
        links = [l for l in FatTreeTopo(k=4, device="router").link_specs
                 if {l.node_a[0], l.node_b[0]} == {"c", "a"}]
        early = [CapacityDegrade(at=3.0, node_a=l.node_a, node_b=l.node_b,
                                 factor=0.5) for l in links[:8]]
        late = [CapacityDegrade(at=6.0, node_a=l.node_a, node_b=l.node_b,
                                factor=0.5) for l in links[8:]]
        pinned = fattree_map(injections=early + late)
        assert pinned.link_class_count > fattree_map().link_class_count

    def test_node_pins(self):
        pins = injection_pins([NodeFail(at=2.0, node="c0_0")])
        assert "c0_0" in pins.node_pins
        assert pins.node_seed("c0_0") != ()
        assert pins.node_seed("c0_1") == ()

    def test_pin_signature_strips_targets(self):
        a = injection_pins([LinkFail(at=3.0, node_a="x", node_b="y")])
        b = injection_pins([LinkFail(at=3.0, node_a="p", node_b="q")])
        assert a.link_seed("x", "y") == b.link_seed("p", "q")

    def test_spec_pins_flow_through(self):
        spec = ScenarioSpec(
            name="pins", seed=1, duration=5.0,
            topology=TopologyRecipe("fattree",
                                    {"k": 4, "device": "router"}),
            protocol=ProtocolRecipe("static", {}),
            traffic=TrafficRecipe(pattern="none"),
            injections=[NodeFail(at=2.0, node="c0_0")],
        )
        smap = symmetry_map_for_spec(spec)
        # the failed core router can no longer share its siblings' class
        assert [len(m) for m in smap.classes
                if "c0_0" in m] == [1]


CHILD_SCRIPT = """
import sys
from repro.symmetry import SymmetryMap
from repro.topology.builders import leaf_spine_topo
from repro.topology.fattree import FatTreeTopo

maps = [
    SymmetryMap.from_topo(FatTreeTopo(k=4, device="router")),
    SymmetryMap.from_topo(leaf_spine_topo(num_spines=3, num_leaves=4,
                                          hosts_per_leaf=2,
                                          device="router")),
]
sys.stdout.write(",".join(m.digest() for m in maps))
"""


class TestDigestDeterminism:
    def test_digest_stable_within_process(self):
        assert fattree_map().digest() == fattree_map().digest()
        # pins change the partition, so they must change the digest
        assert fattree_map().digest() != fattree_map(
            injections=[NodeFail(at=2.0, node="c0_0")]).digest()

    def test_digest_identical_across_processes(self):
        """Same recipes, fresh interpreter: the digests (and therefore
        the full partitions) must be byte-identical — hash
        randomization, dict order and interning must not leak in."""
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        done = subprocess.run(
            [sys.executable, "-c", CHILD_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        local = [
            SymmetryMap.from_topo(FatTreeTopo(k=4, device="router")),
            SymmetryMap.from_topo(leaf_spine_topo(
                num_spines=3, num_leaves=4, hosts_per_leaf=2,
                device="router")),
        ]
        assert done.stdout == ",".join(m.digest() for m in local)

    def test_describe_mentions_digest_and_classes(self):
        smap = fattree_map()
        text = smap.describe(max_members=2)
        assert smap.digest() in text
        assert "36 nodes -> 4 classes" in text
        assert "... +" in text  # member lists are truncated


class TestDigestPins:
    """Literal partitions: any change to the refinement that moves a
    class, or the canonical class order, moves one of these."""

    def test_fattree(self):
        assert fattree_map().digest() == "5fe50726c8e21385"

    def test_fattree_with_pinned_core(self):
        smap = fattree_map(injections=[NodeFail(at=2.0, node="c0_0")])
        assert smap.digest() == "ef0c7de0afc2aeb0"

    def test_leafspine(self):
        topo = leaf_spine_topo(num_spines=3, num_leaves=4,
                               hosts_per_leaf=2, device="router")
        assert SymmetryMap.from_topo(topo).digest() == "fb284c587612390f"

    @pytest.mark.parametrize("name, digest", [
        ("ring4", "71984c88bc2534a5"),
        ("star3", "4f5061619c56aaf5"),
        ("mesh5", "1c2e2f3df8528793"),
    ])
    def test_graphml(self, name, digest):
        path = os.path.abspath(os.path.join(DATA_DIR, f"{name}.graphml"))
        topo = TopologyRecipe("graphml", {"path": path}).build()
        assert SymmetryMap.from_topo(topo).digest() == digest
