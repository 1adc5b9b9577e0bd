"""Unit tests: scenario specs, recipes and the injection library's
serialization round-trips."""

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.scenarios import (
    CapacityDegrade,
    LinkFail,
    LinkFlap,
    LinkRestore,
    NodeFail,
    NodeRecover,
    Partition,
    ProtocolRecipe,
    ScenarioSpec,
    TopologyRecipe,
    TrafficBurst,
    TrafficRecipe,
    injection_from_dict,
)

ALL_INJECTIONS = [
    LinkFail(at=5.0, node_a="r1", node_b="r2"),
    LinkRestore(at=9.0, node_a="r1", node_b="r2"),
    LinkFlap(at=4.0, node_a="a", node_b="b", cycles=5, period=2.0, duty=0.25),
    NodeFail(at=3.0, node="core1"),
    NodeRecover(at=8.0, node="core1"),
    Partition(at=6.0, group=["r1", "r2"], heal_at=12.0),
    CapacityDegrade(at=2.0, node_a="x", node_b="y", factor=0.3, until=10.0),
    TrafficBurst(at=7.0, duration=4.0, rate_bps=1e8, flows=3, seed=11),
]


class TestInjectionRoundTrips:
    @pytest.mark.parametrize("injection", ALL_INJECTIONS,
                             ids=lambda i: i.kind)
    def test_dict_round_trip(self, injection):
        data = injection.to_dict()
        again = injection_from_dict(data)
        assert again == injection
        assert type(again) is type(injection)

    @pytest.mark.parametrize("injection", ALL_INJECTIONS,
                             ids=lambda i: i.kind)
    def test_dict_is_json_safe(self, injection):
        text = json.dumps(injection.to_dict())
        assert injection_from_dict(json.loads(text)) == injection

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            injection_from_dict({"kind": "meteor-strike", "at": 1.0})

    def test_labels_are_distinct(self):
        labels = [injection.label() for injection in ALL_INJECTIONS]
        assert len(set(labels)) == len(labels)


class TestInjectionValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkFail(at=-1.0, node_a="a", node_b="b").validate()

    def test_flap_duty_bounds(self):
        with pytest.raises(ConfigurationError):
            LinkFlap(at=1.0, node_a="a", node_b="b", duty=1.5).validate()

    def test_flap_needs_cycles(self):
        with pytest.raises(ConfigurationError):
            LinkFlap(at=1.0, node_a="a", node_b="b", cycles=0).validate()

    def test_partition_needs_group(self):
        with pytest.raises(ConfigurationError):
            Partition(at=1.0, group=[]).validate()

    def test_partition_heal_ordering(self):
        with pytest.raises(ConfigurationError):
            Partition(at=5.0, group=["a"], heal_at=2.0).validate()

    def test_degrade_factor_bounds(self):
        with pytest.raises(ConfigurationError):
            CapacityDegrade(at=1.0, node_a="a", node_b="b",
                            factor=0.0).validate()

    def test_burst_needs_flows_or_pairs(self):
        with pytest.raises(ConfigurationError):
            TrafficBurst(at=1.0, flows=0).validate()


class TestTopologyRecipe:
    @pytest.mark.parametrize("kind,params,expect_nodes", [
        ("wan", {}, 22),                                     # 11 cities + hosts
        ("linear", {"num_switches": 3}, 6),
        ("star", {"num_hosts": 4}, 5),
        ("leafspine", {"num_spines": 2, "num_leaves": 2,
                       "hosts_per_leaf": 1}, 6),
        ("fattree", {"k": 4}, 36),
    ])
    def test_build(self, kind, params, expect_nodes):
        topo = TopologyRecipe(kind, params).build()
        assert topo.node_count() == expect_nodes

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologyRecipe("torus", {}).build()

    def test_round_trip(self):
        recipe = TopologyRecipe("fattree", {"k": 6, "device": "router"})
        assert TopologyRecipe.from_dict(recipe.to_dict()) == recipe


class TestTrafficRecipe:
    HOSTS = ["h0", "h1", "h2", "h3"]

    def test_permutation_is_derangement(self):
        import random
        recipe = TrafficRecipe(pattern="permutation")
        pairs = recipe.make_pairs(self.HOSTS, random.Random(1))
        assert len(pairs) == 4
        assert all(src != dst for src, dst in pairs)

    def test_explicit_pairs(self):
        import random
        recipe = TrafficRecipe(pattern="pairs", pairs=[["h0", "h2"]])
        assert recipe.make_pairs(self.HOSTS,
                                 random.Random(1)) == [("h0", "h2")]

    def test_none_pattern_empty(self):
        import random
        recipe = TrafficRecipe(pattern="none")
        assert recipe.make_pairs(self.HOSTS, random.Random(1)) == []

    def test_bad_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficRecipe(pattern="gossip").validate()

    def test_round_trip(self):
        recipe = TrafficRecipe(pattern="stride", stride=2, rate_bps=1e8,
                               stagger=0.5)
        assert TrafficRecipe.from_dict(recipe.to_dict()) == recipe


class TestScenarioSpecRoundTrip:
    def make_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="roundtrip",
            seed=17,
            duration=30.0,
            topology=TopologyRecipe("wan", {}),
            protocol=ProtocolRecipe("ospf", {"hello_interval": 1.0,
                                             "dead_interval": 4.0}),
            traffic=TrafficRecipe(pattern="permutation", rate_bps=2e8,
                                  duration=25.0),
            injections=list(ALL_INJECTIONS),
            sim_params={"fti_increment": 0.002},
        )

    def test_json_round_trip(self):
        spec = self.make_spec()
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        # and the serialized forms agree exactly too
        assert again.to_json() == spec.to_json()

    def test_dict_round_trip(self):
        spec = self.make_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_validate_accepts_good_spec(self):
        self.make_spec().validate()

    def test_validate_rejects_late_injection(self):
        spec = self.make_spec()
        spec.injections = [LinkFail(at=99.0, node_a="a", node_b="b")]
        with pytest.raises(ConfigurationError):
            spec.validate()

    @pytest.mark.parametrize("injection", [
        # starts in time, but keeps acting past the 30 s horizon
        LinkFlap(at=10.0, node_a="a", node_b="b", cycles=5, period=8.0),
        Partition(at=10.0, group=["a"], heal_at=35.0),
        CapacityDegrade(at=10.0, node_a="a", node_b="b", factor=0.5,
                        until=35.0),
    ], ids=lambda i: i.kind)
    def test_validate_rejects_effects_past_horizon(self, injection):
        spec = self.make_spec()
        spec.injections = [injection]
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_validate_rejects_bad_protocol(self):
        spec = self.make_spec()
        spec.protocol = ProtocolRecipe("rip", {})
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_validate_rejects_bad_duration(self):
        spec = self.make_spec()
        spec.duration = 0.0
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_unknown_top_level_key_named_in_error(self):
        """The classic typo: 'injectionss' silently dropping every
        injection.  from_dict must reject it BY NAME."""
        data = self.make_spec().to_dict()
        data["injectionss"] = data.pop("injections")
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioSpec.from_dict(data)
        assert "injectionss" in str(excinfo.value)
        assert "known keys" in str(excinfo.value)

    def test_multiple_unknown_keys_all_named(self):
        data = self.make_spec().to_dict()
        data["trafic"] = {}
        data["extra"] = 1
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioSpec.from_dict(data)
        message = str(excinfo.value)
        assert "trafic" in message and "extra" in message


class TestSpecSlos:
    """The v2 spec schema: the slos field, version stamp, and the
    content-addressed spec hash."""

    def make_spec_with_slos(self) -> ScenarioSpec:
        from repro.results import ConvergedWithin, MetricExpression

        spec = TestScenarioSpecRoundTrip().make_spec()
        spec.slos = [ConvergedWithin(seconds=20.0),
                     MetricExpression(expression="recomputations < 500")]
        return spec

    def test_round_trip_with_slos(self):
        spec = self.make_spec_with_slos()
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()

    def test_schema_version_stamped(self):
        from repro.scenarios import SPEC_SCHEMA_VERSION

        data = self.make_spec_with_slos().to_dict()
        # v4: "static" protocol, "graphml" topologies, symmetry knob
        assert data["schema_version"] == SPEC_SCHEMA_VERSION == 4
        assert len(data["slos"]) == 2

    def test_v1_dict_still_loads(self):
        """A PR 1 era spec file (no slos, no schema_version) must keep
        loading — the list just defaults empty."""
        data = TestScenarioSpecRoundTrip().make_spec().to_dict()
        del data["slos"]
        del data["schema_version"]
        spec = ScenarioSpec.from_dict(data)
        assert spec.slos == []
        assert spec.name == "roundtrip"

    def test_validate_rejects_bad_slo(self):
        from repro.results import MinDeliveredFraction

        spec = self.make_spec_with_slos()
        spec.slos.append(MinDeliveredFraction(fraction=2.0))
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_spec_hash_tracks_content(self):
        spec = self.make_spec_with_slos()
        base = spec.spec_hash()
        assert ScenarioSpec.from_json(spec.to_json()).spec_hash() == base
        spec.slos[0].seconds = 21.0
        assert spec.spec_hash() != base
        spec.slos[0].seconds = 20.0
        assert spec.spec_hash() == base
        spec.seed = 99
        assert spec.spec_hash() != base


# One file per past schema version, as that version wrote it (see
# ``SPEC_SCHEMA_VERSIONS`` in spec.py): every one must keep loading.
_V1_FILE = {
    "name": "v1", "seed": 3, "duration": 20.0,
    "topology": {"kind": "wan", "params": {}},
    "protocol": {"kind": "ospf", "params": {"hello_interval": 1.0}},
    "traffic": {"pattern": "permutation", "rate_bps": 2e8,
                "start_time": 1.0, "duration": 15.0, "stagger": 0.0,
                "stride": 1, "pairs": []},
    "injections": [{"kind": "link-fail", "at": 5.0,
                    "node_a": "r1", "node_b": "r2"}],
    "sim_params": {},
}
_V2_FILE = dict(_V1_FILE, name="v2", schema_version=2,
                slos=[{"kind": "converged_within", "seconds": 20.0}])
_V3_FILE = dict(_V2_FILE, name="v3", schema_version=3,
                traffic=dict(_V1_FILE["traffic"], pattern="matrix",
                             flows=[["h1", "h2", 1e6], ["h2", "h1", 2e6]]))
_V4_FILE = dict(_V3_FILE, name="v4", schema_version=4,
                topology={"kind": "graphml",
                          "params": {"path": "tests/data/ring4.graphml"}},
                protocol={"kind": "static", "params": {"ecmp": True}},
                sim_params={"symmetry": True})


class TestSpecSchemaVersions:
    def test_version_table_is_contiguous_up_to_current(self):
        from repro.scenarios.spec import (
            SPEC_SCHEMA_VERSION,
            SPEC_SCHEMA_VERSIONS,
        )

        assert sorted(SPEC_SCHEMA_VERSIONS) == list(
            range(1, SPEC_SCHEMA_VERSION + 1))

    @pytest.mark.parametrize("data", [_V1_FILE, _V2_FILE, _V3_FILE, _V4_FILE],
                             ids=["v1", "v2", "v3", "v4"])
    def test_every_past_version_loads(self, data):
        spec = ScenarioSpec.from_dict(json.loads(json.dumps(data)))
        assert spec.name == data["name"]
        assert len(spec.slos) == len(data.get("slos", []))
        assert spec.traffic.flows == data["traffic"].get("flows", [])
        assert spec.protocol.kind == data["protocol"]["kind"]
        assert spec.topology.kind == data["topology"]["kind"]
        assert spec.sim_params == data["sim_params"]
        # What it re-serializes is the current version, loadable again.
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_newer_version_rejected_naming_both(self):
        from repro.scenarios import SPEC_SCHEMA_VERSION

        data = dict(_V4_FILE, schema_version=SPEC_SCHEMA_VERSION + 1)
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioSpec.from_dict(data)
        message = str(excinfo.value)
        assert f"schema_version {SPEC_SCHEMA_VERSION + 1}" in message
        assert f"1 to {SPEC_SCHEMA_VERSION}" in message

    @pytest.mark.parametrize("version", [0, -1, "4", 4.0, True, None])
    def test_malformed_version_rejected(self, version):
        with pytest.raises(ConfigurationError, match="schema_version"):
            ScenarioSpec.from_dict(dict(_V4_FILE, schema_version=version))
