"""Unit: ResultStore merge/compact/metadata, store diff, and chunk
planning — the fleet's persistence contracts, on synthetic records so
they run in milliseconds."""

import json
import os

import pytest

from repro.core.errors import ConfigurationError
from repro.results import (
    ResultStore,
    diff_stores,
    list_shards,
    make_record,
    shard_store_name,
    spec_hash,
)
from repro.scenarios import WorkChunk, effective_cpu_count, plan_chunks


def fake_record(seed, name=None, metric=1.0, error=None, slo="pass",
                spec_extra=None):
    """A schema-shaped record without running a scenario."""
    spec = {"name": name or f"scn-{seed}", "seed": seed}
    if spec_extra:
        spec.update(spec_extra)
    result = {
        "name": spec["name"], "seed": seed, "converged": True,
        "slos": [{"slo": "converged_within<=30", "status": slo,
                  "observed": metric}],
        "diagnostics": {"error": error} if error else {},
        "wall_seconds": 0.123,
    }
    return make_record(spec, result, fingerprint=f"fp-{seed}-{metric}",
                       metrics={"converged": True, "metric": metric})


def store_with(path, records):
    store = ResultStore(str(path))
    for record in records:
        store.append(record)
    return store


class TestMerge:
    def test_merge_dedup_and_order(self, tmp_path):
        """Overlapping shards merge to one copy per key, in the given
        canonical order."""
        rec = {seed: fake_record(seed) for seed in range(5)}
        shard_a = store_with(tmp_path / "a", [rec[0], rec[2], rec[4]])
        shard_b = store_with(tmp_path / "b", [rec[1], rec[2], rec[3]])
        order = [(rec[s]["spec_hash"], s) for s in range(5)]

        target = ResultStore(str(tmp_path / "merged"))
        merged = target.merge_from([shard_a, shard_b], order=order)
        assert merged == 5
        assert target.keys() == order
        assert [r["seed"] for r in target.iter_records()] == [0, 1, 2, 3, 4]

    def test_merge_is_deterministic_across_shardings(self, tmp_path):
        """However the work was split (and duplicated) across workers,
        the merged store bytes are identical."""
        rec = {seed: fake_record(seed) for seed in range(6)}
        order = [(rec[s]["spec_hash"], s) for s in range(6)]

        split_a = [[rec[0], rec[1], rec[2]], [rec[3], rec[4], rec[5]]]
        split_b = [[rec[5], rec[1]], [rec[0], rec[2], rec[4]],
                   [rec[3], rec[1], rec[5]]]  # overlap: stolen chunks
        digests = []
        for label, split in (("a", split_a), ("b", split_b)):
            shards = [store_with(tmp_path / f"{label}{i}", records)
                      for i, records in enumerate(split)]
            target = ResultStore(str(tmp_path / f"merged_{label}"))
            target.merge_from(shards, order=order)
            with open(target.records_path, "rb") as handle:
                digests.append(handle.read())
        assert digests[0] == digests[1]

    def test_healthy_beats_error_across_shards(self, tmp_path):
        """A flaky worker's error record must not shadow another
        worker's healthy completion of the same key, in either shard
        order."""
        bad = fake_record(1, error="worker exploded", slo="error")
        good = fake_record(1)
        for name_bad, name_good in (("a", "b"), ("b", "a")):
            base = tmp_path / f"case_{name_bad}{name_good}"
            shard_bad = store_with(base / f"x{name_bad}", [bad])
            shard_good = store_with(base / f"x{name_good}", [good])
            target = ResultStore(str(base / "merged"))
            shards = sorted([shard_bad, shard_good], key=lambda s: s.path)
            assert target.merge_from(shards) == 1
            (record,) = list(target.iter_records())
            assert record["result"]["diagnostics"] == {}
            assert not any(map(target.has_error, target.keys()))

    def test_merge_replaces_resident_error(self, tmp_path):
        """replace_errors: a healthy shard record supersedes an error
        record already in the target (the fleet retry path)."""
        target = store_with(tmp_path / "target",
                            [fake_record(1, error="boom", slo="error")])
        shard = store_with(tmp_path / "shard", [fake_record(1)])
        assert target.merge_from([shard]) == 1
        assert len(target) == 1
        assert not any(map(target.has_error, target.keys()))
        # without replace_errors the resident record stays
        target2 = store_with(tmp_path / "target2",
                             [fake_record(2, error="boom", slo="error")])
        shard2 = store_with(tmp_path / "shard2", [fake_record(2)])
        assert target2.merge_from([shard2], replace_errors=False) == 0
        assert any(map(target2.has_error, target2.keys()))

    def test_merge_skips_existing_keys(self, tmp_path):
        target = store_with(tmp_path / "target", [fake_record(0)])
        shard = store_with(tmp_path / "shard",
                           [fake_record(0), fake_record(1)])
        assert target.merge_from([shard]) == 1
        assert len(target) == 2

    def test_merge_refused_readonly(self, tmp_path):
        store_with(tmp_path / "t", [fake_record(0)])
        readonly = ResultStore(str(tmp_path / "t"), readonly=True)
        with pytest.raises(ConfigurationError):
            readonly.merge_from([])


class TestCompact:
    def test_compact_drops_superseded_bytes(self, tmp_path):
        store = store_with(tmp_path / "s",
                           [fake_record(0, error="x", slo="error"),
                            fake_record(1)])
        store.append(fake_record(0), replace=True)
        assert len(store) == 2
        before = os.path.getsize(store.records_path)
        reclaimed = store.compact()
        assert reclaimed > 0
        assert os.path.getsize(store.records_path) == before - reclaimed
        assert len(store) == 2
        assert [r["seed"] for r in store.iter_records()] == [0, 1]
        # a fresh open agrees byte-for-byte
        reopened = ResultStore(str(tmp_path / "s"))
        assert reopened.keys() == store.keys()
        assert reopened.fingerprints() == store.fingerprints()

    def test_compact_noop_on_clean_store(self, tmp_path):
        store = store_with(tmp_path / "s", [fake_record(0)])
        assert store.compact() == 0
        assert len(store) == 1


class TestMetadata:
    def test_metadata_roundtrip_and_merge(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        assert store.metadata == {}
        store.update_metadata({"purpose": "unit"})
        store.update_metadata({"extra": 1})
        assert ResultStore(str(tmp_path / "s")).metadata == {
            "purpose": "unit", "extra": 1}

    def test_none_removes_a_key(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        store.update_metadata({"purpose": "unit", "plan": [1, 2]})
        assert store.update_metadata({"plan": None}) == {"purpose": "unit"}
        store.update_metadata({"absent": None})
        assert ResultStore(str(tmp_path / "s")).metadata == {
            "purpose": "unit"}

    def test_update_fsyncs_before_replace(self, tmp_path, monkeypatch):
        """The new meta.json is on disk before it replaces the old one:
        a crash right after the replace must not leave an empty file
        where a fleet run's plan was."""
        store = ResultStore(str(tmp_path / "s"))
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino, dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store.update_metadata({"purpose": "unit"})
        (replaced,) = [c for c in calls if c[0] == "replace"]
        assert replaced[2] == store.metadata_path
        synced = calls[:calls.index(replaced)]
        assert ("fsync", replaced[1]) in synced

    def test_provenance_appends_runs(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        store.record_provenance({"transport": "local", "workers": 2})
        store.record_provenance({"transport": "tcp", "workers": 4,
                                 "chunk_size": 8, "repro_version": "x"})
        runs = store.metadata["runs"]
        assert [run["transport"] for run in runs] == ["local", "tcp"]
        assert runs[1]["chunk_size"] == 8

    def test_corrupt_metadata_reads_empty(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        with open(store.metadata_path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert store.metadata == {}

    def test_campaign_run_records_provenance(self, tmp_path):
        """The single-box path self-describes too (satellite: stores
        carry worker count + repro version)."""
        from repro import __version__
        from repro.scenarios import Campaign, ScenarioSpec

        store = ResultStore(str(tmp_path / "s"))
        spec = ScenarioSpec(name="tiny", seed=0, duration=1.0)
        Campaign([spec], workers=1).run(store=store)
        (run,) = store.metadata["runs"]
        assert run["transport"] == "local"
        assert run["workers"] == 1
        assert run["repro_version"] == __version__


class TestCanonicalDigest:
    def test_digest_ignores_volatile_fields(self, tmp_path):
        rec_a = fake_record(0)
        rec_b = fake_record(0)
        rec_b["result"]["wall_seconds"] = 99.9
        rec_b["result"]["diagnostics"] = {"realloc": {"cache": 123}}
        a = store_with(tmp_path / "a", [rec_a])
        b = store_with(tmp_path / "b", [rec_b])
        assert a.canonical_digest() == b.canonical_digest()

    def test_digest_sees_measurement_changes(self, tmp_path):
        a = store_with(tmp_path / "a", [fake_record(0, metric=1.0)])
        b = store_with(tmp_path / "b", [fake_record(0, metric=2.0)])
        assert a.canonical_digest() != b.canonical_digest()

    def test_digest_is_order_independent(self, tmp_path):
        recs = [fake_record(seed) for seed in range(3)]
        a = store_with(tmp_path / "a", recs)
        b = store_with(tmp_path / "b", list(reversed(recs)))
        assert a.canonical_digest() == b.canonical_digest()


class TestShardNaming:
    def test_shard_names_sanitized(self):
        assert shard_store_name("box-1.lan-442") == "shard-box-1.lan-442"
        assert shard_store_name("evil/../../etc") == "shard-evil_.._.._etc"
        assert shard_store_name("") == "shard-worker"

    def test_list_shards_sorted(self, tmp_path):
        root = tmp_path / "shards"
        for name in ("shard-b", "shard-a", "not-a-shard"):
            (root / name).mkdir(parents=True)
        (root / "shard-file").write_text("")  # files are ignored
        assert [os.path.basename(p) for p in list_shards(str(root))] == [
            "shard-a", "shard-b"]
        assert list_shards(str(tmp_path / "missing")) == []


class TestDiff:
    def test_identical_stores_match(self, tmp_path):
        recs = [fake_record(seed) for seed in range(3)]
        a = store_with(tmp_path / "a", recs)
        b = store_with(tmp_path / "b", recs)
        diff = diff_stores(a, b)
        assert diff.identical
        assert diff.matched == 3
        assert "equivalent" in diff.report()

    def test_divergent_fingerprint_reported(self, tmp_path):
        a = store_with(tmp_path / "a", [fake_record(0, metric=1.0)])
        b = store_with(tmp_path / "b", [fake_record(0, metric=2.0,
                                                    slo="fail")])
        diff = diff_stores(a, b)
        assert not diff.identical
        assert diff.divergent == 1
        (entry,) = diff.entries
        assert entry.metric_changes == ["metric: 1.0 -> 2.0"]
        assert entry.verdict_changes == ["converged_within<=30: "
                                         "pass -> fail"]

    def test_missing_keys_reported(self, tmp_path):
        recs = [fake_record(seed) for seed in range(3)]
        a = store_with(tmp_path / "a", recs)
        b = store_with(tmp_path / "b", recs[:2])
        diff = diff_stores(a, b)
        assert not diff.identical
        assert diff.only_a == 1 and diff.only_b == 0

    def test_disjoint_hashes_fall_back_to_name_seed(self, tmp_path):
        """Same family, different spec content (controller A vs B):
        records line up by (name, seed)."""
        a = store_with(tmp_path / "a", [
            fake_record(seed, name=f"fam-{seed}",
                        spec_extra={"controller": "A"})
            for seed in range(2)])
        b = store_with(tmp_path / "b", [
            fake_record(seed, name=f"fam-{seed}", metric=2.0,
                        spec_extra={"controller": "B"})
            for seed in range(2)])
        diff = diff_stores(a, b)
        assert diff.match_on == "name_seed"
        assert diff.divergent == 2
        assert all(e.metric_changes for e in diff.entries)

    def test_ambiguous_name_seed_refuses_fallback(self, tmp_path):
        """A multi-family merged store can hold two records with the
        same (name, seed); matching by name would silently shadow one
        of them, so the diff stays key-matched and fails safe."""
        a = store_with(tmp_path / "a", [
            fake_record(0, name="fam-0", spec_extra={"family": "x"}),
            fake_record(0, name="fam-0", spec_extra={"family": "y"}),
        ])
        b = store_with(tmp_path / "b", [
            fake_record(0, name="fam-0", spec_extra={"family": "z"}),
        ])
        diff = diff_stores(a, b)
        assert diff.match_on == "key"
        assert not diff.identical
        assert diff.only_a == 2 and diff.only_b == 1

    def test_diff_to_dict_json_safe(self, tmp_path):
        a = store_with(tmp_path / "a", [fake_record(0)])
        b = store_with(tmp_path / "b", [fake_record(1)])
        payload = json.dumps(diff_stores(a, b).to_dict())
        assert "only_a" in payload


class TestChunkPlanning:
    def test_plan_covers_in_order(self):
        payloads = [{"name": f"s{i}", "seed": i} for i in range(10)]
        chunks = plan_chunks(payloads, chunk_size=3)
        assert [c.chunk_id for c in chunks] == [0, 1, 2, 3]
        flat = [p for c in chunks for p in c.payloads]
        assert flat == payloads
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    def test_default_size_targets_four_per_worker(self):
        payloads = [{"seed": i} for i in range(64)]
        chunks = plan_chunks(payloads, workers=4)
        assert len(chunks) == 16
        assert isinstance(chunks[0], WorkChunk)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_chunks([{"seed": 0}], chunk_size=0)

    def test_spec_hash_keys_unique_per_payload(self):
        """The fleet work identity: distinct payloads, distinct keys."""
        payloads = [{"name": f"s{i}", "seed": i} for i in range(4)]
        keys = {(spec_hash(p), p["seed"]) for p in payloads}
        assert len(keys) == 4


class TestEffectiveCpuCount:
    def test_positive(self):
        assert effective_cpu_count() >= 1

    def test_campaign_auto_workers_bounded_by_batch(self):
        from repro.scenarios import Campaign, ScenarioSpec

        campaign = Campaign([ScenarioSpec(name="one", seed=0,
                                          duration=1.0)])
        assert campaign.workers == 1  # min(cpus, one scenario)
