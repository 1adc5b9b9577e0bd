"""Unit tests: the columnar segment store behind the ResultStore API.

Every behavioural contract of the JSONL store — dedup by (spec_hash,
seed), last-write-wins supersession, crash-tolerant tails, readonly
opens never touching disk, the canonical digest — must hold
unchanged over segments, and the two formats must be bit-for-bit
interchangeable through convert/merge/diff.
"""

import json
import os

import pytest

pytest.importorskip("numpy")

from repro.core.errors import ConfigurationError
from repro.results import (
    ColumnarResultStore,
    ResultStore,
    aggregate_records,
    convert_store,
    diff_stores,
    is_columnar_store,
    make_record,
    record_key,
    write_csv,
    write_csv_rows,
)
from repro.results.columnar import (
    MANIFEST_FILE,
    SEGMENTS_DIR,
    TAIL_RECORDS_FILE,
)
from repro.results.segment import (
    SegmentReader,
    is_valid_segment,
    write_segment,
)


def fake_record(seed, fingerprint=None, converged=True, slo_status="pass",
                error=None):
    """A schema-shaped record without running a simulation."""
    spec = {"name": f"s{seed}", "seed": seed, "duration": 30.0,
            "topology": {"kind": "wan", "params": {}}}
    result = {
        "name": f"s{seed}", "seed": seed, "converged": converged,
        "slos": [{"slo": "converged_within<=20s",
                  "kind": "converged_within",
                  "status": slo_status, "observed": float(seed),
                  "threshold": 20.0, "detail": ""}],
        "diagnostics": {} if error is None else {"error": error},
        "wall_seconds": 0.01 * seed,  # volatile: excluded from digests
    }
    return make_record(
        spec, result,
        fingerprint=fingerprint or f"fp{seed:04d}",
        metrics={"converged": converged, "convergence_time": float(seed),
                 "delivered_fraction": 0.9 + seed / 1000.0,
                 "wall_seconds": 0.01 * seed},
    )


def columnar(tmp_path, name="cstore", segment_rows=4, **kwargs):
    return ResultStore(str(tmp_path / name), format="columnar",
                       segment_rows=segment_rows, **kwargs)


class TestFormatDetection:
    def test_create_and_detect(self, tmp_path):
        store = columnar(tmp_path)
        assert isinstance(store, ColumnarResultStore)
        assert store.storage_format == "columnar"
        assert is_columnar_store(store.path)
        # reopen WITHOUT the format flag: detection picks columnar
        again = ResultStore(store.path)
        assert isinstance(again, ColumnarResultStore)

    def test_jsonl_unaffected(self, tmp_path):
        store = ResultStore(str(tmp_path / "jstore"))
        assert not isinstance(store, ColumnarResultStore)
        assert store.storage_format == "jsonl"
        assert not is_columnar_store(store.path)

    def test_format_mismatch_rejected(self, tmp_path):
        cpath = str(columnar(tmp_path).path)
        with pytest.raises(ConfigurationError):
            ResultStore(cpath, format="jsonl")
        jstore = ResultStore(str(tmp_path / "jstore"))
        jstore.append(fake_record(0))
        with pytest.raises(ConfigurationError):
            ResultStore(jstore.path, format="columnar")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultStore(str(tmp_path / "x"), format="parquet")

    def test_readonly_requires_existing(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultStore(str(tmp_path / "absent"), format="columnar",
                        readonly=True)


class TestBasicsParity:
    def test_append_get_contains_iter(self, tmp_path):
        store = columnar(tmp_path)
        records = [fake_record(seed) for seed in range(10)]
        for record in records:
            store.append(record)
        # 10 records, segment_rows=4: two sealed segments + 2-row tail
        assert len(store) == 10
        assert len(store._segments) == 2
        for record in records:
            key = record_key(record)
            assert key in store
            assert store.get(*key) == record
        assert [r["seed"] for r in store.iter_records()] == list(range(10))
        assert ("nope", 0) not in store

    def test_duplicate_key_rejected(self, tmp_path):
        store = columnar(tmp_path)
        store.append(fake_record(1))
        with pytest.raises(ConfigurationError):
            store.append(fake_record(1))

    def test_matches_jsonl_surfaces(self, tmp_path):
        """Same appends into both formats: every deterministic surface
        agrees."""
        cstore = columnar(tmp_path)
        jstore = ResultStore(str(tmp_path / "jstore"))
        for seed in range(9):
            record = fake_record(
                seed, slo_status="fail" if seed == 4 else "pass",
                error="boom" if seed == 7 else None)
            cstore.append(record)
            jstore.append(record)
        assert cstore.canonical_digest() == jstore.canonical_digest()
        assert cstore.keys() == jstore.keys()
        assert cstore.fingerprints() == jstore.fingerprints()
        assert ([cstore.has_error(k) for k in cstore.keys()]
                == [jstore.has_error(k) for k in jstore.keys()])
        assert list(cstore.iter_records()) == list(jstore.iter_records())
        diff = diff_stores(jstore, cstore)
        assert diff.identical

    def test_aggregate_parity(self, tmp_path):
        store = columnar(tmp_path)
        for seed in range(11):
            store.append(fake_record(
                seed, converged=seed % 3 != 0,
                slo_status=("fail" if seed % 5 == 0 else "pass"),
                error="crash" if seed == 6 else None))
        reference = aggregate_records(store.iter_records())
        fast = store.aggregate()
        assert fast.records == reference.records
        assert fast.errors == reference.errors
        assert fast.converged == reference.converged
        assert fast.report() == reference.report()
        assert {label: (t.passed, t.failed, t.errored)
                for label, t in fast.slo_tallies.items()} == \
               {label: (t.passed, t.failed, t.errored)
                for label, t in reference.slo_tallies.items()}

    def test_count_failing_slos_parity(self, tmp_path):
        store = columnar(tmp_path)
        keys = []
        for seed in range(8):
            record = fake_record(
                seed, slo_status="fail" if seed % 2 else "pass")
            store.append(record)
            keys.append(record_key(record))
        jstore = ResultStore(str(tmp_path / "jstore"))
        for record in store.iter_records():
            jstore.append(record)
        assert store.count_failing_slos(keys) == \
            jstore.count_failing_slos(keys) == 4

    def test_iter_entry_metrics(self, tmp_path):
        store = columnar(tmp_path)
        for seed in range(6):
            store.append(fake_record(seed))
        pairs = list(store.iter_entry_metrics())
        assert len(pairs) == 6
        for entry, metrics in pairs:
            assert metrics["convergence_time"] == float(entry.seed)

    def test_csv_parity(self, tmp_path):
        store = columnar(tmp_path)
        jstore = ResultStore(str(tmp_path / "jstore"))
        for seed in range(6):
            store.append(fake_record(seed))
            jstore.append(fake_record(seed))
        cpath, jpath = str(tmp_path / "c.csv"), str(tmp_path / "j.csv")
        assert write_csv(store.iter_records(), cpath) == 6
        assert write_csv(jstore.iter_records(), jpath) == 6
        with open(cpath) as c, open(jpath) as j:
            assert c.read() == j.read()

    def test_iter_csv_rows_parity(self, tmp_path):
        """The columnar CSV fast path (index/metrics/SLO columns, no
        healthy-payload decompression) writes byte-identical CSV to
        the record-streaming path — across sealed segments (healthy,
        SLO-failing and errored rows) and the live tail."""
        store = columnar(tmp_path)  # segment_rows=4: rows 0-7 seal
        jstore = ResultStore(str(tmp_path / "jstore"))
        for seed in range(10):
            record = fake_record(
                seed, slo_status="fail" if seed == 2 else "pass",
                error="boom" if seed in (3, 9) else None)
            store.append(record)
            jstore.append(record)
        assert len(store._segments) == 2
        fast, slow = str(tmp_path / "fast.csv"), str(tmp_path / "slow.csv")
        assert write_csv_rows(store.iter_csv_rows(), fast) == 10
        assert write_csv_rows(jstore.iter_csv_rows(), slow) == 10
        with open(fast) as f, open(slow) as s:
            fast_text, slow_text = f.read(), s.read()
        assert fast_text == slow_text
        # and both equal the original record-streaming export
        ref = str(tmp_path / "ref.csv")
        assert write_csv(jstore.iter_records(), ref) == 10
        with open(ref) as r:
            assert fast_text == r.read()

    def test_entry_metrics_at_parity(self, tmp_path):
        """Keyed metric fetch agrees between formats, including the
        errored-entry flag the search scoring loop ranks on."""
        store = columnar(tmp_path)
        jstore = ResultStore(str(tmp_path / "jstore"))
        keys = []
        for seed in range(7):
            record = fake_record(
                seed, error="crash" if seed == 5 else None)
            store.append(record)
            jstore.append(record)
            keys.append(record_key(record))
        keys = keys[::-1]  # caller order, not store order
        got = [(e.spec_hash, e.seed, e.error, m)
               for e, m in store.entry_metrics_at(keys)]
        want = [(e.spec_hash, e.seed, e.error, m)
                for e, m in jstore.entry_metrics_at(keys)]
        assert got == want
        assert [e for _, s, e, _ in got if s == 5] == [True]


class TestSealAndReopen:
    def test_explicit_seal_drains_tail(self, tmp_path):
        store = columnar(tmp_path, segment_rows=100)
        for seed in range(5):
            store.append(fake_record(seed))
        assert store._segments == []
        assert store.seal() == 5
        assert len(store._segments) == 1
        assert os.path.getsize(
            os.path.join(store.path, TAIL_RECORDS_FILE)) == 0
        assert [r["seed"] for r in store.iter_records()] == list(range(5))

    def test_reopen_sees_everything(self, tmp_path):
        store = columnar(tmp_path)
        for seed in range(10):
            store.append(fake_record(seed))
        digest = store.canonical_digest()
        again = ResultStore(store.path)
        assert len(again) == 10
        assert again.keys() == store.keys()
        assert again.canonical_digest() == digest
        again.append(fake_record(10))
        assert len(ResultStore(store.path)) == 11

    def test_replace_supersedes_across_seal(self, tmp_path):
        store = columnar(tmp_path, segment_rows=3)
        store.append(fake_record(0, error="boom", slo_status="error"))
        for seed in range(1, 4):
            store.append(fake_record(seed))  # seals seed 0 into a segment
        assert store.has_error(record_key(fake_record(0)))
        healed = fake_record(0, fingerprint="fphealed")
        store.append(healed, replace=True)
        assert len(store) == 4
        assert not store.has_error(record_key(healed))
        assert store.get(*record_key(healed))["fingerprint"] == "fphealed"
        # one segment row is now dead; reload agrees
        again = ResultStore(store.path)
        assert len(again) == 4
        assert not again.has_error(record_key(healed))
        assert again.canonical_digest() == store.canonical_digest()

    def test_compact_reclaims_dead_rows(self, tmp_path):
        store = columnar(tmp_path, segment_rows=3)
        for seed in range(6):
            store.append(fake_record(seed, error="boom",
                                     slo_status="error"))
        for seed in range(6):
            store.append(fake_record(seed, fingerprint=f"heal{seed}"),
                         replace=True)
        digest = store.canonical_digest()
        reclaimed = store.compact()
        assert reclaimed > 0
        assert store.canonical_digest() == digest
        again = ResultStore(store.path)
        assert again.canonical_digest() == digest
        assert all(not dead for dead in again._dead)


class TestCrashRecovery:
    def test_torn_tail_truncated_on_writable_open(self, tmp_path):
        store = columnar(tmp_path, segment_rows=100)
        store.append(fake_record(0))
        store.append(fake_record(1))
        tail = os.path.join(store.path, TAIL_RECORDS_FILE)
        size = os.path.getsize(tail)
        with open(tail, "a") as handle:
            handle.write('{"spec_hash": "abc", "seed": 2, "torn')
        again = ResultStore(store.path)
        assert len(again) == 2
        assert ("abc", 2) not in again
        assert os.path.getsize(tail) == size

    def test_readonly_open_never_repairs_disk(self, tmp_path):
        store = columnar(tmp_path, segment_rows=100)
        store.append(fake_record(0))
        tail = os.path.join(store.path, TAIL_RECORDS_FILE)
        with open(tail, "a") as handle:
            handle.write('{"partial')
        size = os.path.getsize(tail)
        reader = ResultStore(store.path, readonly=True)
        assert len(reader) == 1
        assert os.path.getsize(tail) == size
        with pytest.raises(ConfigurationError):
            reader.append(fake_record(2))
        with pytest.raises(ConfigurationError):
            reader.seal()
        with pytest.raises(ConfigurationError):
            reader.compact()

    def test_torn_segment_quarantined_on_writable_open(self, tmp_path):
        """A segment truncated mid-publish (torn rename is impossible,
        but torn copies/disks happen) drops like a torn JSONL tail:
        its keys vanish, everything else survives, and resume re-runs
        the lost scenarios."""
        store = columnar(tmp_path, segment_rows=4)
        for seed in range(8):
            store.append(fake_record(seed))
        seg_dir = os.path.join(store.path, SEGMENTS_DIR)
        victim = sorted(os.listdir(seg_dir))[0]
        victim_path = os.path.join(seg_dir, victim)
        assert is_valid_segment(victim_path)
        with open(victim_path, "r+b") as handle:
            handle.truncate(os.path.getsize(victim_path) // 2)
        assert not is_valid_segment(victim_path)

        again = ResultStore(store.path)
        assert len(again) == 4  # seeds 0-3 lost with their segment
        assert [r["seed"] for r in again.iter_records()] == [4, 5, 6, 7]
        assert os.path.exists(victim_path + ".corrupt")
        assert not os.path.exists(victim_path)
        # resume semantics: the lost keys read as "not run"
        for seed in range(4):
            assert record_key(fake_record(seed)) not in again
            again.append(fake_record(seed))
        assert len(again) == 8

    def test_torn_segment_readonly_skipped_in_memory(self, tmp_path):
        store = columnar(tmp_path, segment_rows=4)
        for seed in range(8):
            store.append(fake_record(seed))
        seg_dir = os.path.join(store.path, SEGMENTS_DIR)
        victim_path = os.path.join(seg_dir, sorted(os.listdir(seg_dir))[0])
        with open(victim_path, "r+b") as handle:
            handle.truncate(10)
        reader = ResultStore(store.path, readonly=True)
        assert len(reader) == 4
        assert os.path.exists(victim_path)  # no quarantine rename
        assert not os.path.exists(victim_path + ".corrupt")

    def test_seal_crash_window_heals(self, tmp_path):
        """Crash between segment publish and tail rewrite: rows exist
        in both places; the loader drops the stale tail copies and the
        digest is unchanged."""
        store = columnar(tmp_path, segment_rows=100)
        for seed in range(4):
            store.append(fake_record(seed))
        tail = os.path.join(store.path, TAIL_RECORDS_FILE)
        with open(tail, "rb") as handle:
            tail_bytes = handle.read()
        digest = store.canonical_digest()
        store.seal()
        # resurrect the pre-seal tail: the crash left both copies
        with open(tail, "wb") as handle:
            handle.write(tail_bytes)
        again = ResultStore(store.path)
        assert len(again) == 4
        assert again.canonical_digest() == digest
        # the heal drained the duplicated tail rows from disk
        assert os.path.getsize(tail) == 0


class TestMergeAndConvert:
    def _shard(self, tmp_path, name, seeds, fmt, error_seeds=()):
        store = ResultStore(str(tmp_path / name), format=fmt,
                            **({"segment_rows": 3}
                               if fmt == "columnar" else {}))
        for seed in seeds:
            if seed in error_seeds:
                store.append(fake_record(seed, error="boom",
                                         slo_status="error"))
            else:
                store.append(fake_record(seed))
        return store

    def test_merge_matches_jsonl_reference(self, tmp_path):
        """Columnar merge (segment fast path + leftovers) lands the
        same winners as the JSONL merge of the same shards."""
        shard_a = self._shard(tmp_path, "a", range(0, 6), "columnar",
                              error_seeds={2, 3})
        shard_b = self._shard(tmp_path, "b", range(2, 9), "columnar")
        shard_c = self._shard(tmp_path, "c", range(7, 11), "jsonl")
        order = [record_key(fake_record(seed)) for seed in range(11)]

        target_c = columnar(tmp_path, "merged_c")
        merged_c = target_c.merge_from([shard_a, shard_b, shard_c],
                                       order=order)
        target_j = ResultStore(str(tmp_path / "merged_j"))
        merged_j = target_j.merge_from([shard_a, shard_b, shard_c],
                                       order=order)
        assert merged_c == merged_j == 11
        assert target_c.canonical_digest() == target_j.canonical_digest()
        assert not any(map(target_c.has_error, target_c.keys()))  # b's healthy rows won
        assert diff_stores(target_j, target_c).identical
        # reload parity (the .live sidecars must hold)
        again = ResultStore(target_c.path)
        assert again.canonical_digest() == target_j.canonical_digest()

    def test_partial_segment_copy_writes_live_sidecar(self, tmp_path):
        shard_a = self._shard(tmp_path, "a", range(0, 6), "columnar")
        target = columnar(tmp_path, "merged")
        target.append(fake_record(0))  # resident: shard row 0 loses
        target.merge_from([shard_a])
        seg_dir = os.path.join(target.path, SEGMENTS_DIR)
        lives = [name for name in os.listdir(seg_dir)
                 if name.endswith(".live")]
        assert lives  # at least one copied segment carries exclusions
        assert len(ResultStore(target.path)) == 6

    def test_merge_replaces_error_records(self, tmp_path):
        target = columnar(tmp_path, "merged", segment_rows=2)
        target.append(fake_record(0, error="boom", slo_status="error"))
        target.append(fake_record(1))  # seals both into a segment
        healthy = self._shard(tmp_path, "h", [0], "columnar")
        assert target.merge_from([healthy]) == 1
        assert not target.has_error(record_key(fake_record(0)))
        again = ResultStore(target.path)
        assert not again.has_error(record_key(fake_record(0)))
        assert again.canonical_digest() == target.canonical_digest()

    def test_convert_round_trip_digest(self, tmp_path):
        jstore = self._shard(tmp_path, "orig", range(9), "jsonl",
                             error_seeds={5})
        jstore.update_metadata({"campaign": {"count": 9}})
        digest = jstore.canonical_digest()
        cstore = convert_store(jstore, str(tmp_path / "col"), "columnar")
        assert isinstance(cstore, ColumnarResultStore)
        assert cstore.canonical_digest() == digest
        assert cstore.metadata["campaign"] == {"count": 9}
        assert not cstore._tail_keys  # fully sealed
        back = convert_store(cstore, str(tmp_path / "back"), "jsonl")
        assert back.storage_format == "jsonl"
        assert back.canonical_digest() == digest
        assert diff_stores(jstore, back).identical

    def test_convert_refuses_nonempty_target(self, tmp_path):
        jstore = self._shard(tmp_path, "orig", range(3), "jsonl")
        other = self._shard(tmp_path, "other", range(2), "jsonl")
        with pytest.raises(ConfigurationError):
            convert_store(jstore, other.path, "columnar")
        with pytest.raises(ConfigurationError):
            convert_store(jstore, jstore.path, "jsonl")
        with pytest.raises(ConfigurationError):
            convert_store(jstore, str(tmp_path / "x"), "parquet")


class TestSegmentCodec:
    def test_round_trip(self, tmp_path):
        records = [fake_record(seed, error="boom" if seed == 3 else None,
                               slo_status="pass")
                   for seed in range(7)]
        path = str(tmp_path / "seg.rseg")
        write_segment(path, records)
        assert is_valid_segment(path)
        assert is_valid_segment(path, deep=True)
        reader = SegmentReader(path)
        assert reader.rows == 7
        assert [json.loads(p) for _, p in reader.iter_payloads()] == records
        values, mask = reader.metric("convergence_time")
        assert list(values[mask == 1]) == [float(s) for s in range(7)]
        idx = reader.index_columns()
        assert idx["seed"] == list(range(7))
        assert bool(idx["error"][3]) and not bool(idx["error"][2])
        reader.close()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_segment(str(tmp_path / "empty.rseg"), [])

    def test_garbage_not_valid(self, tmp_path):
        path = str(tmp_path / "junk.rseg")
        with open(path, "wb") as handle:
            handle.write(b"not a segment at all")
        assert not is_valid_segment(path)
        with pytest.raises(ConfigurationError):
            SegmentReader(path)


class TestManifest:
    def test_corrupt_manifest_rejected(self, tmp_path):
        store = columnar(tmp_path)
        store.append(fake_record(0))
        with open(os.path.join(store.path, MANIFEST_FILE), "w") as handle:
            handle.write("not json")
        with pytest.raises(ConfigurationError):
            ResultStore(store.path)
