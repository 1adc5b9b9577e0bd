"""Unit tests: the result store — append/lookup, the index sidecar,
crash recovery, streaming iteration — plus records and aggregation."""

import json
import os

import pytest

from repro.core.errors import ConfigurationError
from repro.results import (
    RESULT_SCHEMA_VERSION,
    ResultStore,
    aggregate_records,
    make_record,
    percentile,
    record_key,
    spec_hash,
    write_csv,
)
from repro.results.store import INDEX_FILE, RECORDS_FILE


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
    }
    return make_record(
        spec, result,
        fingerprint=fingerprint or f"fp{seed:04d}",
        metrics={"converged": converged, "convergence_time": float(seed),
                 "delivered_fraction": 0.9 + seed / 1000.0},
    )


class TestRecords:
    def test_spec_hash_is_canonical(self):
        assert spec_hash({"a": 1, "b": 2}) == spec_hash({"b": 2, "a": 1})
        assert spec_hash({"a": 1}) != spec_hash({"a": 2})

    def test_record_shape(self):
        from repro.results.records import record_error, record_slos

        record = fake_record(3)
        assert record["schema_version"] == RESULT_SCHEMA_VERSION
        assert record_key(record) == (record["spec_hash"], 3)
        assert record["name"] == "s3"
        assert record["fingerprint"] == "fp0003"
        assert "metrics" in record and "spec" in record and "result" in record
        # verdicts/diagnostics live in one place: the result payload
        assert record_slos(record)[0]["status"] == "pass"
        assert record_error(record) is None
        assert record_error(fake_record(4, error="boom")) == "boom"


class TestStoreBasics:
    def test_append_get_contains(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        records = [fake_record(seed) for seed in range(5)]
        for record in records:
            store.append(record)
        assert len(store) == 5
        for record in records:
            key = record_key(record)
            assert key in store
            assert store.get(*key) == record
        assert ("nope", 0) not in store

    def test_append_order_preserved(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        for seed in (3, 1, 4, 1 + 10, 5):
            store.append(fake_record(seed))
        seeds = [record["seed"] for record in store.iter_records()]
        assert seeds == [3, 1, 4, 11, 5]
        assert [key[1] for key in store.keys()] == seeds

    def test_duplicate_key_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.append(fake_record(1))
        with pytest.raises(ConfigurationError):
            store.append(fake_record(1))

    def test_missing_key_raises(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(KeyError):
            store.get("abc", 1)

    def test_must_exist_flag(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultStore(str(tmp_path / "absent"), create=False)

    def test_empty_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        assert len(store) == 0
        assert list(store.iter_records()) == []
        assert store.fingerprints() == {}


class TestStoreReopen:
    def test_reopen_sees_everything(self, tmp_path):
        path = str(tmp_path / "store")
        store = ResultStore(path)
        for seed in range(4):
            store.append(fake_record(seed))
        again = ResultStore(path)
        assert len(again) == 4
        assert again.fingerprints() == store.fingerprints()
        assert list(again.iter_records()) == list(store.iter_records())

    def test_reopen_can_keep_appending(self, tmp_path):
        path = str(tmp_path / "store")
        ResultStore(path).append(fake_record(0))
        again = ResultStore(path)
        again.append(fake_record(1))
        assert [r["seed"] for r in ResultStore(path).iter_records()] == [0, 1]

    def test_missing_sidecar_rebuilt(self, tmp_path):
        path = str(tmp_path / "store")
        store = ResultStore(path)
        for seed in range(3):
            store.append(fake_record(seed))
        os.remove(os.path.join(path, INDEX_FILE))
        again = ResultStore(path)
        assert len(again) == 3
        assert again.fingerprints() == store.fingerprints()
        # and the sidecar was re-written
        assert os.path.exists(os.path.join(path, INDEX_FILE))

    def test_corrupt_sidecar_rebuilt(self, tmp_path):
        path = str(tmp_path / "store")
        store = ResultStore(path)
        store.append(fake_record(0))
        with open(os.path.join(path, INDEX_FILE), "w") as handle:
            handle.write("not json\n")
        again = ResultStore(path)
        assert len(again) == 1
        assert record_key(fake_record(0)) in again

    def test_stale_sidecar_rebuilt(self, tmp_path):
        """Crash between record write and index write: the sidecar lags
        the records file and must be rebuilt, not trusted."""
        path = str(tmp_path / "store")
        store = ResultStore(path)
        store.append(fake_record(0))
        # Simulate the crash: append a record line with no index line.
        orphan = fake_record(1)
        with open(os.path.join(path, RECORDS_FILE), "a") as handle:
            handle.write(json.dumps(orphan, sort_keys=True) + "\n")
        again = ResultStore(path)
        assert len(again) == 2
        assert record_key(orphan) in again

    def test_torn_trailing_record_dropped(self, tmp_path):
        """Killed mid-write: a partial last line loses that scenario
        only — everything before it stays readable, and the torn tail
        is truncated away so later appends don't glue onto it."""
        path = str(tmp_path / "store")
        store = ResultStore(path)
        store.append(fake_record(0))
        store.append(fake_record(1))
        size_before = os.path.getsize(os.path.join(path, RECORDS_FILE))
        with open(os.path.join(path, RECORDS_FILE), "a") as handle:
            handle.write('{"spec_hash": "abc", "seed": 2, "trunc')
        again = ResultStore(path)
        assert len(again) == 2
        assert ("abc", 2) not in again
        assert [r["seed"] for r in again.iter_records()] == [0, 1]
        # the torn bytes are gone from disk
        assert os.path.getsize(
            os.path.join(path, RECORDS_FILE)) == size_before
        # resuming after the crash re-runs seed 2; the new record must
        # be fully visible to streaming readers and survive a rebuild
        again.append(fake_record(2))
        assert [r["seed"] for r in again.iter_records()] == [0, 1, 2]
        os.remove(os.path.join(path, INDEX_FILE))
        rebuilt = ResultStore(path)
        assert len(rebuilt) == 3
        assert [r["seed"] for r in rebuilt.iter_records()] == [0, 1, 2]

    def test_readonly_open_never_repairs_disk(self, tmp_path):
        """A reader must not truncate what might be a concurrent
        writer's in-flight record, nor rewrite the sidecar."""
        path = str(tmp_path / "store")
        store = ResultStore(path)
        store.append(fake_record(0))
        in_flight = '{"spec_hash": "abc", "seed": 1, "partial'
        with open(os.path.join(path, RECORDS_FILE), "a") as handle:
            handle.write(in_flight)
        os.remove(os.path.join(path, INDEX_FILE))
        size = os.path.getsize(os.path.join(path, RECORDS_FILE))

        reader = ResultStore(path, readonly=True)
        assert len(reader) == 1
        assert [r["seed"] for r in reader.iter_records()] == [0]
        # disk untouched: no truncation, no sidecar rewrite
        assert os.path.getsize(os.path.join(path, RECORDS_FILE)) == size
        assert not os.path.exists(os.path.join(path, INDEX_FILE))
        with pytest.raises(ConfigurationError):
            reader.append(fake_record(2))

    def test_readonly_requires_existing_store(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultStore(str(tmp_path / "absent"), readonly=True)

    def test_corrupt_middle_line_skipped_not_fatal(self, tmp_path):
        """A complete-but-unparsable line loses only itself: records
        after it stay indexed and readable."""
        path = str(tmp_path / "store")
        store = ResultStore(path)
        store.append(fake_record(0))
        with open(os.path.join(path, RECORDS_FILE), "a") as handle:
            handle.write("garbage not json\n")
        with open(os.path.join(path, RECORDS_FILE), "a") as handle:
            handle.write(json.dumps(fake_record(1), sort_keys=True) + "\n")
        os.remove(os.path.join(path, INDEX_FILE))
        again = ResultStore(path)
        assert len(again) == 2
        assert [r["seed"] for r in again.iter_records()] == [0, 1]

    def test_schema_versions_tally(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.append(fake_record(0))
        assert [r["schema_version"] for r in store.iter_records()] == [
            RESULT_SCHEMA_VERSION]

    def test_stale_sidecar_without_records_is_dropped(self, tmp_path):
        """A sidecar with no records file (partial copy) must not
        graft phantom keys onto a fresh store."""
        path = str(tmp_path / "store")
        store = ResultStore(path)
        store.append(fake_record(0))
        os.remove(os.path.join(path, RECORDS_FILE))
        again = ResultStore(path)
        assert len(again) == 0
        again.append(fake_record(1))
        reread = ResultStore(path)
        assert len(reread) == 1
        assert [r["seed"] for r in reread.iter_records()] == [1]


class TestErrorRetry:
    def test_error_flag_in_index(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.append(fake_record(0))
        store.append(fake_record(1, slo_status="error", error="boom"))
        assert ([k for k in store.keys() if store.has_error(k)]
                == [record_key(fake_record(1))])
        assert not store.has_error(record_key(fake_record(0)))
        assert store.has_error(record_key(fake_record(1)))

    def test_replace_supersedes_error_record(self, tmp_path):
        path = str(tmp_path / "store")
        store = ResultStore(path)
        store.append(fake_record(0, error="transient crash",
                                 slo_status="error"))
        healed = fake_record(0, fingerprint="fphealed")
        store.append(healed, replace=True)
        assert len(store) == 1
        assert not store.has_error(record_key(healed))
        assert store.get(*record_key(healed))["fingerprint"] == "fphealed"
        records = list(store.iter_records())
        assert len(records) == 1  # the superseded line is skipped
        assert records[0]["fingerprint"] == "fphealed"

    def test_supersede_survives_reopen_and_rebuild(self, tmp_path):
        path = str(tmp_path / "store")
        store = ResultStore(path)
        store.append(fake_record(0, error="boom", slo_status="error"))
        store.append(fake_record(1))
        store.append(fake_record(0, fingerprint="fphealed"), replace=True)
        for again in (ResultStore(path),):
            assert len(again) == 2
            fps = {key[1]: fp for key, fp in again.fingerprints().items()}
            assert fps[0] == "fphealed"
        # force a rebuild: the last-wins rule must survive a rescan
        os.remove(os.path.join(path, INDEX_FILE))
        rebuilt = ResultStore(path)
        assert len(rebuilt) == 2
        assert not rebuilt.has_error(record_key(fake_record(0)))
        assert [r["seed"] for r in rebuilt.iter_records()] == [1, 0]


class TestPercentile:
    def test_single_value(self):
        assert percentile([5.0], 99.0) == 5.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)

    def test_extremes(self):
        values = [float(v) for v in range(11)]
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 100.0) == 10.0
        assert percentile(values, 90.0) == pytest.approx(9.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)


class TestAggregation:
    def test_rollups_and_tallies(self):
        records = [fake_record(seed) for seed in range(10)]
        records.append(fake_record(10, slo_status="fail"))
        records.append(fake_record(11, slo_status="error",
                                   error="RuntimeError: boom"))
        aggregate = aggregate_records(records)
        assert aggregate.records == 12
        assert aggregate.errors == 1
        assert not aggregate.gate_ok
        tally = aggregate.slo_tallies["converged_within<=20s"]
        assert (tally.passed, tally.failed, tally.errored) == (10, 1, 1)
        # the errored record's zero-default metrics stay OUT of the
        # rollups (they measured nothing)
        stats = aggregate.metric_rollups["convergence_time"].stats()
        assert stats["count"] == 11
        assert stats["min"] == 0.0 and stats["max"] == 10.0

    def test_gate_ok_when_clean(self):
        aggregate = aggregate_records([fake_record(s) for s in range(3)])
        assert aggregate.gate_ok
        assert aggregate.slo_failures == 0

    def test_report_text(self):
        aggregate = aggregate_records(
            [fake_record(0), fake_record(1, slo_status="fail")])
        text = aggregate.report()
        assert "2 record(s)" in text
        assert "convergence_time" in text
        assert "converged_within<=20s" in text
        assert "FAILING" in text

    def test_csv_export(self, tmp_path):
        path = str(tmp_path / "out.csv")
        rows = write_csv([fake_record(0), fake_record(1)], path)
        assert rows == 2
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert "name" in header and "fingerprint" in header
        assert "metric.convergence_time" in header
        assert "slo.converged_within<=20s" in header
