"""Unit: the store's one writer, pinned from outside.

Both formats and every entry point (``append``, ``append_many``, the
JSONL ``merge_from``, the columnar leftover merge) write through one
private routine, so three things are checked per entry point rather
than per routine: the crash window between the record ``fsync`` and the
sidecar line heals on the next writable open, a merge still produces
the bytes it produced before the fold (golden digests recorded from the
commit before it), and the ``store.*`` counters follow one rule
whatever the target format.
"""

import builtins
import hashlib

import pytest

from repro.obs.metrics import metrics
from repro.results import ResultStore, make_record


def fake_record(seed, metric=1.0, error=None):
    """A schema-shaped record without running a scenario."""
    spec = {"name": f"scn-{seed}", "seed": seed}
    result = {
        "name": spec["name"], "seed": seed, "converged": True,
        "slos": [{"slo": "converged_within<=30",
                  "status": "error" if error else "pass",
                  "observed": metric}],
        "diagnostics": {"error": error} if error else {},
        "wall_seconds": 0.123,
    }
    return make_record(spec, result, fingerprint=f"fp-{seed}-{metric}",
                       metrics={"converged": True, "metric": metric})


def three_shards(tmp_path, format="jsonl"):
    """Three overlapping shards: seed 1 errors in ``a`` and is healthy
    in ``b``; seed 2 is in ``a`` and ``c``; seed 4 only ever errors."""
    contents = {
        "a": [fake_record(0), fake_record(1, error="boom"), fake_record(2)],
        "b": [fake_record(1), fake_record(3)],
        "c": [fake_record(2), fake_record(4, error="boom"), fake_record(5)],
    }
    shards = []
    for name, records in contents.items():
        shard = ResultStore(str(tmp_path / f"shard-{name}"), format=format)
        for record in records:
            shard.append(record)
        shards.append(shard)
    return shards


def merge_order():
    return [(fake_record(seed)["spec_hash"], seed) for seed in (3, 2, 1, 0)]


# -- (i) the crash window after the record fsync ---------------------------

def _append(store, tmp_path):
    store.append(fake_record(7))


def _append_many(store, tmp_path):
    store.append_many([fake_record(7), fake_record(8)])


def _merge(store, tmp_path):
    # JSONL shards have no segments, so a columnar target takes all six
    # through its leftover path.
    store.merge_from(three_shards(tmp_path), order=merge_order())


@pytest.mark.parametrize("format", ["jsonl", "columnar"])
@pytest.mark.parametrize("write, written",
                         [(_append, 1), (_append_many, 2), (_merge, 6)])
def test_sidecar_write_failing_after_the_record_fsync_heals(
        tmp_path, monkeypatch, format, write, written):
    path = str(tmp_path / "store")
    store = ResultStore(path, format=format)
    store.append(fake_record(100))
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        if file == store.index_path and "a" in mode:
            raise OSError("disk full")
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="disk full"):
        write(store, tmp_path)
    monkeypatch.undo()
    with real_open(store.index_path, "rb") as handle:
        stale_sidecar = handle.read()

    # The records were durable before the sidecar was touched: a
    # read-only open sees them without repairing anything...
    reader = ResultStore(path, readonly=True)
    assert len(reader) == 1 + written
    with real_open(store.index_path, "rb") as handle:
        assert handle.read() == stale_sidecar
    # ...and a writable open rebuilds the sidecar to cover them.
    healed = ResultStore(path)
    assert healed.keys() == reader.keys()
    assert healed.canonical_digest() == reader.canonical_digest()
    with real_open(healed.index_path, "rb") as handle:
        rebuilt = handle.read()
    assert rebuilt != stale_sidecar
    assert rebuilt.count(b"\n") == len(healed)
    healed.append(fake_record(200))
    assert len(ResultStore(path, readonly=True)) == len(reader) + 1


# -- (ii) merge bytes are what they were -----------------------------------

#: sha256 of the files ``merge_from`` produced on this fixture at the
#: commit before the write path was folded into one writer.
GOLDEN_RECORDS_SHA256 = (
    "31ffd98bce3efd56c6b45c79567b4f7f80a68777b78e0d2c1546570ade603cb4")
GOLDEN_INDEX_SHA256 = (
    "d15f10ae0136bef9e8a7c659c78f229efc18ba314bfacf49811af806d8e6944d")


def test_jsonl_merge_bytes_match_the_recorded_golden(tmp_path):
    target = ResultStore(str(tmp_path / "merged"))
    target.append(fake_record(5, error="boom"))   # superseded by shard c
    assert target.merge_from(three_shards(tmp_path),
                             order=merge_order()) == 6
    assert not target.has_error((fake_record(1)["spec_hash"], 1))
    assert not target.has_error((fake_record(5)["spec_hash"], 5))
    assert target.has_error((fake_record(4)["spec_hash"], 4))
    digests = []
    for path in (target.records_path, target.index_path):
        with open(path, "rb") as handle:
            digests.append(hashlib.sha256(handle.read()).hexdigest())
    assert digests == [GOLDEN_RECORDS_SHA256, GOLDEN_INDEX_SHA256]


# -- (iii) one counter rule for both formats -------------------------------

@pytest.mark.parametrize("format", ["jsonl", "columnar"])
def test_merge_counters_read_the_same_for_both_formats(tmp_path, format):
    """Every record the writer writes is one ``store.appends``, merged
    or not; ``store.merged_records`` counts what a merge admitted."""
    shards = three_shards(tmp_path)
    target = ResultStore(str(tmp_path / "merged"), format=format)
    target.append(fake_record(9))
    registry = metrics()
    before = {name: registry.counter(name).value
              for name in ("store.appends", "store.merges",
                           "store.merged_records")}
    assert target.merge_from(shards, order=merge_order()) == 6
    grew = {name: registry.counter(name).value - value
            for name, value in before.items()}
    assert grew == {"store.appends": 6, "store.merges": 1,
                    "store.merged_records": 6}
