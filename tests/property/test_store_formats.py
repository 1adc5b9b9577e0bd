"""Property tests: the JSONL and columnar stores are bit-for-bit
interchangeable.

One random campaign history — appends, error records, replace
supersessions, in any order — is driven into BOTH formats (the
columnar store with a tiny ``segment_rows`` so sealing happens
constantly), and every deterministic surface must agree exactly:
canonical digest, diff, aggregate report, CSV bytes, resume keys.
Then the columnar store converts back to JSONL and must still digest
identically — the round trip loses nothing.
"""

import pytest

pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.results import (
    ResultStore,
    aggregate_records,
    convert_store,
    diff_stores,
    make_record,
    write_csv,
)

# One campaign "event": (seed, converged, slo_status, error?, replace?)
events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.booleans(),
        st.sampled_from(["pass", "fail", "error"]),
        st.one_of(st.none(), st.just("RuntimeError: boom")),
        st.booleans(),
    ),
    min_size=1, max_size=60,
)


def build_record(seed, converged, slo_status, error, salt):
    spec = {"name": f"s{seed}", "seed": seed, "duration": 30.0,
            "topology": {"kind": "wan", "params": {}}}
    result = {
        "name": f"s{seed}", "seed": seed, "converged": converged,
        "slos": [{"slo": "converged_within<=20s",
                  "kind": "converged_within", "status": slo_status,
                  "observed": float(seed), "threshold": 20.0,
                  "detail": ""}],
        "diagnostics": {} if error is None else {"error": error},
    }
    metrics = {"converged": converged, "convergence_time": float(seed),
               "delivered_fraction": 0.9 + salt / 1000.0}
    return make_record(spec, result, fingerprint=f"fp{seed:03d}-{salt:03d}",
                       metrics=metrics)


def apply_history(store, history):
    """Replay one event list; returns the keys actually appended."""
    salt = 0
    for seed, converged, slo_status, error, replace in history:
        record = build_record(seed, converged, slo_status, error, salt)
        salt += 1
        key = (record["spec_hash"], record["seed"])
        if key in store:
            if not replace:
                continue  # a campaign would skip the already-run seed
            store.append(record, replace=True)
        else:
            store.append(record)


@settings(max_examples=30, deadline=None)
@given(history=events)
def test_formats_agree_on_every_surface(tmp_path_factory, history):
    root = tmp_path_factory.mktemp("formats")
    jstore = ResultStore(str(root / "jsonl"))
    cstore = ResultStore(str(root / "columnar"), format="columnar",
                         segment_rows=3)
    apply_history(jstore, history)
    apply_history(cstore, history)

    # identity
    assert cstore.canonical_digest() == jstore.canonical_digest()
    assert cstore.keys() == jstore.keys()
    assert cstore.fingerprints() == jstore.fingerprints()
    assert ([cstore.has_error(k) for k in cstore.keys()]
            == [jstore.has_error(k) for k in jstore.keys()])
    assert diff_stores(jstore, cstore).identical

    # resume: both answer "has this (spec, seed) run?" identically
    for key in jstore.keys():
        assert key in cstore

    # rollups: the vectorized pass equals the streaming pass equals
    # the JSONL store's pass
    reference = aggregate_records(jstore.iter_records())
    assert cstore.aggregate().report() == reference.report()
    assert jstore.aggregate().report() == reference.report()

    # CSV: byte-identical export
    jcsv, ccsv = str(root / "j.csv"), str(root / "c.csv")
    write_csv(jstore.iter_records(), jcsv)
    write_csv(cstore.iter_records(), ccsv)
    with open(jcsv) as j, open(ccsv) as c:
        assert j.read() == c.read()

    # reload: a fresh open of the columnar store changes nothing
    reopened = ResultStore(cstore.path, readonly=True)
    assert reopened.canonical_digest() == jstore.canonical_digest()
    assert reopened.keys() == jstore.keys()


def test_replace_in_unsealed_tail_keeps_file_order(tmp_path_factory):
    """Regression (hypothesis-found): replacing a key still in the
    columnar store's un-sealed tail must move it to the back of the
    tail order — where its superseding line physically sits — or the
    next seal freezes the segment in first-insertion order and the
    two formats' iter_records/CSV exports diverge."""
    root = tmp_path_factory.mktemp("tail-replace")
    history = [(2, False, "pass", None, False),
               (1, False, "pass", None, False),
               (1, False, "pass", None, False),
               (2, False, "pass", None, True),   # replace while in tail
               (0, False, "pass", None, False)]  # third row: seals
    jstore = ResultStore(str(root / "jsonl"))
    cstore = ResultStore(str(root / "columnar"), format="columnar",
                         segment_rows=3)
    apply_history(jstore, history)
    apply_history(cstore, history)
    assert list(cstore.iter_records()) == list(jstore.iter_records())


@settings(max_examples=15, deadline=None)
@given(history=events)
def test_convert_round_trip_is_lossless(tmp_path_factory, history):
    root = tmp_path_factory.mktemp("convert")
    jstore = ResultStore(str(root / "jsonl"))
    apply_history(jstore, history)
    digest = jstore.canonical_digest()

    cstore = convert_store(jstore, str(root / "col"), "columnar")
    assert cstore.canonical_digest() == digest
    assert diff_stores(jstore, cstore).identical

    back = convert_store(cstore, str(root / "back"), "jsonl")
    assert back.canonical_digest() == digest
    assert diff_stores(jstore, back).identical
    assert list(back.iter_records()) == list(jstore.iter_records())
