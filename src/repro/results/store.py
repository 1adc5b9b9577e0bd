"""Streaming, append-only, resumable persistence for campaign results.

A :class:`ResultStore` is a directory holding two files:

* ``records.jsonl`` — one self-describing record per line (see
  :mod:`repro.results.records`), appended the moment each scenario
  finishes, so a sweep of 10 000 scenarios never holds results in memory
  and a killed sweep loses at most the scenario it was writing;
* ``index.jsonl``   — a sidecar with one small line per record
  (spec_hash, seed, name, fingerprint, byte offset).  Opening a store
  reads only the sidecar, so "which (spec, seed) pairs already ran?"
  — the resume question — never scans the full records file.

The sidecar is derived state: if it is missing, truncated (a crash
between the record write and the index write), or unparsable, opening
the store rebuilds it from ``records.jsonl``.  A partial trailing
record line (killed mid-write) is dropped during the rebuild, which is
exactly the at-most-one-scenario loss the resume contract allows.

Single-writer, many-reader: campaigns append from one process (workers
return results to the parent, which writes); readers open with
``readonly=True`` so they stream without repairing anything on disk.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import ConfigurationError
from repro.obs.metrics import metrics
from repro.results.records import (
    RESULT_SCHEMA_VERSION,
    VOLATILE_METRIC_FIELDS,
    VOLATILE_RESULT_FIELDS,
    record_error,
    record_key,
)

RECORDS_FILE = "records.jsonl"
INDEX_FILE = "index.jsonl"
METADATA_FILE = "meta.json"

#: Subdirectory of a fleet campaign's target store where per-worker
#: shard stores live until they are merged.
SHARDS_DIR = "shards"


def shard_store_name(worker_id: str) -> str:
    """Canonical directory name for one worker's shard store.

    Worker ids come from the network (``repro fleet join`` names
    itself), so everything but a safe character set is mapped to ``_``
    before it becomes a path component.
    """
    safe = "".join(ch if ch.isalnum() or ch in "-._" else "_"
                   for ch in worker_id)
    return f"shard-{safe or 'worker'}"


def list_shards(root: str) -> List[str]:
    """Shard store directories under ``root``, in sorted (canonical)
    order — the deterministic tie-break order for merge dedup."""
    if not os.path.isdir(root):
        return []
    return sorted(
        os.path.join(root, name) for name in os.listdir(root)
        if name.startswith("shard-")
        and os.path.isdir(os.path.join(root, name)))


@dataclass
class IndexEntry:
    """One sidecar line: where a record lives and what it claims.

    ``error`` marks a fault-isolation record (the scenario died); it
    lets resume decide to retry such pairs without parsing records.
    A key appearing on several sidecar lines means the later line
    superseded the earlier (an error retried into a real result) —
    loading keeps the last.
    """

    spec_hash: str
    seed: int
    name: str
    fingerprint: str
    offset: int
    error: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {"spec_hash": self.spec_hash, "seed": self.seed,
                "name": self.name, "fingerprint": self.fingerprint,
                "offset": self.offset, "error": self.error}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "IndexEntry":
        return cls(spec_hash=data["spec_hash"], seed=data["seed"],
                   name=data["name"], fingerprint=data["fingerprint"],
                   offset=data["offset"], error=data.get("error", False))

    @classmethod
    def of_record(cls, record: Dict[str, Any], offset: int) -> "IndexEntry":
        """The entry of ``record`` stored at ``offset`` — the one place
        a sidecar line is derived from a record."""
        return cls(spec_hash=record["spec_hash"], seed=record["seed"],
                   name=record.get("name", ""),
                   fingerprint=record.get("fingerprint", ""),
                   offset=offset, error=record_error(record) is not None)

    def sidecar_line(self) -> str:
        """This entry as its line in a sidecar file."""
        return json.dumps(self.to_dict(), sort_keys=True) + "\n"


def _encode(record: Dict[str, Any]) -> bytes:
    """One record as its line in a records file."""
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def _record_metrics(record: Dict[str, Any]) -> Dict[str, Any]:
    metrics = record.get("metrics", {})
    return metrics if isinstance(metrics, dict) else {}


class ResultStore:
    """Append-only JSONL store keyed by (spec_hash, seed).

    ``readonly=True`` opens the store without *any* on-disk repair —
    torn tails and stale sidecars are handled in memory only, and
    :meth:`append` refuses.  Readers (report/check on a sweep that may
    still be running) must use it: the writer's in-flight record looks
    exactly like a crash's torn tail, and a repairing reader would
    truncate it out from under the writer.

    Two on-disk formats share this one API.  The constructor detects
    which one a directory holds and returns the right class: the
    default JSONL layout implemented here, or the columnar segment
    layout of :class:`repro.results.columnar.ColumnarResultStore`.
    ``format="columnar"`` (or ``"jsonl"``) pins the format when
    *creating* a store; opening an existing store with the wrong pin
    is an error rather than a silent reinterpretation.
    """

    def __new__(cls, path: str, create: bool = True,
                readonly: bool = False,
                format: "Optional[str]" = None, **kwargs):
        if cls is ResultStore:
            from repro.results.columnar import (
                FORMAT_NAME,
                ColumnarResultStore,
                is_columnar_store,
            )
            if format not in (None, "jsonl", FORMAT_NAME):
                raise ConfigurationError(
                    f"unknown store format {format!r} "
                    f"(expected 'jsonl' or {FORMAT_NAME!r})")
            detected = is_columnar_store(path)
            if detected and format == "jsonl":
                raise ConfigurationError(
                    f"store {path!r} is columnar but format='jsonl' "
                    "was requested; use 'repro store convert'")
            if detected or format == FORMAT_NAME:
                return object.__new__(ColumnarResultStore)
        return object.__new__(cls)

    def __init__(self, path: str, create: bool = True,
                 readonly: bool = False,
                 format: "Optional[str]" = None):
        if format not in (None, "jsonl"):
            raise ConfigurationError(
                f"store {path!r} is JSONL but format={format!r} "
                "was requested")
        self.path = os.path.abspath(path)
        self.readonly = readonly
        if not os.path.isdir(self.path):
            if not create or readonly:
                raise ConfigurationError(
                    f"result store {path!r} does not exist")
            os.makedirs(self.path, exist_ok=True)
        self.records_path = os.path.join(self.path, RECORDS_FILE)
        self.index_path = os.path.join(self.path, INDEX_FILE)
        self.metadata_path = os.path.join(self.path, METADATA_FILE)
        self._index: Dict[Tuple[str, int], IndexEntry] = {}
        self._order: List[Tuple[str, int]] = []
        for entry in self._load_index_entries():
            self._admit(entry)

    # -- loading -----------------------------------------------------------

    def _load_index_entries(self) -> List[IndexEntry]:
        """Sidecar entries (rebuilt from the records file whenever the
        sidecar disagrees with or lags it), in file order — the shared
        loader for both the JSONL store and the columnar tail."""
        if not os.path.exists(self.records_path):
            # No records: a leftover sidecar is stale (partial copy,
            # manual deletion) — drop it before it grafts phantom keys
            # onto future appends.
            if not self.readonly and os.path.exists(self.index_path):
                os.remove(self.index_path)
            return []
        entries = self._read_sidecar()
        if entries is None or not self._sidecar_is_complete(entries):
            entries = self._rebuild_index()
        return entries

    def _admit(self, entry: IndexEntry) -> None:
        """Fold one sidecar line into the in-memory index; a repeated
        key supersedes (last line wins), keeping its original slot in
        the append order."""
        key = (entry.spec_hash, entry.seed)
        if key not in self._index:
            self._order.append(key)
        self._index[key] = entry

    def _read_sidecar(self) -> "Optional[List[IndexEntry]]":
        if not os.path.exists(self.index_path):
            return None
        entries: List[IndexEntry] = []
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        entries.append(IndexEntry.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError):
            return None
        return entries

    def _sidecar_is_complete(self, entries: List[IndexEntry]) -> bool:
        """The sidecar covers the records file iff the byte past the
        furthest indexed record is the end of the file (modulo a
        partial trailing line a crash left behind, which a rebuild
        drops)."""
        size = os.path.getsize(self.records_path)
        if not entries:
            return size == 0
        last = max(entries, key=lambda entry: entry.offset)
        with open(self.records_path, "rb") as handle:
            handle.seek(last.offset)
            line = handle.readline()
            if not line.endswith(b"\n"):
                return False
            return handle.tell() == size

    def _rebuild_index(self) -> List[IndexEntry]:
        """Re-derive the index by scanning records.jsonl.  A key met
        twice keeps the later record (a retried error); a
        complete-but-unparsable line is skipped (its offset simply
        stays dead).  Writable opens also repair the disk: the sidecar
        is rewritten atomically and a torn trailing line (crash
        mid-write) is physically truncated away — otherwise the next
        append would glue its record onto the partial line, corrupting
        it.  Read-only opens skip both repairs (the "torn tail" may be
        a concurrent writer's in-flight record)."""
        entries: List[IndexEntry] = []
        truncate_at = None
        with open(self.records_path, "rb") as handle:
            offset = 0
            for line in handle:
                if not line.endswith(b"\n"):
                    truncate_at = offset
                    break  # torn tail from a crash mid-write
                try:
                    entries.append(
                        IndexEntry.of_record(json.loads(line), offset))
                except (ValueError, KeyError, TypeError):
                    pass  # complete but corrupt line: skip it alone
                offset += len(line)
        if self.readonly:
            return entries
        if truncate_at is not None:
            with open(self.records_path, "r+b") as handle:
                handle.truncate(truncate_at)
        os.replace(self._stage_sidecar(entries), self.index_path)
        return entries

    # -- writing -----------------------------------------------------------

    def _require_writable(self) -> None:
        if self.readonly:
            raise ConfigurationError(
                f"result store {self.path!r} was opened read-only")

    def _write(self, records: "Iterable[Dict[str, Any]]") -> List[IndexEntry]:
        """The one writer, under :meth:`append`, :meth:`append_many`
        and every merge: record lines are appended and fsynced (one
        open, one fsync for the whole batch) *before* their sidecar
        lines, then the entries are admitted.  A crash can therefore
        leave unindexed records (healed by a rebuild) but never an
        index entry pointing at nothing.  A repeated key's later line
        supersedes.  Every record written counts in ``store.appends``."""
        entries: List[IndexEntry] = []
        # Binary append so offsets are true byte positions (text-mode
        # tell() returns opaque cookies).
        with open(self.records_path, "ab") as handle:
            handle.seek(0, os.SEEK_END)
            for record in records:
                line = _encode(record)
                entries.append(IndexEntry.of_record(record, handle.tell()))
                handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        with open(self.index_path, "a", encoding="utf-8") as handle:
            handle.writelines(entry.sidecar_line() for entry in entries)
        for entry in entries:
            self._admit(entry)
        metrics().counter("store.appends").inc(len(entries))
        return entries

    def _stage_sidecar(self, entries: List[IndexEntry]) -> str:
        """Write ``entries`` as a whole sidecar beside the live one;
        returns the path to ``os.replace`` over it."""
        tmp_path = self.index_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.writelines(entry.sidecar_line() for entry in entries)
        return tmp_path

    def _rewrite(self, rows: "Iterable[Tuple[IndexEntry, bytes]]",
                 ) -> List[IndexEntry]:
        """The one atomic rewrite, under :meth:`compact` and the
        columnar tail rewrite: the records file becomes exactly the
        ``(entry, line)`` rows, entries re-stamped with their new
        offsets.  The new records are fsynced, then published by
        ``os.replace`` — records first, sidecar second, so a crash in
        between leaves a sidecar the next open finds stale and
        rebuilds."""
        tmp_records = self.records_path + ".tmp"
        entries: List[IndexEntry] = []
        with open(tmp_records, "wb") as handle:
            for entry, line in rows:
                entries.append(
                    dataclasses.replace(entry, offset=handle.tell()))
                handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        tmp_index = self._stage_sidecar(entries)
        os.replace(tmp_records, self.records_path)
        os.replace(tmp_index, self.index_path)
        return entries

    def append(self, record: Dict[str, Any],
               replace: bool = False) -> IndexEntry:
        """Persist one finished scenario's record (the one-record
        :meth:`append_many`: written and fsynced before its index
        line).

        ``replace=True`` supersedes an existing record for the same
        key (append-only on disk; the index moves to the new line) —
        how a retried error record is replaced by a real result.
        """
        return self.append_many([record], replace)[0]

    def append_many(self, records: "Sequence[Dict[str, Any]]",
                    replace: bool = False) -> List[IndexEntry]:
        """Batched append: one open, one fsync, for the whole batch —
        the bulk-load path (convert, benchmarks) where per-record
        fsyncs would dominate.  Crash semantics: see :meth:`_write`."""
        self._require_writable()
        if not replace:
            seen = set()
            for record in records:
                key = record_key(record)
                if key in self._index or key in seen:
                    raise ConfigurationError(
                        f"store already holds a record for "
                        f"spec_hash={key[0]} seed={key[1]}")
                seen.add(key)
        return self._write(records) if records else []

    # -- merge / compaction ------------------------------------------------

    def _pick_winners(self, sources: "Sequence[ResultStore]",
                      replace_errors: bool):
        """The merge dedup rule, once: ``(best, arrival)`` where
        ``best`` maps each key some source wins to its ``(source,
        entry)`` and ``arrival`` lists those keys in first-seen order.

        Dedup streams against the *resident* index: a source entry
        that cannot possibly win (its key is already here and not an
        error a healthy candidate may supersede) is dropped the moment
        it is seen, so merge memory is proportional to the records
        actually merged — not to the union of all shard indexes, which
        a resumed fleet merging mostly-duplicate shards used to pay
        on every call.
        """
        best: Dict[Tuple[str, int], Tuple["ResultStore", IndexEntry]] = {}
        arrival: List[Tuple[str, int]] = []
        for source in sources:
            for entry in source.iter_entries():
                key = (entry.spec_hash, entry.seed)
                resident = self._index.get(key)
                if resident is not None and not (
                        replace_errors and resident.error
                        and not entry.error):
                    continue  # can never win against the resident
                if key not in best:
                    best[key] = (source, entry)
                    arrival.append(key)
                elif best[key][1].error and not entry.error:
                    best[key] = (source, entry)
        return best, arrival

    def merge_from(
        self,
        sources: "Sequence[ResultStore]",
        order: "Optional[Sequence[Tuple[str, int]]]" = None,
        replace_errors: bool = True,
    ) -> int:
        """Fold records from shard stores into this one, dedup by key.

        The dedup rule is deterministic regardless of which worker ran
        what when: for every key, a *healthy* record beats an error
        record, and ties break by source position (callers pass shards
        in sorted name order — see :func:`list_shards`).  ``order``
        fixes the append order of the merged records (a fleet
        coordinator passes the sweep's spec order so the merged store
        is record-for-record identical to a single-box run); keys the
        sources hold that are not in ``order`` follow, in first-source
        order.  Keys already present in this store are skipped —
        unless ``replace_errors`` and the resident record is an error
        record while a source offers a healthy one, in which case the
        healthy record supersedes it.

        Returns the number of records appended.  The source shards are
        already durable, so the whole merge is one :meth:`_write`: one
        fsync instead of one per record.
        """
        self._require_writable()
        best, arrival = self._pick_winners(sources, replace_errors)
        picks = _merge_order(best, arrival, order)
        if not picks:
            return 0
        metrics().counter("store.merges").inc()
        with contextlib.closing(_fetch_picks(best, picks)) as records:
            merged = len(self._write(records))
        metrics().counter("store.merged_records").inc(merged)
        return merged

    def compact(self) -> int:
        """Rewrite ``records.jsonl`` keeping only the live records, in
        index (append) order — dropping superseded lines (retried
        errors) and dead bytes.  Returns the bytes reclaimed.  The
        sidecar is rebuilt to match; both files are replaced
        atomically."""
        self._require_writable()
        if not os.path.exists(self.records_path):
            return 0
        before = os.path.getsize(self.records_path)
        with contextlib.closing(self._open_reader()) as reader:
            entries = self._rewrite(
                (self._index[key], _encode(reader.fetch(key)))
                for key in self._order)
        self._index = {(e.spec_hash, e.seed): e for e in entries}
        self._order = [(e.spec_hash, e.seed) for e in entries]
        return before - os.path.getsize(self.records_path)

    # -- metadata ----------------------------------------------------------

    @property
    def metadata(self) -> Dict[str, Any]:
        """The store's self-description (``meta.json``): free-form,
        never part of record identity or equality.  Missing or corrupt
        metadata reads as ``{}`` — records are the source of truth."""
        try:
            with open(self.metadata_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return {}
        return data if isinstance(data, dict) else {}

    def update_metadata(self, updates: Dict[str, Any]) -> Dict[str, Any]:
        """Shallow-merge ``updates`` into ``meta.json`` and return the
        new metadata; a key mapped to ``None`` is removed.  The new
        file is fsynced before it atomically replaces the old one."""
        self._require_writable()
        data = self.metadata
        for key, value in updates.items():
            if value is None:
                data.pop(key, None)
            else:
                data[key] = value
        tmp_path = self.metadata_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.metadata_path)
        return data

    def record_provenance(self, entry: Dict[str, Any]) -> None:
        """Append one run-provenance entry (worker count, transport,
        chunk size, repro version, ...) to ``meta["runs"]`` so a
        merged or resumed store is self-describing."""
        runs = self.metadata.get("runs")
        runs = list(runs) if isinstance(runs, list) else []
        runs.append(entry)
        self.update_metadata({"runs": runs})

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: Tuple[str, int]) -> bool:
        return tuple(key) in self._index

    def keys(self) -> List[Tuple[str, int]]:
        """(spec_hash, seed) pairs in append order."""
        return list(self._order)

    def has_error(self, key: Tuple[str, int]) -> bool:
        """True when the key's (current) record is a fault-isolation
        error record — the pairs ``retry_errors`` reruns."""
        entry = self._index.get(tuple(key))
        return entry is not None and entry.error

    def entries(self) -> List[IndexEntry]:
        """Index entries in append order (no record parsing)."""
        return [self._index[key] for key in self._order]

    def iter_entries(self) -> Iterator[IndexEntry]:
        """Streaming form of :meth:`entries` — what merges iterate so
        a many-source merge never materializes source indexes."""
        for key in self._order:
            yield self._index[key]

    @property
    def storage_format(self) -> str:
        """"jsonl" here; "columnar" on the columnar subclass.  The
        knob callers (fleet shard creation, convert) pass back into
        ``ResultStore(format=...)`` to make a like-formatted store."""
        return "jsonl"

    def _open_reader(self) -> "_RecordReader":
        """The fetch-by-location handle of this store; the columnar
        subclass returns one that also serves segment rows."""
        return _RecordReader(self)

    def get(self, spec_hash: str, seed: int) -> Dict[str, Any]:
        """Load one record by key (one seek, one line parse)."""
        if (spec_hash, seed) not in self._index:
            raise KeyError(
                f"no record for spec_hash={spec_hash} seed={seed}")
        with contextlib.closing(self._open_reader()) as reader:
            return reader.fetch((spec_hash, seed))

    def records_at(self,
                   keys: "Sequence[Tuple[str, int]]") -> Iterator[Dict[str, Any]]:
        """Stream the records for ``keys`` (in that order) through ONE
        open handle — the bulk form of :meth:`get` that digests and
        scoring use so an N-record pass costs one open, not N."""
        with contextlib.closing(self._open_reader()) as reader:
            for key in keys:
                yield reader.fetch(tuple(key))

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Stream every *live* record in file order, one line in
        memory at a time — the aggregation/report path for huge
        sweeps.  Superseded lines (an error record later replaced by a
        retry) and an unindexed/torn tail are skipped."""
        if not os.path.exists(self.records_path):
            return
        live = {entry.offset for entry in self._index.values()}
        with open(self.records_path, "rb") as handle:
            offset = 0
            for line in handle:
                if offset in live:
                    yield json.loads(line)
                offset += len(line)

    def fingerprints(self) -> Dict[Tuple[str, int], str]:
        """key -> result fingerprint, from the sidecar alone."""
        return {key: self._index[key].fingerprint for key in self._order}

    def canonical_digest(self) -> str:
        """Digest of the store's *deterministic* content, in canonical
        key order: every live record with the repo-wide volatile fields
        (``result.wall_seconds``, ``result.diagnostics``) removed,
        hashed key-by-key.  Two stores holding the same sweep — single
        box or merged from a fleet's shards, run now or resumed later,
        persisted JSONL or columnar — digest identically; any
        divergent measurement, verdict or spec does not.  This is the
        store-level form of the scenario reproducibility contract
        (wall clock and engine internals are excluded from equality
        everywhere)."""
        digest = hashlib.sha256()
        ordered = sorted(self._order)
        for record in self.records_at(ordered):
            digest.update(_cleaned_canonical(record))
        return digest.hexdigest()[:16]

    def aggregate(self) -> "Any":
        """The report/check rollup for this store — one streaming pass
        here; the columnar subclass computes the same aggregate
        straight off its metric columns."""
        from repro.results.aggregate import aggregate_records

        return aggregate_records(self.iter_records())

    def count_failing_slos(self, keys: "Sequence[Tuple[str, int]]") -> int:
        """Non-passing SLO verdicts across the records for ``keys`` —
        the fleet coordinator's post-merge tally (columnar stores
        answer it from the verdict columns without parsing records)."""
        from repro.results.records import record_slos

        total = 0
        for record in self.records_at(keys):
            total += sum(1 for verdict in record_slos(record)
                         if verdict.get("status") != "pass")
        return total

    def iter_entry_metrics(
            self) -> "Iterator[Tuple[IndexEntry, Dict[str, Any]]]":
        """(index entry, metrics dict) per live record, in record
        order — what the search leaderboard ranks on.  Columnar stores
        serve this off a compact metrics column without decompressing
        full payloads."""
        for record in self.iter_records():
            yield self._index.get(record_key(record)), _record_metrics(record)

    def entry_metrics_at(
            self, keys: "Sequence[Tuple[str, int]]",
    ) -> "Iterator[Tuple[IndexEntry, Dict[str, Any]]]":
        """(index entry, metrics) for ``keys``, in that order — the
        keyed form of :meth:`iter_entry_metrics` the search scoring
        loop uses.  ``entry.error`` carries the errored-record flag, so
        callers never need the full record to score a candidate; the
        columnar subclass serves sealed rows straight off the metrics
        column without decompressing payloads."""
        for record in self.records_at(keys):
            yield self._index[record_key(record)], _record_metrics(record)

    def iter_csv_rows(
            self) -> "Iterator[Tuple[Dict[str, Any], List[str]]]":
        """(flat CSV row, column names) per live record, in record
        order — the source ``repro campaign report --csv`` writes out
        via :func:`repro.results.aggregate.write_csv_rows`.  The
        columnar subclass builds healthy rows straight from its index,
        metrics and SLO columns and only parses the payloads of
        errored rows (the ones whose error string lives in the
        record)."""
        from repro.results.aggregate import _csv_row

        for record in self.iter_records():
            yield _csv_row(record)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ResultStore {self.path!r} records={len(self)} "
                f"schema=v{RESULT_SCHEMA_VERSION}>")


def _cleaned_canonical(record: Dict[str, Any]) -> bytes:
    """One record's contribution to :meth:`canonical_digest`: volatile
    fields removed, canonical JSON, newline-terminated.  Both store
    formats hash exactly these bytes."""
    record = dict(record)
    result = dict(record.get("result", {}))
    for field_name in VOLATILE_RESULT_FIELDS:
        result.pop(field_name, None)
    record["result"] = result
    metrics = record.get("metrics")
    if isinstance(metrics, dict):
        metrics = dict(metrics)
        for field_name in VOLATILE_METRIC_FIELDS:
            metrics.pop(field_name, None)
        record["metrics"] = metrics
    return (json.dumps(record, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


class _RecordReader:
    """The one fetch-by-location: a lazily opened, persistent read
    handle over a store's records file, under :meth:`ResultStore.get`,
    :meth:`~ResultStore.records_at`, compaction and merges (whose
    picks interleave sources, so per-record opens would defeat
    streaming)."""

    def __init__(self, store: ResultStore):
        self.store = store
        self._handle: "Optional[Any]" = None

    def line(self, key: Tuple[str, int]) -> bytes:
        """The raw line of ``key``'s record in the records file."""
        if self._handle is None:
            self._handle = open(self.store.records_path, "rb")
        self._handle.seek(self.store._index[key].offset)
        return self._handle.readline()

    def fetch(self, key: Tuple[str, int]) -> Dict[str, Any]:
        return json.loads(self.line(key))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _merge_order(best, arrival, order) -> List[Tuple[str, int]]:
    """The keys of ``best`` in merge order: the caller's ``order``
    first, then the rest as they arrived."""
    keys = [tuple(key) for key in (order or []) if tuple(key) in best]
    ordered = set(keys)
    keys.extend(key for key in arrival
                if key in best and key not in ordered)
    return keys


def _fetch_picks(best, keys) -> Iterator[Dict[str, Any]]:
    """The winning records for ``keys``, each source read through one
    persistent reader (closed when the generator is)."""
    readers: Dict[int, _RecordReader] = {}
    try:
        for key in keys:
            source = best[key][0]
            reader = readers.get(id(source))
            if reader is None:
                reader = readers[id(source)] = source._open_reader()
            yield reader.fetch(key)
    finally:
        for reader in readers.values():
            reader.close()
