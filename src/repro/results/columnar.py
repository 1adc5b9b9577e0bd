"""Columnar result store: million-record analytics behind the
unchanged :class:`~repro.results.store.ResultStore` API.

Layout of a columnar store directory::

    columnar.json        # format manifest (the detection marker)
    segments/seg-*.rseg  # immutable columnar segments (see segment.py)
    tail.jsonl           # JSONL write-ahead tail (same code as records.jsonl)
    tail-index.jsonl     # the tail's sidecar
    meta.json            # free-form metadata, identical to JSONL stores

Records append to the JSONL **tail** with exactly the JSONL store's
durability contract (record line fsynced before its index line, torn
tails truncated on writable open, readonly opens never repair disk) —
the tail literally runs the base class's code against different file
names.  When the tail reaches ``segment_rows`` rows it is *sealed*
into an immutable segment: the segment is published by fsync+rename
first, then the tail is rewritten without the absorbed rows.  A crash
between the two leaves rows present in both places; the loader drops
the tail copies (same fingerprint + error flag → the segment already
covers them), which is the columnar analogue of a torn-tail heal.

Within the in-memory index, a segment row's ``IndexEntry.offset`` is a
unique **negative ordinal** (tail rows keep their true byte offsets).
Offsets of live rows therefore never collide between the two worlds,
and every supersession — replace, merge, seal — moves a key to a fresh
offset, exactly as appends do in the JSONL store.

``merge_from`` gains a segment fast path: whole segment files from
columnar sources are hard-linked (or copied) into this store and their
winning rows admitted without parsing a single record, making a fleet
shard merge O(segments + leftover records).  The merged *content* is
identical to a JSONL merge (same winners, same dedup rule); only the
physical record order may differ, which no deterministic surface
(digest, diff, aggregate, resume) observes.

Everything here requires numpy; the JSONL store does not.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import re
import shutil
import tempfile
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import ConfigurationError
from repro.core.numpy_loader import load_numpy
from repro.obs.metrics import metrics
from repro.obs.spans import span
from repro.results.aggregate import (
    ROLLUP_METRICS,
    MetricRollup,
    SLOTally,
    StoreAggregate,
    scenario_family,
)
from repro.results.records import RESULT_SCHEMA_VERSION, record_key
from repro.results.segment import (
    MASK_ABSENT,
    MASK_NUMBER,
    NUMPY_REQUIRED,
    SEGMENT_SUFFIX,
    SegmentReader,
    write_segment,
)
from repro.results.slo import ERROR, FAIL, PASS
from repro.results.store import (
    METADATA_FILE,
    RECORDS_FILE,
    IndexEntry,
    ResultStore,
    _cleaned_canonical,
    _fetch_picks,
    _merge_order,
    _record_metrics,
    _RecordReader,
)

FORMAT_NAME = "columnar"
MANIFEST_FILE = "columnar.json"
SEGMENTS_DIR = "segments"
TAIL_RECORDS_FILE = "tail.jsonl"
TAIL_INDEX_FILE = "tail-index.jsonl"

#: Tail rows that trigger an automatic seal into a segment.
DEFAULT_SEGMENT_ROWS = 8192

_SEGMENT_NAME_RE = re.compile(r"^seg-(\d+)\.rseg")

Key = Tuple[str, int]
#: A record's location: ("s", segment_index, row) or ("t", byte_offset).
Loc = Tuple[Any, ...]


def is_columnar_store(path: str) -> bool:
    """Format detection: the manifest file is the marker."""
    return os.path.isfile(os.path.join(path, MANIFEST_FILE))


class _ColumnarRecordReader(_RecordReader):
    """Fetch-by-location for a columnar store: segment rows come from
    the page cache, tail rows from the WAL file."""

    def fetch(self, key: Key) -> Dict[str, Any]:
        loc = self.store._loc[key]
        if loc[0] == "s":
            return self.store._segments[loc[1]].record(loc[2])
        return super().fetch(key)


class ColumnarResultStore(ResultStore):
    """Drop-in :class:`ResultStore` with columnar segment storage.

    Same constructor, same methods, same invariants (dedup by
    (spec_hash, seed), last-write-wins supersession, canonical digest,
    crash-tolerant tail, readonly never repairs disk).  Reports run
    straight off mmap'd metric columns; merges move whole segments.
    """

    def __init__(self, path: str, create: bool = True,
                 readonly: bool = False, format: "Optional[str]" = None,
                 segment_rows: "Optional[int]" = None):
        if format not in (None, FORMAT_NAME):
            raise ConfigurationError(
                f"store {path!r} is columnar but format={format!r} "
                "was requested")
        self.path = os.path.abspath(path)
        self.readonly = readonly
        manifest_path = os.path.join(self.path, MANIFEST_FILE)
        if not os.path.isfile(manifest_path):
            if not create or readonly:
                raise ConfigurationError(
                    f"result store {path!r} does not exist")
            if os.path.exists(os.path.join(self.path, RECORDS_FILE)):
                raise ConfigurationError(
                    f"{path!r} already holds a JSONL result store; "
                    "use 'repro store convert' instead")
            load_numpy(NUMPY_REQUIRED)  # fail before any file is created
            os.makedirs(os.path.join(self.path, SEGMENTS_DIR),
                        exist_ok=True)
            manifest = {"format": FORMAT_NAME, "version": 1,
                        "segment_rows": int(segment_rows
                                            or DEFAULT_SEGMENT_ROWS)}
            tmp = manifest_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, manifest_path)
        else:
            load_numpy(NUMPY_REQUIRED)
            try:
                with open(manifest_path, "r", encoding="utf-8") as handle:
                    manifest = json.load(handle)
            except (OSError, ValueError) as exc:
                raise ConfigurationError(
                    f"store manifest {manifest_path!r} is unreadable: "
                    f"{exc}") from exc
            if (not isinstance(manifest, dict)
                    or manifest.get("format") != FORMAT_NAME):
                raise ConfigurationError(
                    f"store manifest {manifest_path!r} does not describe "
                    "a columnar store")
        self.segment_rows = int(segment_rows
                                or manifest.get("segment_rows")
                                or DEFAULT_SEGMENT_ROWS)
        self.records_path = os.path.join(self.path, TAIL_RECORDS_FILE)
        self.index_path = os.path.join(self.path, TAIL_INDEX_FILE)
        self.metadata_path = os.path.join(self.path, METADATA_FILE)
        self.segments_dir = os.path.join(self.path, SEGMENTS_DIR)
        self._index: Dict[Key, IndexEntry] = {}
        self._order: List[Key] = []
        self._loc: Dict[Key, Loc] = {}
        self._segments: List[SegmentReader] = []
        self._dead: List[Set[int]] = []
        self._tail_keys: List[Key] = []
        self._tail_set: Set[Key] = set()
        self._next_ordinal = -1
        self._next_segment_id = 0
        self._load_segments()
        self._load_tail()

    # -- loading -----------------------------------------------------------

    def _segment_files(self) -> List[str]:
        if not os.path.isdir(self.segments_dir):
            return []
        return sorted(name for name in os.listdir(self.segments_dir)
                      if name.endswith(SEGMENT_SUFFIX))

    def _load_segments(self) -> None:
        if not os.path.isdir(self.segments_dir):
            if not self.readonly:
                os.makedirs(self.segments_dir, exist_ok=True)
            return
        for name in os.listdir(self.segments_dir):
            match = _SEGMENT_NAME_RE.match(name)
            if match:
                self._next_segment_id = max(self._next_segment_id,
                                            int(match.group(1)) + 1)
            if self.readonly:
                continue
            # Crash debris from an unfinished seal (.tmp) or a
            # liveness file whose segment never got published: never
            # visible to readers, safe to drop on a writable open.
            full = os.path.join(self.segments_dir, name)
            orphan_live = (name.endswith(SEGMENT_SUFFIX + ".live")
                           and not os.path.exists(
                               full[:-len(".live")]))
            if name.endswith(".tmp") or orphan_live:
                try:
                    os.remove(full)
                except OSError:  # pragma: no cover - racing cleanup
                    pass
        for name in self._segment_files():
            full = os.path.join(self.segments_dir, name)
            try:
                reader = SegmentReader(full)
            except ConfigurationError:
                # Torn/corrupt segment: dropped exactly like a torn
                # JSONL tail.  Writable opens quarantine the file so
                # the next seal cannot collide with it; readonly opens
                # skip it in memory only.
                if not self.readonly:
                    os.replace(full, full + ".corrupt")
                continue
            admitted = self._segment_live_rows(full, reader.rows)
            si = len(self._segments)
            self._segments.append(reader)
            self._dead.append(
                set() if admitted is None
                else set(range(reader.rows)) - admitted)
            rows = [row for row in range(reader.rows)
                    if admitted is None or row in admitted]
            for row in self._admission_order(reader, rows):
                self._admit_segment_row(si, row)

    @staticmethod
    def _admission_order(reader: SegmentReader, rows: List[int]) -> List[int]:
        """Order segment rows for index admission.  Seals record the
        keys' first-insert order as an ``admit_order`` provenance
        permutation (row order itself is last-write order, which
        iteration needs); rows the permutation does not cover — old
        segments, partial merge copies — keep row order."""
        order = reader.footer.get("provenance", {}).get("admit_order")
        if not isinstance(order, list):
            return rows
        rank = {}
        for position, row in enumerate(order):
            if isinstance(row, int) and row not in rank:
                rank[row] = position
        return sorted(rows, key=lambda row: (rank.get(row, len(order)), row))

    def _segment_live_rows(self, segment_path: str,
                           rows: int) -> "Optional[Set[int]]":
        """The ``.live`` sidecar a partial segment copy carries: the
        rows a merge actually admitted.  None (no sidecar) means all
        rows belong to this store."""
        live_path = segment_path + ".live"
        if not os.path.exists(live_path):
            return None
        try:
            with open(live_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            live = {int(row) for row in data}
        except (OSError, ValueError, TypeError):
            # Unreadable liveness: fail closed (treat every row as
            # foreign) rather than resurrect dedup losers.
            return set()
        return {row for row in live if 0 <= row < rows}

    def _load_tail(self) -> None:
        stale = False
        for entry in self._load_index_entries():
            key = (entry.spec_hash, entry.seed)
            loc = self._loc.get(key)
            if loc is not None and loc[0] == "s":
                si, row = loc[1], loc[2]
                idx = self._segments[si].index_columns()
                if (row not in self._dead[si]
                        and idx["fingerprint"][row] == entry.fingerprint
                        and bool(idx["error"][row]) == entry.error):
                    # A seal published this row's segment but crashed
                    # before rewriting the tail: the segment copy wins.
                    stale = True
                    continue
            self._admit(entry)
            self._set_loc(key, ("t", entry.offset))
            self._tail_touch(key)
        if stale and not self.readonly:
            self._rewrite_tail()

    def _tail_touch(self, key: Key) -> None:
        """Record ``key`` as the newest tail row.  A replace moves the
        key to the back of the tail order — where its superseding line
        physically sits, and where the JSONL store's live-file order
        puts it — so a later seal freezes rows in the same order both
        formats iterate."""
        if key in self._tail_set:
            self._tail_keys.remove(key)
        else:
            self._tail_set.add(key)
        self._tail_keys.append(key)

    def _set_loc(self, key: Key, loc: Loc) -> None:
        """Move a key to a new location; the location it leaves (if it
        was a segment row) becomes a dead row."""
        old = self._loc.get(key)
        if old is not None and old[0] == "s":
            self._dead[old[1]].add(old[2])
        self._loc[key] = loc

    def _segment_offset(self) -> int:
        """A fresh negative ordinal: the ``offset`` of a sealed row."""
        ordinal = self._next_ordinal
        self._next_ordinal -= 1
        return ordinal

    def _admit_segment_row(self, si: int, row: int) -> Key:
        """Admit row ``row`` of segment ``si`` from the segment's index
        columns alone (loading, and the merge fast path)."""
        idx = self._segments[si].index_columns()
        key = (idx["spec_hash"][row], idx["seed"][row])
        self._set_loc(key, ("s", si, row))
        self._admit(IndexEntry(
            spec_hash=key[0], seed=key[1], name=idx["name"][row],
            fingerprint=idx["fingerprint"][row],
            offset=self._segment_offset(), error=bool(idx["error"][row])))
        return key

    def _move_to_segment(self, key: Key, si: int, row: int) -> None:
        """Re-stamp a resident key whose record now lives in a segment
        (seal, compact)."""
        self._set_loc(key, ("s", si, row))
        self._index[key] = dataclasses.replace(
            self._index[key], offset=self._segment_offset())

    def _live_segments(self) -> Iterator[Tuple[SegmentReader, List[int]]]:
        """(segment, its live rows ascending) for every segment that
        has any — the one "skip dead rows" walk under the record,
        metrics, CSV and digest iterators."""
        for seg, dead in zip(self._segments, self._dead):
            if len(dead) < seg.rows:
                yield seg, [row for row in range(seg.rows)
                            if row not in dead]

    # -- tail machinery ----------------------------------------------------

    def _read_tail_lines(self, keys: "Sequence[Key]") -> List[bytes]:
        with contextlib.closing(_RecordReader(self)) as reader:
            return [reader.line(key) for key in keys]

    def _rewrite_tail(self) -> None:
        """Atomically rewrite the tail (and its sidecar) to hold
        exactly the live tail rows, in tail order.  Offsets move; the
        index follows."""
        keys = list(self._tail_keys)
        lines = self._read_tail_lines(keys)
        for entry in self._rewrite(
                (self._index[key], line) for key, line in zip(keys, lines)):
            key = (entry.spec_hash, entry.seed)
            self._index[key] = entry
            self._loc[key] = ("t", entry.offset)

    # -- writing -----------------------------------------------------------

    def _write(self, records: "Iterable[Dict[str, Any]]") -> List[IndexEntry]:
        """The base writer against the tail files, then the tail
        bookkeeping and — once the tail is full — a seal."""
        entries = super()._write(records)
        for entry in entries:
            key = (entry.spec_hash, entry.seed)
            self._set_loc(key, ("t", entry.offset))
            self._tail_touch(key)
        while len(self._tail_keys) >= self.segment_rows:
            self._seal_rows(self.segment_rows)
        return entries

    def append(self, record: Dict[str, Any],
               replace: bool = False) -> IndexEntry:
        """:meth:`ResultStore.append` over the tail (:meth:`_write`
        does the columnar part).  Spelled out because the horsebench
        harness times and counts appends per class, by this name."""
        return super().append(record, replace)

    def seal(self, rows: "Optional[int]" = None) -> int:
        """Seal up to ``rows`` tail rows (default: all) into a
        segment; returns the rows sealed.  Also the explicit flush a
        converter calls so a freshly converted store is all-columnar."""
        self._require_writable()
        count = len(self._tail_keys)
        if rows is not None:
            count = min(count, rows)
        if count <= 0:
            return 0
        self._seal_rows(count)
        return count

    def _next_segment_path(self) -> str:
        path = os.path.join(self.segments_dir,
                            f"seg-{self._next_segment_id:08d}{SEGMENT_SUFFIX}")
        self._next_segment_id += 1
        return path

    def _register_segment(self, path: str) -> int:
        reader = SegmentReader(path)
        self._segments.append(reader)
        self._dead.append(set())
        return len(self._segments) - 1

    def _seal_rows(self, count: int) -> None:
        with span("store.seal", rows=count):
            self._seal_rows_inner(count)
        reg = metrics()
        reg.counter("store.seals").inc()
        reg.counter("store.sealed_rows").inc(count)

    def _seal_rows_inner(self, count: int) -> None:
        keys = self._tail_keys[:count]
        records = [json.loads(line)
                   for line in self._read_tail_lines(keys)]
        path = self._next_segment_path()
        # Rows freeze in tail (= last-write) order so iter_records
        # matches the JSONL live-file order; admit_order additionally
        # records the keys' first-insert order so a reopen can rebuild
        # keys()/entries() order too (a replace moves a key's row but
        # not its slot).
        provenance: Dict[str, Any] = {"created_by": "seal", "rows": count}
        slot = {key: index for index, key in enumerate(self._order)}
        admit_order = sorted(range(count), key=lambda row: slot[keys[row]])
        if admit_order != list(range(count)):
            provenance["admit_order"] = admit_order
        write_segment(path, records, provenance=provenance)
        si = self._register_segment(path)
        for row, key in enumerate(keys):
            self._move_to_segment(key, si, row)
        self._tail_keys = self._tail_keys[count:]
        self._tail_set = set(self._tail_keys)
        self._rewrite_tail()

    # -- merge / compaction ------------------------------------------------

    def _open_reader(self) -> _RecordReader:
        return _ColumnarRecordReader(self)

    def merge_from(
        self,
        sources: "Sequence[ResultStore]",
        order: "Optional[Sequence[Key]]" = None,
        replace_errors: bool = True,
    ) -> int:
        """Same winners and dedup rule as the JSONL merge, plus a
        segment fast path: a columnar source's segments are linked (or
        copied) wholesale and their winning rows admitted from the
        segment index alone — O(segments) file work, no record
        parsing.  Rows that lose the dedup ride along dead (compact
        reclaims them).  Only the *physical* record order can differ
        from a JSONL merge; every deterministic surface (digest, diff,
        aggregate, resume) is unaffected, so ``order`` only orders the
        non-segment leftovers."""
        self._require_writable()
        best, arrival = self._pick_winners(sources, replace_errors)
        if not best:
            return 0
        metrics().counter("store.merges").inc()
        appended = 0
        superseded_tail = False
        # Segment fast path: one pass per source segment, admitting
        # the rows whose key this source won.
        for source in sources:
            if not isinstance(source, ColumnarResultStore):
                continue
            for src_si, seg in enumerate(source._segments):
                src_dead = source._dead[src_si]
                idx = seg.index_columns()
                rows: List[int] = []
                for row in range(seg.rows):
                    if row in src_dead:
                        continue
                    key = (idx["spec_hash"][row], idx["seed"][row])
                    win = best.get(key)
                    if win is None or win[0] is not source:
                        continue
                    if source._loc.get(key) != ("s", src_si, row):
                        continue  # superseded within the source
                    rows.append(row)
                if not rows:
                    continue
                path = self._next_segment_path()
                if len(rows) < seg.rows:
                    # Some rows lost the dedup: record which rows this
                    # store admitted, *before* the segment becomes
                    # visible, so a reload never resurrects losers.
                    live_tmp = path + ".live.tmp"
                    with open(live_tmp, "w", encoding="utf-8") as handle:
                        json.dump(rows, handle)
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(live_tmp, path + ".live")
                try:
                    os.link(seg.path, path)
                except OSError:
                    shutil.copy2(seg.path, path)
                new_si = self._register_segment(path)
                self._dead[new_si] = set(range(seg.rows)) - set(rows)
                for row in rows:
                    key = self._admit_segment_row(new_si, row)
                    if key in self._tail_set:
                        # The copy superseded a resident tail record
                        # (an error a shard's healthy row replaces);
                        # drop it from the tail bookkeeping — and from
                        # the tail file below, so a reload cannot
                        # resurrect it over the segment row.
                        self._tail_set.discard(key)
                        self._tail_keys.remove(key)
                        superseded_tail = True
                    del best[key]
                appended += len(rows)
        if superseded_tail:
            self._rewrite_tail()
        # Leftovers (tail rows and JSONL sources) go through the writer
        # in the caller's canonical order, a batch at a time so the
        # tail seals as it fills instead of holding the whole merge.
        keys = _merge_order(best, arrival, order)
        with contextlib.closing(_fetch_picks(best, keys)) as records:
            while batch := list(itertools.islice(records, 4096)):
                self._write(batch)
        appended += len(keys)
        metrics().counter("store.merged_records").inc(appended)
        return appended

    def compact(self) -> int:
        """Seal the tail, then rewrite every segment that carries dead
        rows.  Each rewrite publishes the replacement segment before
        deleting the original, so a crash at any point leaves a store
        that heals on open (duplicate keys resolve last-segment-wins).
        Returns the bytes reclaimed."""
        self._require_writable()
        before = self._disk_bytes()
        self.seal()
        for si in range(len(self._segments)):
            dead = self._dead[si]
            if not dead:
                continue
            seg = self._segments[si]
            live_rows = [row for row in range(seg.rows) if row not in dead]
            old_path = seg.path
            if live_rows:
                records = [json.loads(payload) for _, payload
                           in seg.iter_payloads(live_rows)]
                path = self._next_segment_path()
                write_segment(path, records, provenance={
                    "created_by": "compact", "rows": len(records)})
                new_si = self._register_segment(path)
                for row, record in enumerate(records):
                    self._move_to_segment(record_key(record), new_si, row)
            seg.close()
            self._dead[si] = set(range(seg.rows))
            os.remove(old_path)
            if os.path.exists(old_path + ".live"):
                os.remove(old_path + ".live")
        return before - self._disk_bytes()

    def _disk_bytes(self) -> int:
        total = 0
        for name in self._segment_files():
            try:
                total += os.path.getsize(
                    os.path.join(self.segments_dir, name))
            except OSError:  # pragma: no cover - racing delete
                pass
        for path in (self.records_path, self.index_path):
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total

    # -- reading -----------------------------------------------------------

    @property
    def storage_format(self) -> str:
        return FORMAT_NAME

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Segments in segment order (pages decompress once each),
        then the live tail in file order — the columnar analogue of
        "live records in file order"."""
        for __, record in self._iter_live_with_keys():
            yield record

    def _iter_live_with_keys(
            self) -> Iterator[Tuple[Key, Dict[str, Any]]]:
        for seg, rows in self._live_segments():
            idx = seg.index_columns()
            for row in rows:
                yield ((idx["spec_hash"][row], idx["seed"][row]),
                       seg.record(row))
        for record in super().iter_records():
            yield record_key(record), record

    def iter_entry_metrics(
            self) -> Iterator[Tuple[IndexEntry, Dict[str, Any]]]:
        """(entry, metrics) per live record off the compact metrics
        blob — full payloads never decompress on this path."""
        for seg, rows in self._live_segments():
            idx = seg.index_columns()
            for row in rows:
                key = (idx["spec_hash"][row], idx["seed"][row])
                yield self._index[key], json.loads(seg.metrics_bytes(row))
        for record in super().iter_records():
            yield self._index.get(record_key(record)), _record_metrics(record)

    def entry_metrics_at(
            self, keys: "Sequence[Key]",
    ) -> Iterator[Tuple[IndexEntry, Dict[str, Any]]]:
        """Keyed metric fetch off the metrics blobs: sealed rows never
        decompress their payload page, tail rows parse their one
        line."""
        with contextlib.closing(self._open_reader()) as reader:
            for key in keys:
                key = tuple(key)
                loc = self._loc[key]
                if loc[0] == "s":
                    metrics = json.loads(
                        self._segments[loc[1]].metrics_bytes(loc[2]))
                else:
                    metrics = _record_metrics(reader.fetch(key))
                yield self._index[key], metrics

    def iter_csv_rows(
            self) -> "Iterator[Tuple[Dict[str, Any], List[str]]]":
        """CSV export off the index / metrics / SLO columns: a healthy
        sealed row never decompresses its payload page.  Errored rows
        (their error *string* lives only inside the record) and the
        tail go through the record path.  Healthy sealed rows report
        the current ``RESULT_SCHEMA_VERSION`` — the only version
        ``append`` ever seals into a segment."""
        from repro.results.aggregate import _csv_row, flatten_csv_row

        for seg, rows in self._live_segments():
            idx = seg.index_columns()
            offsets, label_ids, status_ids, labels, statuses = seg.slo()
            for row in rows:
                if idx["error"][row]:
                    yield _csv_row(seg.record(row))
                    continue
                lo, hi = int(offsets[row]), int(offsets[row + 1])
                yield flatten_csv_row(
                    {"name": idx["name"][row],
                     "seed": idx["seed"][row],
                     "spec_hash": idx["spec_hash"][row],
                     "fingerprint": idx["fingerprint"][row],
                     "schema_version": RESULT_SCHEMA_VERSION},
                    json.loads(seg.metrics_bytes(row)),
                    [(labels[int(label_ids[i])], statuses[int(status_ids[i])])
                     for i in range(lo, hi)],
                    None)
        for record in super().iter_records():
            yield _csv_row(record)

    def aggregate(self) -> StoreAggregate:
        """The report in one vectorized pass over the metric columns —
        no record parsing for sealed rows; the (small) tail streams
        through the scalar path.  Bit-for-bit identical to
        ``aggregate_records(self.iter_records())``."""
        np = load_numpy(NUMPY_REQUIRED)
        agg = StoreAggregate()
        column_values: Dict[str, List[Any]] = {name: []
                                               for name in ROLLUP_METRICS}
        seen_rollups: Set[str] = set()
        for si, seg in enumerate(self._segments):
            live = np.ones(seg.rows, dtype=bool)
            for row in self._dead[si]:
                live[row] = False
            n_live = int(live.sum())
            if n_live == 0:
                continue
            agg.records += n_live
            errored = seg.errors.astype(bool)
            agg.errors += int((errored & live).sum())
            agg.converged += int(((seg.converged != 0) & live).sum())
            healthy = live & ~errored
            for name in ROLLUP_METRICS:
                column = seg.metric(name)
                if column is None:
                    continue
                values, mask = column
                if bool(((mask != MASK_ABSENT) & healthy).any()):
                    seen_rollups.add(name)
                numeric = (mask == MASK_NUMBER) & healthy
                if bool(numeric.any()):
                    column_values[name].append(values[numeric])
            wall_column = seg.metric("wall_seconds")
            if wall_column is not None:
                wall_values, wall_mask = wall_column
                wall_rows = np.nonzero((wall_mask == MASK_NUMBER)
                                       & healthy)[0]
                if len(wall_rows):
                    names = seg.index_columns()["name"]
                    for row in wall_rows:
                        family = scenario_family(str(names[int(row)]))
                        agg.scenario_walls.setdefault(family, []).append(
                            float(wall_values[int(row)]))
            offsets, label_ids, status_ids, labels, statuses = seg.slo()
            if len(label_ids):
                counts = np.diff(offsets.astype(np.int64))
                verdict_rows = np.repeat(np.arange(seg.rows), counts)
                keep = live[verdict_rows]
                if bool(keep.any()):
                    n_status = max(len(statuses), 1)
                    combo = np.bincount(
                        label_ids[keep].astype(np.int64) * n_status
                        + status_ids[keep].astype(np.int64),
                        minlength=len(labels) * n_status)
                    for li, label in enumerate(labels):
                        per_status = combo[li * n_status:(li + 1) * n_status]
                        if int(per_status.sum()) == 0:
                            continue
                        tally = agg.slo_tallies.setdefault(
                            label, SLOTally(label))
                        for sj, status in enumerate(statuses):
                            count = int(per_status[sj])
                            if not count:
                                continue
                            if status == PASS:
                                tally.passed += count
                            elif status == FAIL:
                                tally.failed += count
                            elif status == ERROR:
                                tally.errored += count
        for name in ROLLUP_METRICS:
            if name in seen_rollups:
                rollup = agg.metric_rollups.setdefault(
                    name, MetricRollup(name))
                for chunk in column_values[name]:
                    rollup.values.extend(chunk.tolist())
        for record in super().iter_records():  # the live tail
            agg.add(record)
        return agg

    def count_failing_slos(self, keys: "Sequence[Key]") -> int:
        tail_keys: List[Key] = []
        total = 0
        for key in keys:
            loc = self._loc[tuple(key)]
            if loc[0] != "s":
                tail_keys.append(tuple(key))
                continue
            offsets, _, status_ids, _, statuses = \
                self._segments[loc[1]].slo()
            passing = {i for i, status in enumerate(statuses)
                       if status == PASS}
            lo, hi = int(offsets[loc[2]]), int(offsets[loc[2] + 1])
            total += sum(1 for sid in status_ids[lo:hi]
                         if int(sid) not in passing)
        return total + super().count_failing_slos(tail_keys)

    def canonical_digest(self) -> str:
        """Same digest, same bytes, as the JSONL implementation — but
        computed with one *sequential* decompression pass (each
        payload page inflates exactly once) spilled to a temp file,
        then hashed in canonical key order."""
        digest = hashlib.sha256()
        spans: Dict[Key, Tuple[int, int]] = {}
        with tempfile.TemporaryFile() as spill:
            offset = 0
            for key, record in self._iter_live_with_keys():
                cleaned = _cleaned_canonical(record)
                spill.write(cleaned)
                spans[key] = (offset, len(cleaned))
                offset += len(cleaned)
            for key in sorted(self._order):
                start, length = spans[key]
                spill.seek(start)
                digest.update(spill.read(length))
        return digest.hexdigest()[:16]

    def close(self) -> None:
        """Release segment mmaps/handles (reads after this fail)."""
        for seg in self._segments:
            seg.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ColumnarResultStore {self.path!r} records={len(self)} "
                f"segments={len(self._segments)} "
                f"tail={len(self._tail_keys)}>")


def convert_store(source: ResultStore, target_path: str, fmt: str,
                  batch_rows: int = 4096) -> ResultStore:
    """Convert a store to ``fmt`` ("jsonl" or "columnar") at
    ``target_path`` (which must not already hold anything).

    Streams live records in batches, carries the metadata over, and
    stamps a provenance entry.  The converted store digests
    identically to the source (superseded lines do not survive the
    trip — they are not part of the store's deterministic content)."""
    if fmt not in ("jsonl", FORMAT_NAME):
        raise ConfigurationError(
            f"unknown store format {fmt!r} (expected 'jsonl' or "
            f"'{FORMAT_NAME}')")
    if os.path.isfile(target_path):
        raise ConfigurationError(
            f"convert target {target_path!r} is a file")
    if os.path.isdir(target_path) and os.listdir(target_path):
        raise ConfigurationError(
            f"convert target {target_path!r} already exists and is "
            "not empty")
    if os.path.abspath(target_path) == source.path:
        raise ConfigurationError(
            "convert target must differ from the source store")
    target = ResultStore(target_path, create=True, format=fmt)
    batch: List[Dict[str, Any]] = []
    count = 0
    for record in source.iter_records():
        batch.append(record)
        if len(batch) >= batch_rows:
            target.append_many(batch)
            count += len(batch)
            batch = []
    if batch:
        target.append_many(batch)
        count += len(batch)
    if isinstance(target, ColumnarResultStore):
        target.seal()
    metadata = source.metadata
    if metadata:
        target.update_metadata(metadata)
    target.record_provenance({
        "transport": "convert",
        "source": source.path,
        "source_format": source.storage_format,
        "target_format": target.storage_format,
        "records": count,
    })
    return target
