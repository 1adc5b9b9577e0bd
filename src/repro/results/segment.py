"""Binary columnar segment files for :class:`ColumnarResultStore`.

A segment is an immutable, self-describing file holding a batch of
result records in column order:

* fixed-schema **metric columns** (float64 values + a presence mask)
  and the ``converged`` flag, stored raw so readers mmap them straight
  into numpy arrays — no parsing on the report path;
* the **SLO verdicts** as a CSR ragged array (per-row offsets into
  dictionary-encoded label/status id arrays);
* the **index block** (spec_hash, seed, name, fingerprint, error),
  zlib-compressed JSON — everything the resume question needs;
* two **paged blobs**: the full canonical-JSON record per row (the
  lossless side that ``get``/``iter_records``/digests read) and the
  canonical-JSON metrics dict per row (the cheap side the search
  leaderboard reads), both zlib-compressed in pages of
  ``page_rows`` rows;
* a JSON **footer** naming every block's byte range plus schema
  version, row count, dictionaries and provenance, followed by the
  footer length and a trailing magic.

The trailing magic is the torn-tail detector: a segment is only ever
published by an atomic rename after fsync, so a file that does not end
in ``RSEGEND1`` (or whose footer/blocks do not fit) is a crash's
debris and is dropped exactly like a torn JSONL tail.

numpy is required for the columnar format only — the JSONL store and
the rest of the library stay stdlib-pure.  It is bound at first use
through :func:`repro.core.numpy_loader.load_numpy`, not when this
module loads; without numpy that first use raises
:class:`~repro.core.errors.ConfigurationError` (:data:`NUMPY_REQUIRED`).
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.numpy_loader import load_numpy
from repro.results.records import record_error, record_slos

MAGIC = b"RSEG0001"
END_MAGIC = b"RSEGEND1"
SEGMENT_VERSION = 1
SEGMENT_SUFFIX = ".rseg"

#: Rows per compressed payload page.  Small enough that a point read
#: (``get``) decompresses a few KB, large enough that near-identical
#: records compress against each other.
DEFAULT_PAGE_ROWS = 64

#: The fixed metric schema: every segment stores one float64 column
#: (plus presence mask) per name.  Metrics outside this set still
#: round-trip losslessly through the payload blob; they just are not
#: available columnar.  Keep this a superset of
#: :data:`repro.results.aggregate.ROLLUP_METRICS`.
METRIC_COLUMNS = (
    "convergence_time",
    "delivered_fraction",
    "max_recovery_seconds",
    "mean_recovery_seconds",
    "control_messages",
    "control_bytes",
    "events_fired",
    "recomputations",
    "wall_seconds",
)

#: Presence-mask values for a metric cell.
MASK_ABSENT = 0      # key not in metrics
MASK_NUMBER = 1      # real int/float (value column holds it)
MASK_PRESENT = 2     # present but not a rollup number (bool/None/str/...)

_ZLIB_LEVEL = 6

#: The error a columnar store raises without numpy.
NUMPY_REQUIRED = ("the columnar store format requires numpy; install it "
                  "or use the default JSONL format")


def metric_cell(metrics: Dict[str, Any], name: str) -> Tuple[float, int]:
    """(value, mask) for one metric cell, mirroring
    :meth:`MetricRollup.add` semantics exactly: bools and None are
    *present* but never numbers."""
    if name not in metrics:
        return 0.0, MASK_ABSENT
    value = metrics[name]
    if isinstance(value, bool) or value is None:
        return 0.0, MASK_PRESENT
    if isinstance(value, (int, float)):
        return float(value), MASK_NUMBER
    return 0.0, MASK_PRESENT


def _paged_blob(chunks: "List[bytes]",
                page_rows: int) -> Tuple[bytes, bytes, bytes]:
    """Compress per-row byte strings into pages.

    Returns (pages, page_index, row_offsets): ``pages`` is the
    concatenation of zlib-compressed pages of ``page_rows`` rows each;
    ``page_index`` is uint64[(pages)+1] compressed-byte offsets;
    ``row_offsets`` is uint64[(rows)+1] offsets into the
    *uncompressed* concatenation (so a row's bytes are a slice of its
    decompressed page)."""
    np = load_numpy(NUMPY_REQUIRED)
    rows = len(chunks)
    row_offsets = np.zeros(rows + 1, dtype=np.uint64)
    total = 0
    for i, chunk in enumerate(chunks):
        total += len(chunk)
        row_offsets[i + 1] = total
    pages: List[bytes] = []
    page_offsets = [0]
    for start in range(0, rows, page_rows):
        page = zlib.compress(b"".join(chunks[start:start + page_rows]),
                             _ZLIB_LEVEL)
        pages.append(page)
        page_offsets.append(page_offsets[-1] + len(page))
    page_index = np.asarray(page_offsets, dtype=np.uint64)
    return b"".join(pages), page_index.tobytes(), row_offsets.tobytes()


def write_segment(path: str, records: "Sequence[Dict[str, Any]]", *,
                  page_rows: int = DEFAULT_PAGE_ROWS,
                  provenance: "Optional[Dict[str, Any]]" = None) -> None:
    """Write ``records`` as one segment file, atomically.

    The caller owns durability ordering (segments are published by
    rename *before* the WAL rows they absorb are dropped); this
    function fsyncs the file and its directory so the rename is the
    commit point.
    """
    np = load_numpy(NUMPY_REQUIRED)
    if not records:
        raise ValueError("refusing to write an empty segment")
    rows = len(records)

    spec_hashes: List[str] = []
    seeds: List[int] = []
    names: List[str] = []
    fingerprints: List[str] = []
    errors: List[bool] = []
    converged = np.zeros(rows, dtype=np.uint8)
    metric_values = {name: np.zeros(rows, dtype=np.float64)
                     for name in METRIC_COLUMNS}
    metric_masks = {name: np.zeros(rows, dtype=np.uint8)
                    for name in METRIC_COLUMNS}
    labels: List[str] = []
    label_ids: Dict[str, int] = {}
    statuses: List[str] = []
    status_ids: Dict[str, int] = {}
    slo_offsets = np.zeros(rows + 1, dtype=np.uint64)
    slo_labels: List[int] = []
    slo_statuses: List[int] = []
    payload_chunks: List[bytes] = []
    metrics_chunks: List[bytes] = []

    for row, record in enumerate(records):
        spec_hashes.append(record.get("spec_hash", ""))
        seeds.append(record.get("seed", 0))
        names.append(record.get("name", ""))
        fingerprints.append(record.get("fingerprint", ""))
        errors.append(record_error(record) is not None)
        metrics = record.get("metrics", {})
        if not isinstance(metrics, dict):
            metrics = {}
        if metrics.get("converged"):
            converged[row] = 1
        for name in METRIC_COLUMNS:
            value, mask = metric_cell(metrics, name)
            metric_values[name][row] = value
            metric_masks[name][row] = mask
        for verdict in record_slos(record):
            label = str(verdict.get("slo", ""))
            status = str(verdict.get("status", ""))
            if label not in label_ids:
                label_ids[label] = len(labels)
                labels.append(label)
            if status not in status_ids:
                status_ids[status] = len(statuses)
                statuses.append(status)
            slo_labels.append(label_ids[label])
            slo_statuses.append(status_ids[status])
        slo_offsets[row + 1] = len(slo_labels)
        payload_chunks.append(json.dumps(
            record, sort_keys=True,
            separators=(",", ":")).encode("utf-8"))
        metrics_chunks.append(json.dumps(
            metrics, sort_keys=True,
            separators=(",", ":")).encode("utf-8"))

    if len(labels) > 0xFFFF or len(statuses) > 0xFF:
        raise ConfigurationError(
            "segment SLO dictionary overflow: "
            f"{len(labels)} labels / {len(statuses)} statuses")

    index_block = zlib.compress(json.dumps({
        "spec_hash": spec_hashes,
        "seed": seeds,
        "name": names,
        "fingerprint": fingerprints,
        "error": [1 if err else 0 for err in errors],
    }, separators=(",", ":")).encode("utf-8"), _ZLIB_LEVEL)

    payload_pages, payload_pidx, payload_roff = _paged_blob(
        payload_chunks, page_rows)
    metrics_pages, metrics_pidx, metrics_roff = _paged_blob(
        metrics_chunks, page_rows)

    blocks: List[Tuple[str, bytes]] = [("index", index_block),
                                       ("converged", converged.tobytes())]
    for name in METRIC_COLUMNS:
        blocks.append((f"metric:{name}:values",
                       metric_values[name].tobytes()))
        blocks.append((f"metric:{name}:mask", metric_masks[name].tobytes()))
    blocks.extend([
        ("slo:offsets", slo_offsets.tobytes()),
        ("slo:labels", np.asarray(slo_labels, dtype=np.uint16).tobytes()),
        ("slo:statuses", np.asarray(slo_statuses, dtype=np.uint8).tobytes()),
        ("payload:pages", payload_pages),
        ("payload:page_index", payload_pidx),
        ("payload:row_offsets", payload_roff),
        ("metrics:pages", metrics_pages),
        ("metrics:page_index", metrics_pidx),
        ("metrics:row_offsets", metrics_roff),
    ])

    block_table: Dict[str, List[int]] = {}
    offset = len(MAGIC)
    crc = 0
    for name, payload in blocks:
        block_table[name] = [offset, len(payload)]
        offset += len(payload)
        crc = zlib.crc32(payload, crc)

    footer = json.dumps({
        "version": SEGMENT_VERSION,
        "rows": rows,
        "page_rows": page_rows,
        "metric_columns": list(METRIC_COLUMNS),
        "slo_label_dict": labels,
        "slo_status_dict": statuses,
        "blocks": block_table,
        "crc32": crc & 0xFFFFFFFF,
        "provenance": provenance or {},
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")

    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(MAGIC)
        for _, payload in blocks:
            handle.write(payload)
        handle.write(footer)
        handle.write(len(footer).to_bytes(8, "little"))
        handle.write(END_MAGIC)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    try:
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - exotic filesystems
        pass


def _parse_footer(data) -> "Optional[Dict[str, Any]]":
    """Structural validation shared by the reader and
    :func:`is_valid_segment`; ``data`` is anything sliceable over the
    whole file (bytes or an mmap).  None means torn/corrupt."""
    size = len(data)
    floor = len(MAGIC) + 8 + len(END_MAGIC)
    if size < floor + 2:
        return None
    if (bytes(data[:len(MAGIC)]) != MAGIC
            or bytes(data[size - len(END_MAGIC):]) != END_MAGIC):
        return None
    footer_end = size - len(END_MAGIC) - 8
    footer_len = int.from_bytes(data[footer_end:footer_end + 8], "little")
    footer_start = footer_end - footer_len
    if footer_len <= 0 or footer_start < len(MAGIC):
        return None
    try:
        footer = json.loads(bytes(data[footer_start:footer_end]))
    except ValueError:
        return None
    if not isinstance(footer, dict) or footer.get("version") != SEGMENT_VERSION:
        return None
    blocks = footer.get("blocks")
    rows = footer.get("rows")
    if not isinstance(blocks, dict) or not isinstance(rows, int) or rows <= 0:
        return None
    for name, span in blocks.items():
        if (not isinstance(span, list) or len(span) != 2
                or not all(isinstance(v, int) and v >= 0 for v in span)
                or span[0] + span[1] > footer_start):
            return None
    if "index" not in blocks or "payload:pages" not in blocks:
        return None
    return footer


def is_valid_segment(path: str, deep: bool = False) -> bool:
    """Structural check that ``path`` is a complete segment.  With
    ``deep``, also verify the data-region CRC (full read — use in
    tests and fsck-style tools, not on the open path)."""
    import mmap as _mmap
    try:
        with open(path, "rb") as handle:
            try:
                mm = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
            except ValueError:
                return False
            try:
                footer = _parse_footer(mm)
                if footer is None:
                    return False
                if deep:
                    crc = 0
                    for name in sorted(footer["blocks"],
                                       key=lambda k: footer["blocks"][k][0]):
                        off, length = footer["blocks"][name]
                        crc = zlib.crc32(mm[off:off + length], crc)
                    if (crc & 0xFFFFFFFF) != footer.get("crc32"):
                        return False
            finally:
                mm.close()
    except OSError:
        return False
    return True


class SegmentReader:
    """mmap-backed reader for one segment file.

    Raw columns come back as zero-copy numpy views over the mapping;
    payload/metrics rows decompress one page at a time with a
    one-page cache per blob (sequential scans decompress each page
    exactly once)."""

    def __init__(self, path: str):
        import mmap as _mmap
        np = load_numpy(NUMPY_REQUIRED)
        self.path = path
        self._file = open(path, "rb")
        try:
            self._mm = _mmap.mmap(self._file.fileno(), 0,
                                  access=_mmap.ACCESS_READ)
        except ValueError:
            self._file.close()
            raise ConfigurationError(f"segment {path!r} is empty")
        footer = _parse_footer(self._mm)
        if footer is None:
            self.close()
            raise ConfigurationError(
                f"segment {path!r} is torn or corrupt")
        self.footer = footer
        self.rows: int = footer["rows"]
        self.page_rows: int = footer.get("page_rows", DEFAULT_PAGE_ROWS)
        self.metric_columns: List[str] = list(footer["metric_columns"])
        self.slo_label_dict: List[str] = list(footer["slo_label_dict"])
        self.slo_status_dict: List[str] = list(footer["slo_status_dict"])
        self._blocks: Dict[str, Tuple[int, int]] = {
            name: (span[0], span[1])
            for name, span in footer["blocks"].items()}
        self._np = np
        self._index: "Optional[Dict[str, list]]" = None
        self._page_cache: Dict[str, Tuple[int, bytes]] = {}

    # -- raw blocks --------------------------------------------------------

    def _span(self, name: str) -> Tuple[int, int]:
        try:
            return self._blocks[name]
        except KeyError:
            raise ConfigurationError(
                f"segment {self.path!r} has no block {name!r}") from None

    def _raw(self, name: str) -> memoryview:
        offset, length = self._span(name)
        return memoryview(self._mm)[offset:offset + length]

    def _array(self, name: str, dtype: str):
        return self._np.frombuffer(self._raw(name), dtype=dtype)

    # -- index -------------------------------------------------------------

    def index_columns(self) -> Dict[str, list]:
        """Decoded index block: parallel lists spec_hash / seed /
        name / fingerprint / error."""
        if self._index is None:
            raw = zlib.decompress(self._raw("index"))
            data = json.loads(raw)
            for column in ("spec_hash", "seed", "name", "fingerprint",
                           "error"):
                if (column not in data
                        or len(data[column]) != self.rows):
                    raise ConfigurationError(
                        f"segment {self.path!r} index block is malformed")
            self._index = data
        return self._index

    # -- columns -----------------------------------------------------------

    @property
    def converged(self):
        return self._array("converged", "u1")

    @property
    def errors(self):
        idx = self.index_columns()
        return self._np.asarray(idx["error"], dtype=self._np.uint8)

    def metric(self, name: str):
        """(values float64, mask uint8) for one metric column, or
        ``None`` when this segment predates the column."""
        if name not in self.metric_columns:
            return None
        return (self._array(f"metric:{name}:values", "<f8"),
                self._array(f"metric:{name}:mask", "u1"))

    def slo(self):
        """(offsets u64[rows+1], label_ids u16, status_ids u8,
        labels, statuses)."""
        return (self._array("slo:offsets", "<u8"),
                self._array("slo:labels", "<u2"),
                self._array("slo:statuses", "u1"),
                self.slo_label_dict, self.slo_status_dict)

    # -- paged blobs -------------------------------------------------------

    def _row_bytes(self, blob: str, row: int) -> bytes:
        if not 0 <= row < self.rows:
            raise IndexError(row)
        page = row // self.page_rows
        cached = self._page_cache.get(blob)
        if cached is None or cached[0] != page:
            page_index = self._array(f"{blob}:page_index", "<u8")
            start, end = int(page_index[page]), int(page_index[page + 1])
            pages_off, _ = self._span(f"{blob}:pages")
            data = zlib.decompress(
                self._mm[pages_off + start:pages_off + end])
            cached = (page, data)
            self._page_cache[blob] = cached
        row_offsets = self._array(f"{blob}:row_offsets", "<u8")
        base = int(row_offsets[page * self.page_rows])
        lo = int(row_offsets[row]) - base
        hi = int(row_offsets[row + 1]) - base
        return cached[1][lo:hi]

    def payload(self, row: int) -> bytes:
        """The row's full record, canonical JSON bytes."""
        return self._row_bytes("payload", row)

    def metrics_bytes(self, row: int) -> bytes:
        """The row's metrics dict, canonical JSON bytes."""
        return self._row_bytes("metrics", row)

    def record(self, row: int) -> Dict[str, Any]:
        return json.loads(self.payload(row))

    def iter_payloads(
            self, rows: "Optional[Sequence[int]]" = None
    ) -> Iterator[Tuple[int, bytes]]:
        """(row, payload bytes) for ``rows`` (default: all), ascending.
        Sequential by construction: each page decompresses once."""
        iterable = range(self.rows) if rows is None else rows
        for row in iterable:
            yield row, self._row_bytes("payload", row)

    def close(self) -> None:
        mm = getattr(self, "_mm", None)
        if mm is not None:
            try:
                mm.close()
            except (BufferError, ValueError):  # pragma: no cover
                pass  # a live numpy view pins the mapping; drop on GC
            self._mm = None
        if not self._file.closed:
            self._file.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SegmentReader {self.path!r} rows={self.rows}>"
