"""Secondary index sidecars for chunked trace stores.

Zone maps (PR 1) can only *skip whole chunks*; every surviving chunk still
pays a full column decode + compare.  This module adds per-column secondary
structures, persisted next to the manifest, that let the planner in
:mod:`repro.engine.planner` answer point, range, top-k and LIMIT queries by
touching only the chunks (often only the *rows*) that actually match:

* **Sorted-permutation index** (numeric columns) — every finite value of the
  column across the whole store, sorted ascending, with its ``(chunk, row)``
  coordinates carried along.  A predicate becomes two ``searchsorted`` calls;
  the slice between them *is* the exact match set, so point/range lookups and
  top-k are O(log n) + O(matches) instead of a full-column scan.  Ties sort
  by store position, which is what makes index-path results bit-identical to
  the scan path.

* **Inverted index** (dictionary-encoded string columns, store format v3) —
  one posting per ``(code, chunk)`` pair recording the row range
  (``first_row``..``last_row``) and match count, sorted by code.  It rides
  the v3 :class:`~repro.engine.codecs.StoreDictionary`: codes are append-only,
  so postings minted before an append stay valid after it.

* **Per-chunk density stats** — each index stores its per-chunk entry counts,
  so LIMIT queries know *exactly* which chunks contain matches (and how many)
  before decoding anything: the scan stops as soon as the collected rows are
  provably complete, NeedleTail-style.

**Sidecar layout.**  ``index.json`` (the index manifest) plus one
``index.<column>.npz`` per indexed column, all living inside the store
directory.  They commit through the store's own seam,
:func:`~repro.engine.codecs.durable_replace`: every temporary is fsynced,
then the array files are renamed into place and ``index.json`` last — a crash
mid-build leaves either no index or a stale one, never a torn one.

**Staleness contract.**  The index manifest pins ``store_uid``,
``manifest_sequence`` and ``n_chunks``.  :func:`load_indexes` refuses a
sidecar whose pins do not match the open store (``strict=True`` raises
:class:`StaleIndexError`; the planner uses ``strict=False`` and falls back to
the scan path, flagging the stale sidecar in the emitted plan so the CLI can
warn loudly).  A stale index is therefore *never silently consulted*.

**Appends.**  :meth:`StoreIndexes.extend` reads **only the appended chunks**
and merges their entries into the existing sorted/posting arrays (a stable
merge — old entries keep their rank among equal values because their store
positions are smaller).  :class:`~repro.engine.store.StoreAppender` calls
this automatically after a committed append, so an indexed store stays
indexed without ever re-reading old data.
"""

from __future__ import annotations

import io
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TraceFormatError
from .codecs import durable_replace
from .columnar import NUMERIC_COLUMNS

__all__ = [
    "INDEX_MANIFEST_NAME",
    "INDEX_FORMAT_VERSION",
    "StaleIndexError",
    "SortedColumnIndex",
    "InvertedColumnIndex",
    "StoreIndexes",
    "build_indexes",
    "load_indexes",
    "cached_indexes",
    "extend_indexes",
    "drop_indexes",
    "indexable_columns",
]

INDEX_MANIFEST_NAME = "index.json"
INDEX_FORMAT_VERSION = 1

#: Predicate ops a sorted-permutation index can resolve to one contiguous run.
SORTED_PROBE_OPS = ("==", "<", "<=", ">", ">=")


class StaleIndexError(TraceFormatError):
    """The index sidecar does not match the store it sits next to."""


def _index_file(column: str) -> str:
    return "index.%s.npz" % (column,)


# ---------------------------------------------------------------------------
# Sorted-permutation index (numeric columns)
# ---------------------------------------------------------------------------
class SortedColumnIndex:
    """All finite values of one numeric column in ``(value, chunk, row)`` order.

    ``values`` is sorted ascending with ties in store order (chunk, then row)
    — the stable-sort invariant every probe and the top-k path rely on.
    ``chunk_entries[c]`` counts the index entries contributed by chunk ``c``
    (its finite-value density).
    """

    kind = "sorted"

    __slots__ = ("column", "values", "chunks", "rows", "chunk_entries")

    def __init__(self, column: str, values: np.ndarray, chunks: np.ndarray,
                 rows: np.ndarray, chunk_entries: np.ndarray):
        self.column = column
        self.values = np.asarray(values, dtype=np.float64)
        self.chunks = np.asarray(chunks, dtype=np.uint32)
        self.rows = np.asarray(rows, dtype=np.uint32)
        self.chunk_entries = np.asarray(chunk_entries, dtype=np.int64)

    @property
    def entries(self) -> int:
        return int(self.values.shape[0])

    @classmethod
    def build(cls, column: str,
              chunk_values: Iterable[np.ndarray]) -> "SortedColumnIndex":
        """Build from per-chunk value arrays (streamed, one chunk at a time)."""
        index = cls(column, np.zeros(0), np.zeros(0, np.uint32),
                    np.zeros(0, np.uint32), np.zeros(0, np.int64))
        parts = [_sorted_part(chunk, values)
                 for chunk, values in enumerate(chunk_values)]
        return index._merged(parts)

    def extended(self, start_chunk: int,
                 chunk_values: Iterable[np.ndarray]) -> "SortedColumnIndex":
        """A new index covering ``start_chunk..`` appended chunks as well."""
        parts = [_sorted_part(start_chunk + offset, values)
                 for offset, values in enumerate(chunk_values)]
        return self._merged(parts)

    def _merged(self, parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray, int]]
                ) -> "SortedColumnIndex":
        values = np.concatenate([self.values] + [p[0] for p in parts])
        chunks = np.concatenate([self.chunks] + [p[1] for p in parts])
        rows = np.concatenate([self.rows] + [p[2] for p in parts])
        chunk_entries = np.concatenate(
            [self.chunk_entries, np.asarray([p[3] for p in parts], np.int64)])
        # Stable sort: the existing (already sorted) entries precede the new
        # ones in the concatenation and have smaller store positions, and each
        # new part arrives in store order — so ties land in (chunk, row)
        # order without ever materializing a position key.
        order = np.argsort(values, kind="stable")
        return SortedColumnIndex(self.column, values[order], chunks[order],
                                 rows[order], chunk_entries)

    # -- probes ------------------------------------------------------------
    def probe(self, op: str, value: float) -> Optional[Tuple[int, int]]:
        """The contiguous entry run matching ``column <op> value``, or ``None``.

        NaN rows never appear in the index, matching predicate semantics
        (comparisons with NaN are always false).  A NaN *literal* matches
        nothing, so it probes to an empty run.
        """
        if op not in SORTED_PROBE_OPS:
            return None
        try:
            value = float(value)
        except (TypeError, ValueError):
            return None
        if np.isnan(value):
            return (0, 0)
        if op == "==":
            return (int(np.searchsorted(self.values, value, side="left")),
                    int(np.searchsorted(self.values, value, side="right")))
        if op == "<":
            return (0, int(np.searchsorted(self.values, value, side="left")))
        if op == "<=":
            return (0, int(np.searchsorted(self.values, value, side="right")))
        if op == ">":
            return (int(np.searchsorted(self.values, value, side="right")),
                    self.entries)
        return (int(np.searchsorted(self.values, value, side="left")),
                self.entries)

    def count(self, op: str, value: float) -> Optional[int]:
        run = self.probe(op, value)
        return None if run is None else run[1] - run[0]

    def positions(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(chunks, rows)`` of entries ``[lo, hi)`` — value order, not store order."""
        return self.chunks[lo:hi], self.rows[lo:hi]

    def chunk_counts(self, lo: int, hi: int, n_chunks: int) -> np.ndarray:
        """Exact matches per chunk for the run ``[lo, hi)`` (LIMIT density)."""
        return np.bincount(self.chunks[lo:hi], minlength=n_chunks)

    def top_entries(self, k: int, largest: bool) -> np.ndarray:
        """Indices of the top-k entries, tie-broken exactly like the scan path.

        The scan path's heap keeps, among rows tied at the boundary value, the
        ones *latest* in store order.  ``values`` is sorted with ties in store
        order, so the last-k slice already does that for ``largest``; for
        smallest we take every strictly-smaller entry plus the *tail* of the
        boundary tie run.
        """
        k = min(k, self.entries)
        if k <= 0:
            return np.zeros(0, dtype=np.int64)
        if largest:
            return np.arange(self.entries - k, self.entries, dtype=np.int64)
        boundary = self.values[k - 1]
        strict = int(np.searchsorted(self.values, boundary, side="left"))
        tie_end = int(np.searchsorted(self.values, boundary, side="right"))
        need = k - strict
        return np.concatenate([np.arange(strict, dtype=np.int64),
                               np.arange(tie_end - need, tie_end, dtype=np.int64)])

    # -- persistence -------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {"values": self.values, "chunks": self.chunks,
                "rows": self.rows, "chunk_entries": self.chunk_entries}

    @classmethod
    def from_arrays(cls, column: str, data) -> "SortedColumnIndex":
        return cls(column, data["values"], data["chunks"], data["rows"],
                   data["chunk_entries"])

    def stats(self) -> Dict:
        present = int(np.count_nonzero(self.chunk_entries))
        return {"kind": self.kind, "entries": self.entries,
                "chunks_present": present}


def _sorted_part(chunk: int, values: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    rows = np.flatnonzero(finite).astype(np.uint32)
    finite_values = values[finite]
    chunks = np.full(rows.shape[0], chunk, dtype=np.uint32)
    return finite_values, chunks, rows, int(rows.shape[0])


# ---------------------------------------------------------------------------
# Inverted index (dictionary-encoded string columns, v3)
# ---------------------------------------------------------------------------
class InvertedColumnIndex:
    """Postings for one dict-encoded column: code → row ranges per chunk.

    One posting per ``(code, chunk)`` pair that occurs, sorted by code then
    chunk: ``first_rows``/``last_rows`` bound the rows of that chunk carrying
    the code (its *locality*), ``counts`` is the exact match count (its
    *density*).  Codes come from the store dictionary and are append-only, so
    the postings survive appends unchanged.
    """

    kind = "inverted"

    __slots__ = ("column", "codes", "chunks", "first_rows", "last_rows",
                 "counts", "chunk_entries")

    def __init__(self, column: str, codes: np.ndarray, chunks: np.ndarray,
                 first_rows: np.ndarray, last_rows: np.ndarray,
                 counts: np.ndarray, chunk_entries: np.ndarray):
        self.column = column
        self.codes = np.asarray(codes, dtype=np.uint32)
        self.chunks = np.asarray(chunks, dtype=np.uint32)
        self.first_rows = np.asarray(first_rows, dtype=np.uint32)
        self.last_rows = np.asarray(last_rows, dtype=np.uint32)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.chunk_entries = np.asarray(chunk_entries, dtype=np.int64)

    @property
    def entries(self) -> int:
        """Rows covered by postings (== rows of the store for a dict column)."""
        return int(self.counts.sum())

    @property
    def postings(self) -> int:
        return int(self.codes.shape[0])

    @classmethod
    def build(cls, column: str,
              chunk_codes: Iterable[np.ndarray]) -> "InvertedColumnIndex":
        index = cls(column, *(np.zeros(0, np.uint32) for _ in range(4)),
                    np.zeros(0, np.int64), np.zeros(0, np.int64))
        parts = [_posting_part(chunk, codes)
                 for chunk, codes in enumerate(chunk_codes)]
        return index._merged(parts)

    def extended(self, start_chunk: int,
                 chunk_codes: Iterable[np.ndarray]) -> "InvertedColumnIndex":
        parts = [_posting_part(start_chunk + offset, codes)
                 for offset, codes in enumerate(chunk_codes)]
        return self._merged(parts)

    def _merged(self, parts) -> "InvertedColumnIndex":
        codes = np.concatenate([self.codes] + [p[0] for p in parts])
        chunks = np.concatenate([self.chunks] + [p[1] for p in parts])
        first_rows = np.concatenate([self.first_rows] + [p[2] for p in parts])
        last_rows = np.concatenate([self.last_rows] + [p[3] for p in parts])
        counts = np.concatenate([self.counts] + [p[4] for p in parts])
        chunk_entries = np.concatenate(
            [self.chunk_entries, np.asarray([p[5] for p in parts], np.int64)])
        # Stable by code: postings of older (smaller) chunks stay first.
        order = np.argsort(codes, kind="stable")
        return InvertedColumnIndex(self.column, codes[order], chunks[order],
                                   first_rows[order], last_rows[order],
                                   counts[order], chunk_entries)

    # -- probes ------------------------------------------------------------
    def probe_code(self, code: int) -> Tuple[int, int]:
        """The posting run for ``code`` (empty when the code never occurs)."""
        return (int(np.searchsorted(self.codes, np.uint32(code), side="left")),
                int(np.searchsorted(self.codes, np.uint32(code), side="right")))

    def count_code(self, code: int) -> int:
        lo, hi = self.probe_code(code)
        return int(self.counts[lo:hi].sum())

    def chunk_counts_code(self, code: int, n_chunks: int) -> np.ndarray:
        lo, hi = self.probe_code(code)
        return np.bincount(self.chunks[lo:hi], weights=self.counts[lo:hi],
                           minlength=n_chunks).astype(np.int64)

    # -- persistence -------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {"codes": self.codes, "chunks": self.chunks,
                "first_rows": self.first_rows, "last_rows": self.last_rows,
                "counts": self.counts, "chunk_entries": self.chunk_entries}

    @classmethod
    def from_arrays(cls, column: str, data) -> "InvertedColumnIndex":
        return cls(column, data["codes"], data["chunks"], data["first_rows"],
                   data["last_rows"], data["counts"], data["chunk_entries"])

    def stats(self) -> Dict:
        distinct = int(np.unique(self.codes).shape[0]) if self.postings else 0
        return {"kind": self.kind, "entries": self.entries,
                "postings": self.postings, "distinct_codes": distinct,
                "chunks_present": int(np.count_nonzero(self.chunk_entries))}


def _posting_part(chunk: int, codes: np.ndarray):
    codes = np.asarray(codes)
    if codes.shape[0] == 0:
        z32 = np.zeros(0, np.uint32)
        return z32, z32, z32, z32, np.zeros(0, np.int64), 0
    order = np.argsort(codes, kind="stable")  # stable → rows ascend per code
    sorted_codes = codes[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_codes)) + 1])
    ends = np.concatenate([starts[1:], [sorted_codes.shape[0]]])
    unique_codes = sorted_codes[starts].astype(np.uint32)
    first_rows = order[starts].astype(np.uint32)
    last_rows = order[ends - 1].astype(np.uint32)
    counts = (ends - starts).astype(np.int64)
    chunks = np.full(unique_codes.shape[0], chunk, dtype=np.uint32)
    return unique_codes, chunks, first_rows, last_rows, counts, int(codes.shape[0])


# ---------------------------------------------------------------------------
# The sidecar: all of one store's column indexes + the staleness pins
# ---------------------------------------------------------------------------
class StoreIndexes:
    """Handle on a store's index sidecar (lazy per-column array loading)."""

    def __init__(self, directory: str, store_uid: Optional[str],
                 manifest_sequence: int, n_chunks: int, n_rows: int,
                 column_meta: Dict[str, Dict],
                 loaded: Optional[Dict[str, object]] = None):
        self.directory = directory
        self.store_uid = store_uid
        self.manifest_sequence = int(manifest_sequence)
        self.n_chunks = int(n_chunks)
        self.n_rows = int(n_rows)
        #: column -> {"kind": ..., "entries": ..., "file": ...}
        self.column_meta = column_meta
        self._loaded: Dict[str, object] = dict(loaded or {})

    # -- access ------------------------------------------------------------
    @property
    def columns(self) -> List[str]:
        return sorted(self.column_meta)

    def column(self, name: str):
        """The :class:`SortedColumnIndex` / :class:`InvertedColumnIndex`, or ``None``."""
        if name in self._loaded:
            return self._loaded[name]
        meta = self.column_meta.get(name)
        if meta is None:
            return None
        path = os.path.join(self.directory, meta["file"])
        try:
            with np.load(path, allow_pickle=False) as data:
                if meta["kind"] == "sorted":
                    index = SortedColumnIndex.from_arrays(name, data)
                else:
                    index = InvertedColumnIndex.from_arrays(name, data)
        except (IOError, KeyError, ValueError) as exc:
            raise TraceFormatError("%s: cannot read index sidecar %s: %s"
                                   % (self.directory, meta["file"], exc))
        if index.chunk_entries.shape[0] != self.n_chunks:
            raise StaleIndexError(
                "%s: index for %r covers %d chunks but the manifest pins %d"
                % (self.directory, name, index.chunk_entries.shape[0],
                   self.n_chunks))
        self._loaded[name] = index
        return index

    # -- staleness ---------------------------------------------------------
    def stale_reason(self, store) -> Optional[str]:
        """Why this sidecar must not be used with ``store`` (None = fresh)."""
        if self.store_uid != store.store_uid:
            return ("index was built for store_uid %s but the store is %s"
                    % (self.store_uid, store.store_uid))
        if self.manifest_sequence != store.manifest_sequence:
            return ("index pins manifest_sequence %d but the store is at %d"
                    % (self.manifest_sequence, store.manifest_sequence))
        if self.n_chunks != store.n_chunks:
            return ("index covers %d chunks but the store has %d"
                    % (self.n_chunks, store.n_chunks))
        return None

    def verify_fresh(self, store) -> None:
        reason = self.stale_reason(store)
        if reason is not None:
            raise StaleIndexError(
                "%s: stale index sidecar refused (%s); rebuild with "
                "'repro engine index build --store %s'"
                % (store.directory, reason, store.directory))

    # -- persistence -------------------------------------------------------
    def save(self, directory: Optional[str] = None) -> None:
        """Commit crash-safely: array files first, then the pinned manifest
        (one ``durable_replace``; the generator holds one column at a time)."""
        directory = directory or self.directory

        def files():
            for name in self.columns:
                buffer = io.BytesIO()
                np.savez(buffer, **self.column(name).arrays())
                yield os.path.join(directory, _index_file(name)), buffer.getvalue()
            manifest = {
                "index_format_version": INDEX_FORMAT_VERSION,
                "store_uid": self.store_uid,
                "manifest_sequence": self.manifest_sequence,
                "n_chunks": self.n_chunks,
                "n_rows": self.n_rows,
                "columns": {name: dict(self.column_meta[name], **self.column(name).stats())
                            for name in self.columns},
            }
            payload = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
            yield os.path.join(directory, INDEX_MANIFEST_NAME), payload

        durable_replace(files())

    def sizes(self) -> Dict[str, int]:
        """On-disk sidecar bytes per indexed column (``engine info --sizes``)."""
        sizes: Dict[str, int] = {}
        for name, meta in self.column_meta.items():
            path = os.path.join(self.directory, meta["file"])
            sizes[name] = os.path.getsize(path) if os.path.isfile(path) else 0
        return sizes

    def info(self, store=None) -> Dict:
        """Summary for ``store.info()['indexes']`` and the service catalog."""
        summary = {
            "manifest_sequence": self.manifest_sequence,
            "n_chunks": self.n_chunks,
            "n_rows": self.n_rows,
            "columns": {name: dict(self.column_meta[name])
                        for name in self.columns},
            "on_disk_bytes": int(sum(self.sizes().values())),
        }
        if store is not None:
            reason = self.stale_reason(store)
            summary["fresh"] = reason is None
            if reason is not None:
                summary["stale_reason"] = reason
        return summary

    # -- building / extending ----------------------------------------------
    def extend(self, store, columns: Optional[Sequence[str]] = None) -> "StoreIndexes":
        """Fold the chunks appended since this index was built into it.

        Reads **only** chunks ``self.n_chunks..store.n_chunks`` — never the
        already-indexed ones — and returns a fresh sidecar pinned to the
        store's current ``manifest_sequence``.  Raises :class:`StaleIndexError`
        when the sidecar does not describe an older state of *this* store
        (uid mismatch, or the chunk history was rewritten).
        """
        if self.store_uid != store.store_uid:
            raise StaleIndexError(
                "%s: index was built for store_uid %s, not %s — rebuild it"
                % (store.directory, self.store_uid, store.store_uid))
        if self.n_chunks > store.n_chunks:
            raise StaleIndexError(
                "%s: index covers %d chunks but the store now has %d — the "
                "store was rewritten; rebuild the index"
                % (store.directory, self.n_chunks, store.n_chunks))
        targets = list(columns) if columns is not None else self.columns
        new_chunks = range(self.n_chunks, store.n_chunks)
        per_column: Dict[str, List[np.ndarray]] = {name: [] for name in targets}
        for chunk in new_chunks:
            block = store.read_chunk(chunk, columns=targets)
            for name in targets:
                per_column[name].append(_column_payload(block, name,
                                                        self.column(name).kind))
        loaded = {}
        meta = {}
        for name in targets:
            index = self.column(name).extended(self.n_chunks, per_column[name])
            loaded[name] = index
            meta[name] = {"kind": index.kind, "file": _index_file(name)}
        return StoreIndexes(store.directory, store.store_uid,
                            store.manifest_sequence, store.n_chunks,
                            store.n_jobs, meta, loaded)


def _column_payload(block, name: str, kind: str) -> np.ndarray:
    if kind == "sorted":
        return np.asarray(block.column(name), dtype=np.float64)
    pair = block.codes_for(name)
    if pair is None:
        raise TraceFormatError(
            "column %r is not dictionary-encoded in this chunk; the inverted "
            "index only covers v3 dict-encoded string columns" % (name,))
    return pair[0]


def indexable_columns(store) -> Dict[str, str]:
    """column -> index kind for every column of ``store`` that can be indexed.

    Numeric columns get a sorted-permutation index in every store format;
    string columns get an inverted index only when dictionary-encoded (v3) —
    raw string columns have no stable code space to post against.
    """
    kinds: Dict[str, str] = {}
    for name in store.columns:
        if name in NUMERIC_COLUMNS:
            kinds[name] = "sorted"
        elif getattr(store, "string_encodings", {}).get(name) == "dict":
            kinds[name] = "inverted"
    return kinds


def build_indexes(store, columns: Optional[Sequence[str]] = None) -> StoreIndexes:
    """Build (or rebuild) index structures for ``store``, streamed chunk-at-a-time.

    ``columns`` defaults to every indexable column.  Only the requested
    columns are decoded per chunk; per-chunk partial structures are merged at
    the end, so peak memory is the finished index itself (~16 bytes/row per
    numeric column), never the decoded store.
    """
    kinds = indexable_columns(store)
    if columns is None:
        targets = sorted(kinds)
    else:
        targets = []
        for name in columns:
            if name not in kinds:
                raise TraceFormatError(
                    "store %s cannot index column %r (indexable: %s)"
                    % (store.directory, name, ", ".join(sorted(kinds)) or "none"))
            if name not in targets:
                targets.append(name)
    per_column: Dict[str, List[np.ndarray]] = {name: [] for name in targets}
    for chunk in range(store.n_chunks):
        block = store.read_chunk(chunk, columns=targets)
        for name in targets:
            per_column[name].append(_column_payload(block, name, kinds[name]))
    loaded: Dict[str, object] = {}
    meta: Dict[str, Dict] = {}
    for name in targets:
        if kinds[name] == "sorted":
            index: object = SortedColumnIndex.build(name, per_column[name])
        else:
            index = InvertedColumnIndex.build(name, per_column[name])
        loaded[name] = index
        meta[name] = {"kind": kinds[name], "file": _index_file(name)}
    return StoreIndexes(store.directory, store.store_uid,
                        store.manifest_sequence, store.n_chunks, store.n_jobs,
                        meta, loaded)


def load_indexes(store, strict: bool = False) -> Optional[StoreIndexes]:
    """Load the index sidecar of ``store``; ``None`` when there is none.

    ``strict=True`` additionally enforces freshness (raises
    :class:`StaleIndexError` when the pins moved).  With ``strict=False`` a
    stale sidecar is still *returned* — callers consult
    :meth:`StoreIndexes.stale_reason` and must not probe a stale one.
    """
    path = os.path.join(store.directory, INDEX_MANIFEST_NAME)
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TraceFormatError("%s: invalid index manifest: %s" % (path, exc))
    version = manifest.get("index_format_version")
    if version != INDEX_FORMAT_VERSION:
        raise TraceFormatError("%s: unsupported index format version %r"
                               % (path, version))
    indexes = StoreIndexes(
        store.directory, manifest.get("store_uid"),
        int(manifest.get("manifest_sequence", -1)),
        int(manifest.get("n_chunks", -1)), int(manifest.get("n_rows", 0)),
        {name: dict(meta) for name, meta in manifest.get("columns", {}).items()})
    if strict:
        indexes.verify_fresh(store)
    return indexes


def cached_indexes(store) -> Optional[StoreIndexes]:
    """Per-handle cache around :func:`load_indexes` (planner hot path).

    Keyed on the sidecar manifest's mtime, so a rebuild/extension through any
    code path invalidates the cache even on a long-lived handle.
    """
    path = os.path.join(store.directory, INDEX_MANIFEST_NAME)
    try:
        key = os.stat(path).st_mtime_ns
    except OSError:
        key = None
    cache = getattr(store, "_index_cache", None)
    if cache is not None and cache[0] == key:
        return cache[1]
    indexes = load_indexes(store) if key is not None else None
    store._index_cache = (key, indexes)
    return indexes


def extend_indexes(store, previous_chunks: int) -> Optional[StoreIndexes]:
    """Post-append hook: extend an existing sidecar over the new chunks.

    Called by :class:`~repro.engine.store.StoreAppender` after the manifest
    swap.  No sidecar → no-op.  A sidecar that was *already* stale before the
    append (it does not describe exactly the pre-append store) is left
    untouched: extending it could bake wrong entries in, and the staleness
    check refuses it loudly at query time instead.
    """
    indexes = load_indexes(store)
    if indexes is None:
        return None
    if (indexes.store_uid != store.store_uid
            or indexes.n_chunks != previous_chunks
            or indexes.manifest_sequence != store.manifest_sequence - 1):
        return None
    extended = indexes.extend(store)
    extended.save()
    return extended


def drop_indexes(store) -> int:
    """Delete the sidecar (manifest first, so readers never see a torn state)."""
    removed = 0
    manifest = os.path.join(store.directory, INDEX_MANIFEST_NAME)
    indexes = load_indexes(store)
    if os.path.isfile(manifest):
        os.remove(manifest)
        removed += 1
    if indexes is not None:
        for meta in indexes.column_meta.values():
            path = os.path.join(store.directory, meta["file"])
            if os.path.isfile(path):
                os.remove(path)
                removed += 1
    return removed
