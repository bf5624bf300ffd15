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

**Sidecar layout.**  ``index.json`` (the index manifest) plus, per indexed
column, one base file ``index.<column>.npz`` and zero or more immutable
*runs* ``index.<column>.run-<manifest_sequence>.npz``.  A run has the base's
array layout but covers only the chunks one append added (absolute chunk
numbers, its own ``chunk_entries``); ``index.json`` lists each column's runs
in store order under ``runs``, a key that is absent when there are none, so a
freshly built sidecar has no runs and the same bytes it always had.  Every
write commits through the store's own seam,
:func:`~repro.engine.codecs.durable_replace`: every temporary is fsynced,
then the array files are renamed into place and ``index.json`` last.

**Staleness contract.**  The index manifest pins ``store_uid``,
``manifest_sequence`` and ``n_chunks``.  :func:`load_indexes` refuses a
sidecar whose pins do not match the open store (``strict=True`` raises
:class:`StaleIndexError`; the planner uses ``strict=False`` and falls back to
the scan path, flagging the stale sidecar in the emitted plan so the CLI can
warn loudly).  A stale index is therefore *never silently consulted*.  The
base and the runs must tile ``[0, n_chunks)`` exactly, or reading the column
raises :class:`StaleIndexError`; an unreadable file raises
:class:`~repro.errors.TraceFormatError`.

**Appends.**  :class:`~repro.engine.store.StoreAppender` calls
:func:`extend_indexes` after a committed append.  It reads **only the
appended chunks**, sorts them into one run per column and writes those runs
plus ``index.json`` — it never opens, re-sorts or rewrites the base, so an
append costs what its chunks cost, not what the store costs (the idea of
Polynesia's update-friendly delta beside a read-optimised main).  Readers pay
instead: :meth:`StoreIndexes.column` merges base + runs **linearly** on a
handle's first access (one ``searchsorted`` + insert pass, no full
``argsort``) into exactly the arrays a rebuild would produce, so the planner,
probes, top-k and LIMIT still see one index.  That pass grows with the run
count, so a column holds at most :data:`INDEX_MAX_RUNS` runs counting the
base: the append that would add one more *compacts* instead — it merges in
memory, writes new base files through :meth:`StoreIndexes.save` and then
unlinks the old runs.  One append in :data:`INDEX_MAX_RUNS` pays that
compaction — more than the old whole-sidecar rewrite, since it also reads
every run — and the others write one small run per column, so the mean
append over a long series costs a bit over half what it did (numbers in
docs/engine.md, "Secondary indexes & planning").

**Crash states.**  A crash before ``index.json`` is renamed leaves it pinned
to the previous ``manifest_sequence`` — stale, refused, rebuilt by ``engine
index build`` — plus run files nothing names, which the next
:meth:`StoreIndexes.save` deletes.  A crash during compaction can leave new
base files under the old ``index.json``; their chunk counts no longer tile
with the old runs, so they are refused the same way.  Never a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import zipfile
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TraceFormatError
from .codecs import durable_replace
from .columnar import NUMERIC_COLUMNS

__all__ = [
    "INDEX_MANIFEST_NAME",
    "INDEX_FORMAT_VERSION",
    "INDEX_MAX_RUNS",
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

#: Most sorted runs one indexed column may have, counting the base.  Reading
#: a column merges them all on a handle's first access, and the append that
#: would add run ``INDEX_MAX_RUNS + 1`` compacts instead, so one append in
#: ``INDEX_MAX_RUNS`` rewrites the base.
INDEX_MAX_RUNS = 8

#: Predicate ops a sorted-permutation index can resolve to one contiguous run.
SORTED_PROBE_OPS = ("==", "<", "<=", ">", ">=")

#: Per-column stats that add up across runs (their chunks are disjoint).
_ADDITIVE_STATS = ("entries", "postings", "chunks_present")


class StaleIndexError(TraceFormatError):
    """The index sidecar does not match the store it sits next to."""


def _index_file(column: str) -> str:
    return "index.%s.npz" % (column,)


def _run_file(column: str, manifest_sequence: int) -> str:
    return "index.%s.run-%d.npz" % (column, manifest_sequence)


# ---------------------------------------------------------------------------
# What the two index kinds share: sorted parallel arrays + per-chunk counts
# ---------------------------------------------------------------------------
class _ColumnIndex:
    """Parallel entry arrays sorted by ``FIELDS[0]`` with ties in store order.

    Subclasses name their arrays in ``FIELDS`` (the constructor takes them in
    that order, then ``chunk_entries``) and say how one chunk becomes entries
    (``_part``).  ``chunk_entries[c]`` counts the entries chunk ``c`` of the
    index contributed.
    """

    __slots__ = ()
    FIELDS: Tuple[str, ...] = ()

    @classmethod
    def build(cls, column: str, chunk_payloads: Iterable[np.ndarray]):
        """Build from per-chunk arrays (streamed, one chunk at a time)."""
        return cls._run(column, 0, chunk_payloads)

    def extended(self, start_chunk: int, chunk_payloads: Iterable[np.ndarray]):
        """A new index covering ``start_chunk..`` appended chunks as well."""
        return self._merged([self._run(self.column, start_chunk, chunk_payloads)])

    @classmethod
    def _run(cls, column: str, first_chunk: int, chunk_payloads: Iterable[np.ndarray]):
        """One sorted run over consecutive chunks numbered from ``first_chunk``."""
        parts = [cls._part(first_chunk + offset, payload)
                 for offset, payload in enumerate(chunk_payloads)]
        if not parts:
            return cls(column, *(np.zeros(0) for _ in cls.FIELDS), np.zeros(0, np.int64))
        arrays = [np.concatenate([part[i] for part in parts])
                  for i in range(len(cls.FIELDS))]
        # Stable sort: the parts arrive in store order, each with its rows
        # ascending, so ties land in (chunk, row) order without ever
        # materializing a position key.
        order = np.argsort(arrays[0], kind="stable")
        return cls(column, *(array[order] for array in arrays),
                   np.asarray([part[-1] for part in parts], np.int64))

    def _merged(self, runs: Sequence["_ColumnIndex"]):
        """This index followed by ``runs`` (later chunks, in store order).

        One linear pass, no re-sort of ``self``: a stable sort of the runs'
        concatenation keeps their ties in store order, and each run entry is
        inserted after every equal key of ``self`` (``side="right"``), whose
        store positions are all smaller — so the result equals :meth:`build`
        over all the chunks bit for bit.
        """
        if not runs:
            return self
        base = [getattr(self, name) for name in self.FIELDS]
        delta = [np.concatenate([getattr(run, name) for run in runs])
                 for name in self.FIELDS]
        order = np.argsort(delta[0], kind="stable")
        at = np.searchsorted(base[0], delta[0][order], side="right")
        at += np.arange(order.shape[0])  # the run entries' merged positions
        from_base = np.ones(base[0].shape[0] + order.shape[0], dtype=bool)
        from_base[at] = False
        arrays = []
        for old, new in zip(base, delta):
            out = np.empty(from_base.shape[0], dtype=old.dtype)
            out[from_base] = old
            out[at] = new[order]
            arrays.append(out)
        chunk_entries = np.concatenate([self.chunk_entries]
                                       + [run.chunk_entries for run in runs])
        return type(self)(self.column, *arrays, chunk_entries)

    # -- persistence -------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.FIELDS + ("chunk_entries",)}

    @classmethod
    def from_arrays(cls, column: str, data):
        return cls(column, *(data[name] for name in cls.FIELDS + ("chunk_entries",)))

    def _npz(self) -> bytes:
        """The ``.npz`` payload of this index (base and runs alike)."""
        buffer = io.BytesIO()
        np.savez(buffer, **self.arrays())
        return buffer.getvalue()


# ---------------------------------------------------------------------------
# Sorted-permutation index (numeric columns)
# ---------------------------------------------------------------------------
def _sorted_part(chunk: int, values: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    rows = np.flatnonzero(finite).astype(np.uint32)
    finite_values = values[finite]
    chunks = np.full(rows.shape[0], chunk, dtype=np.uint32)
    return finite_values, chunks, rows, int(rows.shape[0])


class SortedColumnIndex(_ColumnIndex):
    """All finite values of one numeric column in ``(value, chunk, row)`` order.

    ``values`` is sorted ascending with ties in store order (chunk, then row)
    — the stable-sort invariant every probe and the top-k path rely on.
    ``chunk_entries[c]`` counts the index entries contributed by chunk ``c``
    (its finite-value density).
    """

    kind = "sorted"
    FIELDS = ("values", "chunks", "rows")
    _part = staticmethod(_sorted_part)

    __slots__ = ("column", "values", "chunks", "rows", "chunk_entries",
                 "_chunk_keys")

    def __init__(self, column: str, values: np.ndarray, chunks: np.ndarray,
                 rows: np.ndarray, chunk_entries: np.ndarray):
        self.column = column
        self.values = np.asarray(values, dtype=np.float64)
        self.chunks = np.asarray(chunks, dtype=np.uint32)
        self.rows = np.asarray(rows, dtype=np.uint32)
        self.chunk_entries = np.asarray(chunk_entries, dtype=np.int64)
        #: ``chunk * entries + entry`` for every entry, ascending (built by
        #: the first :meth:`chunk_counts`; 8 bytes per entry).
        self._chunk_keys: Optional[np.ndarray] = None

    @property
    def entries(self) -> int:
        return int(self.values.shape[0])

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
        """Exact matches per chunk ``0..n_chunks-1`` for the run ``[lo, hi)``
        (LIMIT density).

        Two ``searchsorted`` calls per chunk on the chunk key table, so a
        probe costs O(n_chunks · log entries) whatever the run's length.
        """
        keys = self._chunk_keys
        if keys is None:
            order = np.argsort(self.chunks, kind="stable")
            keys = self.chunks[order].astype(np.int64)
            keys *= self.entries  # in place, to bound the build's peak memory
            keys += order
            self._chunk_keys = keys
        base = np.arange(n_chunks, dtype=np.int64) * self.entries
        return (np.searchsorted(keys, base + hi, side="left")
                - np.searchsorted(keys, base + lo, side="left"))

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

    def stats(self) -> Dict:
        present = int(np.count_nonzero(self.chunk_entries))
        return {"kind": self.kind, "entries": self.entries,
                "chunks_present": present}


# ---------------------------------------------------------------------------
# Inverted index (dictionary-encoded string columns, v3)
# ---------------------------------------------------------------------------
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


class InvertedColumnIndex(_ColumnIndex):
    """Postings for one dict-encoded column: code → row ranges per chunk.

    One posting per ``(code, chunk)`` pair that occurs, sorted by code then
    chunk: ``first_rows``/``last_rows`` bound the rows of that chunk carrying
    the code (its *locality*), ``counts`` is the exact match count (its
    *density*).  Codes come from the store dictionary and are append-only, so
    the postings survive appends unchanged.
    """

    kind = "inverted"
    FIELDS = ("codes", "chunks", "first_rows", "last_rows", "counts")
    _part = staticmethod(_posting_part)

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

    def stats(self) -> Dict:
        distinct = int(np.unique(self.codes).shape[0]) if self.postings else 0
        return {"kind": self.kind, "entries": self.entries,
                "postings": self.postings, "distinct_codes": distinct,
                "chunks_present": int(np.count_nonzero(self.chunk_entries))}


_INDEX_KINDS = {cls.kind: cls for cls in (SortedColumnIndex, InvertedColumnIndex)}


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
        #: column -> {"kind": ..., "file": ..., stats..., "runs": [...]}
        self.column_meta = column_meta
        self._loaded: Dict[str, object] = dict(loaded or {})

    # -- access ------------------------------------------------------------
    @property
    def columns(self) -> List[str]:
        return sorted(self.column_meta)

    def column(self, name: str):
        """The :class:`SortedColumnIndex` / :class:`InvertedColumnIndex`, or ``None``.

        The base file and the column's runs are read and merged linearly into
        one index the first time this handle is asked for the column.
        """
        if name in self._loaded:
            return self._loaded[name]
        meta = self.column_meta.get(name)
        if meta is None:
            return None
        runs = meta.get("runs", [])
        base, *parts = [self._read(name, meta["kind"], entry["file"])
                        for entry in [meta] + runs]
        covered = base.chunk_entries.shape[0]
        for entry, part in zip(runs, parts):
            if entry.get("first_chunk") != covered:
                raise StaleIndexError(
                    "%s: index run %s for %r starts at chunk %r, not %d"
                    % (self.directory, entry["file"], name,
                       entry.get("first_chunk"), covered))
            covered += part.chunk_entries.shape[0]
        if covered != self.n_chunks:
            raise StaleIndexError(
                "%s: index for %r covers %d chunks but the manifest pins %d"
                % (self.directory, name, covered, self.n_chunks))
        index = base._merged(parts)
        self._loaded[name] = index
        return index

    def _read(self, name: str, kind: str, file_name: str):
        try:
            with np.load(os.path.join(self.directory, file_name),
                         allow_pickle=False) as data:
                return _INDEX_KINDS[kind].from_arrays(name, data)
        except (OSError, KeyError, ValueError, EOFError, NotImplementedError,
                zipfile.BadZipFile, zlib.error) as exc:
            raise TraceFormatError("%s: cannot read index sidecar %s: %s"
                                   % (self.directory, file_name, exc))

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
        """Commit every column as one base file, no runs, crash-safely.

        Array files first, then the pinned manifest (one ``durable_replace``;
        the generator holds one column at a time).  Once ``index.json`` has
        landed, every ``index.*.npz`` it does not name — the runs it just
        absorbed, columns no longer indexed, leftovers of a crashed append —
        is unlinked.
        """
        directory = directory or self.directory
        columns: Dict[str, Dict] = {}

        def files():
            for name in self.columns:
                index = self.column(name)
                yield os.path.join(directory, _index_file(name)), index._npz()
                meta = dict(self.column_meta[name], **index.stats())
                meta.pop("runs", None)
                columns[name] = meta
            yield os.path.join(directory, INDEX_MANIFEST_NAME), self._manifest(columns)

        durable_replace(files())
        named = {meta["file"] for meta in columns.values()}
        for file_name in os.listdir(directory):
            if (file_name.startswith("index.") and file_name.endswith(".npz")
                    and file_name not in named):
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(directory, file_name))

    def _manifest(self, columns: Dict[str, Dict]) -> bytes:
        manifest = {
            "index_format_version": INDEX_FORMAT_VERSION,
            "store_uid": self.store_uid,
            "manifest_sequence": self.manifest_sequence,
            "n_chunks": self.n_chunks,
            "n_rows": self.n_rows,
            "columns": columns,
        }
        return (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()

    def _files(self, name: str) -> List[str]:
        meta = self.column_meta[name]
        return [meta["file"]] + [run["file"] for run in meta.get("runs", [])]

    def sizes(self) -> Dict[str, int]:
        """On-disk sidecar bytes per indexed column, runs included
        (``engine info --sizes``)."""
        sizes: Dict[str, int] = {}
        for name in self.column_meta:
            paths = [os.path.join(self.directory, file_name)
                     for file_name in self._files(name)]
            sizes[name] = sum(os.path.getsize(path) for path in paths
                              if os.path.isfile(path))
        return sizes

    def info(self, store=None) -> Dict:
        """Summary for ``store.info()['indexes']`` and the service catalog.

        Each column reports ``runs``, its sorted-run count counting the base.
        ``distinct_codes`` does not add up across runs, so it is reported
        only while a column has one run (again after the next build or
        compaction).
        """
        columns = {}
        for name in self.columns:
            meta = dict(self.column_meta[name])
            meta["runs"] = 1 + len(meta.get("runs", []))
            columns[name] = meta
        summary = {
            "manifest_sequence": self.manifest_sequence,
            "n_chunks": self.n_chunks,
            "n_rows": self.n_rows,
            "columns": columns,
            "on_disk_bytes": int(sum(self.sizes().values())),
        }
        if store is not None:
            reason = self.stale_reason(store)
            summary["fresh"] = reason is None
            if reason is not None:
                summary["stale_reason"] = reason
        return summary

    # -- building / extending ----------------------------------------------
    def _appended_runs(self, store, columns: Sequence[str]) -> Dict[str, object]:
        """One sorted run per column over the chunks appended since this
        sidecar was built — reads those chunks only, never a base file."""
        if self.store_uid != store.store_uid:
            raise StaleIndexError(
                "%s: index was built for store_uid %s, not %s — rebuild it"
                % (store.directory, self.store_uid, store.store_uid))
        if self.n_chunks > store.n_chunks:
            raise StaleIndexError(
                "%s: index covers %d chunks but the store now has %d — the "
                "store was rewritten; rebuild the index"
                % (store.directory, self.n_chunks, store.n_chunks))
        kinds = {name: self.column_meta[name]["kind"] for name in columns}
        payloads: Dict[str, List[np.ndarray]] = {name: [] for name in columns}
        for chunk in range(self.n_chunks, store.n_chunks):
            block = store.read_chunk(chunk, columns=list(columns))
            for name in columns:
                payloads[name].append(_column_payload(block, name, kinds[name]))
        return {name: _INDEX_KINDS[kinds[name]]._run(name, self.n_chunks, payloads[name])
                for name in columns}

    def extend(self, store, columns: Optional[Sequence[str]] = None) -> "StoreIndexes":
        """Fold the chunks appended since this index was built into it.

        Reads **only** chunks ``self.n_chunks..store.n_chunks`` — never the
        already-indexed ones — and returns a fresh in-memory sidecar (one
        merged index per column, no runs) pinned to the store's current
        ``manifest_sequence``.  Raises :class:`StaleIndexError` when the
        sidecar does not describe an older state of *this* store (uid
        mismatch, or the chunk history was rewritten).
        """
        targets = list(columns) if columns is not None else self.columns
        runs = self._appended_runs(store, targets)
        loaded = {name: self.column(name)._merged([run]) for name, run in runs.items()}
        meta = {name: {"kind": index.kind, "file": _index_file(name)}
                for name, index in loaded.items()}
        return StoreIndexes(store.directory, store.store_uid,
                            store.manifest_sequence, store.n_chunks,
                            store.n_jobs, meta, loaded)

    def _append_run(self, store) -> "StoreIndexes":
        """Write one run per column for the appended chunks, then ``index.json``
        pinned to the store (one ``durable_replace``; the base is untouched)."""
        runs = self._appended_runs(store, self.columns)
        columns: Dict[str, Dict] = {}
        for name, run in runs.items():
            meta = dict(self.column_meta[name])
            stats = run.stats()
            for key in _ADDITIVE_STATS:
                if key in stats:
                    meta[key] = meta.get(key, 0) + stats[key]
            meta.pop("distinct_codes", None)
            meta["runs"] = meta.get("runs", []) + [
                {"file": _run_file(name, store.manifest_sequence),
                 "first_chunk": self.n_chunks}]
            columns[name] = meta
        extended = StoreIndexes(store.directory, store.store_uid,
                                store.manifest_sequence, store.n_chunks,
                                store.n_jobs, columns)
        durable_replace(
            [(os.path.join(store.directory, columns[name]["runs"][-1]["file"]),
              run._npz()) for name, run in runs.items()]
            + [(os.path.join(store.directory, INDEX_MANIFEST_NAME),
                extended._manifest(columns))])
        return extended


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
        loaded[name] = _INDEX_KINDS[kinds[name]].build(name, per_column[name])
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
    """Post-append hook: cover the new chunks with one more run per column.

    Called by :class:`~repro.engine.store.StoreAppender` after the manifest
    swap.  No sidecar → no-op.  A sidecar that was *already* stale before the
    append (it does not describe exactly the pre-append store) is left
    untouched: extending it could bake wrong entries in, and the staleness
    check refuses it loudly at query time instead.  When the new run would
    exceed :data:`INDEX_MAX_RUNS`, the column is compacted instead: merged
    in memory and saved as one base file.
    """
    indexes = load_indexes(store)
    if indexes is None:
        return None
    if (indexes.store_uid != store.store_uid
            or indexes.n_chunks != previous_chunks
            or indexes.manifest_sequence != store.manifest_sequence - 1):
        return None
    runs = 1 + max((len(meta.get("runs", [])) for meta in indexes.column_meta.values()),
                   default=0)
    if runs < INDEX_MAX_RUNS:
        return indexes._append_run(store)
    compacted = indexes.extend(store)
    compacted.save()
    return compacted


def drop_indexes(store) -> int:
    """Delete the sidecar (manifest first, so readers never see a torn state)."""
    removed = 0
    manifest = os.path.join(store.directory, INDEX_MANIFEST_NAME)
    indexes = load_indexes(store)
    if os.path.isfile(manifest):
        os.remove(manifest)
        removed += 1
    if indexes is not None:
        for name in indexes.column_meta:
            for file_name in indexes._files(name):
                path = os.path.join(store.directory, file_name)
                if os.path.isfile(path):
                    os.remove(path)
                    removed += 1
    return removed
