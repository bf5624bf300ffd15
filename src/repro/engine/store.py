"""Chunked on-disk columnar trace store.

A store is a directory holding a JSON manifest, a dictionary sidecar and one
*compressed block* (``.bin``) per column per chunk of rows (manifest
``format_version`` 3)::

    store/
      manifest.json
      dictionary.json
      chunk-00000.submit_time_s.bin
      chunk-00000.input_bytes.bin
      ...

Numeric columns compress through a pluggable codec registry (stdlib
``zlib``/``lzma``; ``zstd``/``lz4`` auto-register when importable) with
``submit_time_s`` delta-encoded via exact uint64 bit differences.
Low-cardinality string columns are **dictionary-encoded**: chunks store
``uint32`` codes and the per-store value tables live in the
``dictionary.json`` sidecar.  The dictionary only ever grows (appends add
codes, never renumber), so open handles and resume checkpoints survive an
append.  ``read_chunk`` returns the codes *as codes* (see
:meth:`~repro.engine.columnar.ColumnBlock.codes_for`) — scan consumers fold
over integers and strings materialize lazily only when truly needed.
High-cardinality columns (``job_id``) skip the dictionary and store
compressed fixed-width text instead; the choice is made per column on first
appearance and recorded in the manifest's ``string_encodings``.  Every column
read goes through the decoded-block cache (:mod:`repro.engine.blockcache`):
keyed by the file's identity, so it needs no invalidation (committed chunk
files never change, appends add files), filled only by the planner's
index-backed reads.

**Legacy stores.**  Manifests of format v1 (one compressed ``.npz`` per
chunk) and v2 (one raw ``.npy`` per column per chunk) no longer open: v3 is
smaller on disk than v1 and scans faster than v2, so it is the only layout.
``repro engine convert --store OLD --output NEW`` migrates such a store; the
private :class:`_LegacyStore` reader behind it is the only code that knows
the old layouts.

The manifest records the column set, per-chunk row counts and per-chunk
min/max **zone maps** for every numeric column, so a filtered scan can skip
whole chunks whose value range cannot match a predicate (the classic columnar
small-materialized-aggregates trick; see the NeedleTail / Polynesia discussion
in PAPERS.md).  Zone maps for the derived ``submit_hour`` column are resolved
from the stored ``submit_time_s`` zones on the fly.

The writer consumes any iterable of jobs, so a trace can be converted to
columnar form without ever holding more than one chunk of jobs in memory; a
trace *file* (:func:`repro.traces.io.iter_trace`) skips the ``Job`` objects
altogether and decodes batches of parsed records straight into columns
(:func:`repro.engine.columnar.decode_records`).  Readers are
equally lazy: :meth:`ChunkedTraceStore.iter_chunks` loads one chunk (and only
the requested columns) at a time.

**Appending.**  :meth:`ChunkedTraceStore.open_append` (the ``repro engine
ingest`` CLI) adds new chunks — with zone maps — to an existing store without
rewriting the old ones.  Writes and appends commit through one sequence
(:func:`_commit_chunks`): chunk files, then the dictionary, then the
manifest, the last two replaced durably and atomically
(:func:`~repro.engine.codecs.durable_replace`).  A reader (or a crash)
mid-append therefore always sees a coherent store — either the old manifest
or the new one, never a torn state; a write or append that raises unlinks the
files it wrote, and files orphaned by a hard crash are never read, because
which columns a chunk has is decided from the manifest, not from which files
exist.  A write into a directory that already holds a store leaves the old
store's files alone until its own are written, so a failed write leaves the
old store answering as before (or, failing at the very end, not opening at
all) — never answering with the failed write's data.
Every committed append bumps the manifest's ``manifest_sequence`` counter, so
downstream consumers (the characterization :class:`~repro.engine.pipeline.Checkpoint`)
can tell "the store grew" apart from "the store was rewritten".
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import uuid
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TraceFormatError
from ..traces.io import RecordSource, _batches
from ..traces.schema import Job
from ..traces.trace import Trace
from .blockcache import read_block
from .codecs import (
    DEFAULT_CODEC,
    DICTIONARY_NAME,
    StoreDictionary,
    available_codecs,
    durable_replace,
    pack_block,
    read_block_header,
)
from .columnar import (
    ALL_COLUMNS,
    DEFAULT_CHUNK_ROWS,
    NUMERIC_COLUMNS,
    ColumnBlock,
    ColumnarTrace,
    _append_job,
    _block_to_jobs,
    _column_blocks,
    _in_submit_order,
)

__all__ = ["ChunkedTraceStore", "StoreAppender", "write_store", "append_store"]

MANIFEST_NAME = "manifest.json"
#: The manifest ``format_version`` of every store this module writes and opens.
_FORMAT_VERSION = 3
#: Manifest versions that only ``repro engine convert --store`` still reads.
_LEGACY_VERSIONS = (1, 2)

#: Dictionary-encode a string column when its first non-empty chunk has at
#: most this many distinct values (or 1/4 of the rows, whichever is larger) —
#: otherwise (``job_id``-like, unique per row) store compressed raw text.
DICTIONARY_MAX_DISTINCT = 1024


class _ChunkMeta:
    """Manifest entry for one chunk: file prefix, row count, zone maps."""

    __slots__ = ("file", "rows", "zones")

    def __init__(self, file: str, rows: int, zones: Dict[str, List[float]]):
        #: Per-chunk file prefix (column files are ``<prefix>.<column>.bin``).
        self.file = file
        self.rows = rows
        #: column -> [min, max] over finite values (absent if none are finite).
        self.zones = zones

    def to_json(self) -> Dict:
        return {"file": self.file, "rows": self.rows, "zones": self.zones}

    @classmethod
    def from_json(cls, data: Dict) -> "_ChunkMeta":
        return cls(file=str(data["file"]), rows=int(data["rows"]),
                   zones={k: [float(v[0]), float(v[1])] for k, v in data.get("zones", {}).items()})


def _load_manifest(directory: str) -> Tuple[Dict, List[_ChunkMeta]]:
    """Parse ``manifest.json``; any damage to its shape is a :class:`TraceFormatError`."""
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.isfile(path):
        raise TraceFormatError("%s: not a chunked trace store (no %s)"
                               % (directory, MANIFEST_NAME))
    with open(path, "r", encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TraceFormatError("%s: invalid manifest: %s" % (path, exc))
    if not (isinstance(manifest, dict) and isinstance(manifest.get("chunks"), list)
            and isinstance(manifest.get("columns"), list)):
        raise TraceFormatError("%s: invalid manifest: expected an object with "
                               "'chunks' and 'columns' lists" % (path,))
    try:
        chunks = [_ChunkMeta.from_json(entry) for entry in manifest["chunks"]]
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise TraceFormatError("%s: invalid chunk entry in manifest: %r" % (path, exc))
    return manifest, chunks


def _zone_maps(columns: Dict[str, np.ndarray]) -> Dict[str, List[float]]:
    zones: Dict[str, List[float]] = {}
    for name in NUMERIC_COLUMNS:
        array = columns.get(name)
        if array is None or array.size == 0:
            continue
        finite = array[np.isfinite(array)]
        if finite.size:
            zones[name] = [float(finite.min()), float(finite.max())]
    return zones


def _only_v3(version) -> None:
    """Refuse a requested layout other than v3 (``format_version`` survives
    as a write argument only for callers that pin it)."""
    if version != _FORMAT_VERSION:
        raise TraceFormatError(
            "store format v%s is no longer written: every store is format v3 "
            "(migrate a legacy store with: repro engine convert --store OLD "
            "--output NEW)" % (version,))


class ChunkedTraceStore:
    """Handle on an on-disk chunked columnar trace.

    Open an existing store with ``ChunkedTraceStore(directory)``; create one
    with :meth:`write`.  The handle itself holds only the manifest and the
    string dictionary — chunk data is read lazily, one chunk at a time.

    Raises:
        TraceFormatError: when the manifest or dictionary is missing or
            damaged, or the store is a legacy format v1/v2 one (the message
            names the ``repro engine convert --store`` command that migrates
            it).
    """

    #: Manifest versions this class opens; the legacy reader widens it.
    _OPENS = (_FORMAT_VERSION,)

    def __init__(self, directory):
        self.directory = str(directory)
        manifest, self._chunks = _load_manifest(self.directory)
        version = manifest.get("format_version")
        if version not in self._OPENS:
            if version in _LEGACY_VERSIONS:
                raise TraceFormatError(
                    "%s is a legacy format-v%d store, which no longer opens; "
                    "migrate it to format v3 with: repro engine convert "
                    "--store %s --output NEW" % (self.directory, version, self.directory))
            raise TraceFormatError("%s: unsupported format version %r (supported: %d)"
                                   % (os.path.join(self.directory, MANIFEST_NAME),
                                      version, _FORMAT_VERSION))
        self.name: str = manifest.get("name", "trace")
        self.machines: Optional[int] = manifest.get("machines")
        self.columns: List[str] = list(manifest["columns"])
        self.sorted_by_submit_time: bool = bool(manifest.get("sorted_by_submit_time", False))
        #: Rows-per-chunk the writer targeted (appends default to the same).
        self.chunk_rows_target: int = int(manifest.get("chunk_rows", DEFAULT_CHUNK_ROWS))
        #: Bumped by one on every committed append; 0 for a freshly written store.
        self.manifest_sequence: int = int(manifest.get("manifest_sequence", 0))
        #: Random identity minted at write time and preserved across appends —
        #: how a checkpoint tells "this store, grown" apart from "a different
        #: (or rewritten) store of the same shape".  None for pre-ingest stores.
        self.store_uid: Optional[str] = manifest.get("store_uid")
        #: Block codec name and level (level ``None``: the codec's default).
        self.codec: str = manifest.get("codec") or DEFAULT_CODEC
        self.codec_level: Optional[int] = manifest.get("codec_level")
        #: Per-string-column encoding choice ("dict" or "raw"), fixed at
        #: first appearance so appends stay consistent with existing chunks.
        self.string_encodings: Dict[str, str] = dict(manifest.get("string_encodings", {}))
        if os.path.isfile(os.path.join(self.directory, DICTIONARY_NAME)):
            self._dictionary = StoreDictionary.load(self.directory)
        elif any(enc == "dict" for enc in self.string_encodings.values()):
            raise TraceFormatError(
                "%s: manifest declares dictionary-encoded columns but the "
                "%s sidecar is missing" % (self.directory, DICTIONARY_NAME))
        else:
            self._dictionary = StoreDictionary()

    # -- metadata ----------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return sum(chunk.rows for chunk in self._chunks)

    def __len__(self) -> int:
        return self.n_jobs

    @property
    def n_chunks(self) -> int:
        return len(self._chunks)

    def __repr__(self) -> str:
        return "ChunkedTraceStore(%r, n_jobs=%d, n_chunks=%d)" % (
            self.directory, self.n_jobs, self.n_chunks)

    def chunk_rows(self) -> List[int]:
        return [chunk.rows for chunk in self._chunks]

    def chunk_zone(self, index: int, column: str) -> Optional[List[float]]:
        """The [min, max] zone of one numeric column in one chunk, if known.

        Besides the stored numeric columns, the derived ``submit_hour`` column
        resolves through the ``submit_time_s`` zone (``floor(t / 3600)`` is
        monotone, so the hour zone is just the floored time zone) — this is
        what lets a filtered scan skip chunks on hour predicates without any
        extra manifest data.  Unknown columns return ``None`` (never skip).
        """
        zones = self._chunks[index].zones
        zone = zones.get(column)
        if zone is not None:
            return zone
        if column == "submit_hour":
            time_zone = zones.get("submit_time_s")
            if time_zone is not None:
                return [float(np.floor(time_zone[0] / 3600.0)),
                        float(np.floor(time_zone[1] / 3600.0))]
        return None

    def string_table(self, name: str):
        """The dictionary table backing a dict-encoded column, else ``None``.

        The planner uses it to resolve a string literal to its code without
        decoding any chunk; raw-encoded string columns answer ``None`` (no
        stable code space).
        """
        if self.string_encodings.get(name) != "dict":
            return None
        return self._dictionary.get(name)

    def has_column(self, name: str) -> bool:
        """Whether the store records ``name``, including resolvable derived columns."""
        if name in self.columns:
            return True
        try:
            self._storage_columns([name])
            return True
        except TraceFormatError:
            return False

    def _column_path(self, meta: _ChunkMeta, column: str) -> str:
        return os.path.join(self.directory, "%s.%s.bin" % (meta.file, column))

    def info(self) -> Dict:
        """Manifest-level summary (for ``repro engine info``)."""
        dictionary_bytes = self._dictionary.sidecar_bytes(self.directory)
        total_bytes = dictionary_bytes + sum(self.column_sizes().values())
        submit_zones = [chunk.zones.get("submit_time_s") for chunk in self._chunks]
        submit_zones = [zone for zone in submit_zones if zone]
        summary = {
            "directory": self.directory,
            "name": self.name,
            "store_uid": self.store_uid,
            "machines": self.machines,
            "format_version": _FORMAT_VERSION,
            "manifest_sequence": self.manifest_sequence,
            "sorted_by_submit_time": self.sorted_by_submit_time,
            "n_jobs": self.n_jobs,
            "n_chunks": self.n_chunks,
            "columns": self.columns,
            "on_disk_bytes": int(total_bytes),
            "submit_time_range": [min(z[0] for z in submit_zones),
                                  max(z[1] for z in submit_zones)] if submit_zones else None,
            "codec": self.codec,
            "codec_level": self.codec_level,
            "string_encodings": dict(self.string_encodings),
            "dictionary_bytes": int(dictionary_bytes),
        }
        from .indexes import load_indexes

        indexes = load_indexes(self)
        summary["indexes"] = indexes.info(self) if indexes is not None else None
        return summary

    def _column_totals(self, measure) -> Dict[str, int]:
        """``measure(path)`` summed per stored column over every chunk file."""
        sizes: Dict[str, int] = {column: 0 for column in self.columns}
        for chunk in self._chunks:
            for column in self.columns:
                path = self._column_path(chunk, column)
                if os.path.isfile(path):
                    sizes[column] += measure(path)
        return sizes

    def column_sizes(self) -> Dict[str, int]:
        """On-disk (compressed) bytes per stored column (``repro engine info --sizes``)."""
        return self._column_totals(os.path.getsize)

    def column_raw_sizes(self) -> Dict[str, int]:
        """Per-column *uncompressed* bytes, from the block headers.

        Each block records the logical (pre-compression) size of its column —
        for dictionary columns, the size of the *string* array, not the uint32
        codes.  Only headers are read; nothing is decompressed.
        """
        return self._column_totals(
            lambda path: int(read_block_header(path).get("raw_bytes", 0)))

    # -- lazy readers ------------------------------------------------------
    def read_chunk(self, index: int, columns: Optional[Sequence[str]] = None,
                   admit: bool = False) -> ColumnBlock:
        """Load one chunk, materializing only the requested columns.

        Blocks are decompressed per column; dictionary-encoded string columns
        come back as **uint32 codes** attached to the block's
        ``codes``/``dictionaries`` side-channel — strings materialize lazily
        through :meth:`ColumnBlock.column`, and code-native consumers never
        pay for the decode at all.  Each column comes through
        :func:`~repro.engine.blockcache.read_block`: only ``admit=True`` (the
        planner's index-backed paths) inserts what it misses, and the arrays
        are read-only and shared — the block and its dicts are this call's own.

        Raises:
            TraceFormatError: when a column file is missing or damaged, or
                decodes to a length other than the manifest's row count.
        """
        meta = self._chunks[index]
        data: Dict[str, np.ndarray] = {}
        codes: Dict[str, np.ndarray] = {}
        dictionaries = {}
        for name in self._storage_columns(columns):
            path = self._column_path(meta, name)
            try:
                encoding, array = read_block(self.store_uid, path, admit)
            except IOError as exc:
                raise TraceFormatError("%s: cannot read chunk column %s: %s"
                                       % (self.directory, os.path.basename(path), exc))
            if len(array) != meta.rows:
                raise TraceFormatError(
                    "%s: chunk column %s holds %d rows but the manifest says %d"
                    % (self.directory, os.path.basename(path), len(array), meta.rows))
            if encoding == "dict":
                table = self._dictionary.get(name)
                if table is None:
                    raise TraceFormatError(
                        "%s: chunk column %s is dictionary-encoded but the "
                        "store dictionary has no table for %r"
                        % (self.directory, os.path.basename(path), name))
                codes[name] = array
                dictionaries[name] = table
            else:
                data[name] = array
        return ColumnBlock(data, codes, dictionaries)

    def _storage_columns(self, columns: Optional[Sequence[str]]) -> List[str]:
        """Resolve a requested column list to stored columns (expanding derived)."""
        if columns is None:
            return list(self.columns)
        wanted: List[str] = []
        for name in columns:
            if name in self.columns:
                parts = [name]
            elif name == "total_bytes":
                parts = ["input_bytes", "shuffle_bytes", "output_bytes"]
            elif name == "total_task_seconds":
                parts = ["map_task_seconds", "reduce_task_seconds"]
            elif name == "finish_time_s":
                parts = ["submit_time_s", "duration_s"]
            elif name == "submit_hour":
                parts = ["submit_time_s"]
            else:
                raise TraceFormatError("store %s has no column %r (have %s)"
                                       % (self.directory, name, self.columns))
            for part in parts:
                if part not in self.columns:
                    raise TraceFormatError("store %s has no column %r (needed for %r)"
                                           % (self.directory, part, name))
                if part not in wanted:
                    wanted.append(part)
        return wanted

    def iter_chunks(self, columns: Optional[Sequence[str]] = None,
                    chunk_indices: Optional[Sequence[int]] = None) -> Iterator[ColumnBlock]:
        """Yield chunks lazily; memory use is bounded by one chunk."""
        indices = range(self.n_chunks) if chunk_indices is None else chunk_indices
        for index in indices:
            yield self.read_chunk(index, columns=columns)

    def iter_jobs(self) -> Iterator[Job]:
        """Yield :class:`Job` objects one chunk at a time."""
        for block in self.iter_chunks():
            for job in _block_to_jobs(block):
                yield job

    # -- whole-store materialization ---------------------------------------
    def load_columnar(self) -> ColumnarTrace:
        """Load the full store into one in-memory :class:`ColumnarTrace`."""
        blocks = list(self.iter_chunks())
        trace = ColumnarTrace.__new__(ColumnarTrace)
        trace.block = ColumnBlock.concat(blocks) if blocks else ColumnBlock({})
        trace.name = self.name
        trace.machines = self.machines
        if not self.sorted_by_submit_time:
            trace._sort_by_submit_time()
        return trace

    def to_trace(self) -> Trace:
        """Materialize the full store as a job-list :class:`Trace`."""
        return Trace(self.iter_jobs(), name=self.name, machines=self.machines)

    # -- writer ------------------------------------------------------------
    @classmethod
    def write(cls, directory, source, chunk_rows: int = DEFAULT_CHUNK_ROWS,
              name: Optional[str] = None, machines: Optional[int] = None,
              format_version: int = _FORMAT_VERSION,
              codec: Optional[str] = None,
              codec_level: Optional[int] = None) -> "ChunkedTraceStore":
        """Write a store from a :class:`Trace`, :class:`ColumnarTrace`, or job iterable.

        Job iterables are consumed streamingly: at most ``chunk_rows`` jobs are
        buffered before being flushed to disk, so arbitrarily large traces can
        be converted with bounded memory.  The :class:`~repro.traces.io.RecordSource`
        of :func:`~repro.traces.io.iter_trace` streams the same way without
        building a ``Job`` per row.  ``codec``/``codec_level`` pick the block
        codec (default ``zlib``); ``format_version`` is accepted for callers
        that pin it and must be 3.

        A :class:`ChunkedTraceStore` source converts store→store (the
        ``engine convert --store`` path, which is also how a legacy v1/v2
        store migrates): chunks stream through one at a time at the source's
        chunk boundaries, and the sorted-by-submit-time flag *and*
        ``manifest_sequence`` carry over from the source manifest (the
        converted store still mints a fresh ``store_uid``, so checkpoints of
        the source can never resume against it — :meth:`Checkpoint.validate`
        rejects the uid mismatch).
        """
        if chunk_rows <= 0:
            raise TraceFormatError("chunk_rows must be positive, got %r" % (chunk_rows,))
        _only_v3(format_version)
        codec = codec or DEFAULT_CODEC
        if codec not in available_codecs():
            raise TraceFormatError("unknown codec %r (available: %s)"
                                   % (codec, ", ".join(available_codecs())))
        sorted_hint, sequence = False, 0
        if isinstance(source, ChunkedTraceStore):
            if os.path.abspath(str(directory)) == os.path.abspath(source.directory):
                raise TraceFormatError("cannot convert store %s onto itself"
                                       % (source.directory,))
            chunk_rows = source.chunk_rows_target
            sorted_hint = source.sorted_by_submit_time
            sequence = source.manifest_sequence
        elif isinstance(source, (ColumnarTrace, Trace)):
            sorted_hint = True  # both keep jobs sorted by submit time
        if isinstance(source, (ChunkedTraceStore, ColumnarTrace, Trace)):
            name = name or source.name
            machines = machines if machines is not None else source.machines
        created = not os.path.isdir(directory)
        os.makedirs(directory, exist_ok=True)
        # Zero-row blocks are only written while the store has no chunk, so
        # the trailing one lands exactly when the source was empty.
        empty = ColumnBlock({column: _empty_column(column, 0)
                             for column in NUMERIC_COLUMNS + ("job_id",)})
        header = {"manifest_sequence": int(sequence), "store_uid": uuid.uuid4().hex,
                  "name": name or "trace", "machines": machines, "chunk_rows": chunk_rows}
        try:
            _commit_chunks(str(directory),
                           itertools.chain(_source_blocks(source, chunk_rows), [empty]),
                           header, codec, codec_level, StoreDictionary(), {},
                           chunks=[], columns=None, sorted_hint=sorted_hint,
                           verified_sorted=True)
        except BaseException:
            if created:
                with contextlib.suppress(OSError):
                    os.rmdir(directory)
            raise
        return cls(directory)

    # -- appender ----------------------------------------------------------
    @classmethod
    def open_append(cls, directory) -> "StoreAppender":
        """Open an existing store for appending (``repro engine ingest``).

        Raises:
            TraceFormatError: as :class:`ChunkedTraceStore` does — a legacy
                v1/v2 store must be migrated first with ``repro engine
                convert --store <dir> --output <new-dir>``.
        """
        return StoreAppender(cls(directory))


class _LegacyStore(ChunkedTraceStore):
    """Read-only handle on a format-v1/v2 store, for ``engine convert --store``.

    The one reader of the retired layouts: a v1 chunk is a compressed
    ``.npz`` archive whose members are the columns (manifest ``file`` ends in
    ``.npz``), a v2 chunk one raw ``<file>.<column>.npy`` per column.  The
    metadata the writer carries over (name, machines, sorted flag,
    ``manifest_sequence``, ``chunk_rows``) parses exactly as for v3.
    """

    _OPENS = _LEGACY_VERSIONS

    def read_chunk(self, index: int, columns: Optional[Sequence[str]] = None,
                   admit: bool = False) -> ColumnBlock:
        meta = self._chunks[index]
        path = os.path.join(self.directory, meta.file)
        wanted = self._storage_columns(columns)
        try:
            if meta.file.endswith(".npz"):
                with np.load(path, allow_pickle=False) as archive:
                    return ColumnBlock({name: archive[name] for name in wanted})
            return ColumnBlock({name: np.load("%s.%s.npy" % (path, name), allow_pickle=False)
                                for name in wanted})
        except (IOError, KeyError, ValueError) as exc:
            raise TraceFormatError("%s: cannot read legacy chunk %s: %s"
                                   % (self.directory, meta.file, exc))


def _conversion_source(directory) -> ChunkedTraceStore:
    """The store ``engine convert --store`` reads: v3 as itself, v1/v2 through
    :class:`_LegacyStore`."""
    version = _load_manifest(str(directory))[0].get("format_version")
    return (_LegacyStore if version in _LEGACY_VERSIONS else ChunkedTraceStore)(directory)


def _swap_manifest(directory: str, manifest: Dict) -> None:
    """Commit point of every write and append: replace ``manifest.json`` durably."""
    payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    durable_replace([(os.path.join(directory, MANIFEST_NAME), payload.encode("utf-8"))])


def _committed_stems(directory: str) -> List[str]:
    """The chunk file stems the directory's manifest names; none when the
    directory holds no readable store."""
    try:
        return [meta.file.split(".")[0] for meta in _load_manifest(directory)[1]]
    except TraceFormatError:
        return []


def _unlink_manifest(directory: str) -> None:
    """Durably retire the store a write replaces: unlink ``manifest.json``
    and fsync the directory, so not even a crash can leave the old manifest
    beside the write's dictionary."""
    try:
        os.unlink(os.path.join(directory, MANIFEST_NAME))
    except FileNotFoundError:
        return
    handle = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(handle)
    finally:
        os.close(handle)


def _commit_chunks(directory: str, blocks: Iterable[ColumnBlock], header: Dict,
                   codec: str, codec_level: Optional[int],
                   dictionary: StoreDictionary,
                   string_encodings: Dict[str, str], chunks: List[_ChunkMeta],
                   columns: Optional[List[str]], sorted_hint: bool,
                   verified_sorted: bool) -> bool:
    """The one commit sequence behind ``write`` and ``append``; returns
    whether a manifest was committed.

    Per block (a zero-row one only while the store has no chunk at all):
    decode, verify submit-time order, pad to the column set known so far,
    write the chunk files and zone maps.  Then fill the columns some chunks
    lack, save the dictionary, swap the manifest — in that order, so a
    manifest on disk only names chunk files and codes that are already
    there.  No new chunk, no commit.  ``write`` starts from ``chunks=[]`` /
    ``columns=None``, ``append`` from the open store's state; ``header`` is
    the manifest entries the two set differently.  The flag written is
    ``sorted_hint or verified_sorted``, the latter falling at the first chunk
    out of order against the latest submit time seen (seeded from the
    committed chunks' zones).

    Which columns a chunk has is what this call *knows* — ``columns`` for
    committed chunks, what it wrote itself for new ones — never which files
    exist: a stale file in a reused directory is overwritten, not adopted.

    A failure before the swap unlinks every file this call wrote and
    re-raises.  For an append the committed manifest cannot name them (new
    indices are past its end, filled columns not in its list).  A *write*
    (no committed chunks) into a directory that holds a store names its
    chunk files apart from the old store's (``<uid>-chunk-NNNNN``), so the
    old store stays whole while they are written; only just before the
    dictionary save does it unlink the old manifest
    (:func:`_unlink_manifest`).  A failed write therefore leaves a directory
    that opens to the old store exactly, or, when it failed saving the
    dictionary or manifest, does not open at all.  After the swap a write
    unlinks the old store's chunk files.

    Byte-order corner: padding is inline, as the fresh writer's always was,
    so a multi-chunk *append* whose earlier chunk lacks a dictionary column
    that a later chunk of the same call brings new values for codes ``""``
    before those values, where appends used to code it after — same decoded
    values, different code order.
    """
    layout = (codec, codec_level, dictionary, string_encodings)
    chunks = list(chunks)
    n_committed = len(chunks)
    known = [frozenset(columns or ())] * n_committed
    previous_end = max([meta.zones["submit_time_s"][1] for meta in chunks
                        if "submit_time_s" in meta.zones], default=-np.inf)
    written: List[str] = []
    retired = set() if n_committed else set(_committed_stems(directory))
    stem = "%s-chunk-%%05d" % header["store_uid"][:8] if retired else "chunk-%05d"
    try:
        for block in blocks:
            if block.n_rows == 0 and chunks:
                continue
            # materialized() decodes any dictionary-backed columns of a store
            # source block — a plain dict(block.columns) would silently drop
            # the code-backed string columns during store→store conversion.
            data = block.materialized()
            times = data.get("submit_time_s")
            if times is not None and times.size:
                if not _in_submit_order(times, previous_end):
                    verified_sorted = False
                previous_end = max(previous_end, float(times[-1]))
            if columns is None:
                columns = sorted(data)
            elif sorted(data) != columns:
                # Widen to the union and pad this chunk; the ones before it
                # are filled after the loop.
                columns = sorted(set(columns) | set(data))
                for column in columns:
                    if column not in data:
                        data[column] = _empty_column(column, block.n_rows)
            file_name = stem % len(chunks)
            _write_chunk(directory, file_name, data, written, *layout)
            known.append(frozenset(data))
            chunks.append(_ChunkMeta(file=file_name, rows=block.n_rows,
                                     zones=_zone_maps(data)))
        if len(chunks) == n_committed:
            return False
        for meta, have in zip(chunks, known):
            missing = [column for column in columns if column not in have]
            if missing:
                _write_chunk(directory, meta.file,
                             {column: _empty_column(column, meta.rows) for column in missing},
                             written, *layout)
        manifest = dict(header, format_version=_FORMAT_VERSION,
                        n_jobs=sum(meta.rows for meta in chunks),
                        sorted_by_submit_time=sorted_hint or verified_sorted,
                        columns=columns, chunks=[meta.to_json() for meta in chunks],
                        codec=codec, codec_level=codec_level,
                        string_encodings=string_encodings)
        # Extra (not-yet-referenced) dictionary entries are harmless if we
        # crash between the two renames; missing ones would not be.
        if not n_committed:
            # A write's dictionary would decode an old manifest's codes wrongly.
            _unlink_manifest(directory)
            written.append(os.path.join(directory, DICTIONARY_NAME))
        dictionary.save(directory)
        _swap_manifest(directory, manifest)
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise
    if retired:
        for file_name in os.listdir(directory):
            if file_name.split(".")[0] in retired:
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(directory, file_name))
    return True


class StoreAppender:
    """Appends chunks to an existing store (see :meth:`ChunkedTraceStore.open_append`).

    One :meth:`append` call writes the new chunk files (with zone maps), keeps
    the column set coherent (new columns are filled into old chunks, old
    columns into new chunks), re-derives the ``sorted_by_submit_time`` flag
    across the append boundary, bumps ``manifest_sequence``, and commits with
    an atomic manifest swap — or, if it raises, unlinks what it wrote.

    New chunks reuse the store's codec and per-column string encodings, and
    unseen string values are *appended* to the dictionary — codes already on
    disk never change, so readers and checkpoints that predate the append
    stay valid.

    A secondary-index sidecar (:mod:`repro.engine.indexes`), when present and
    fresh, is *extended* over the appended chunks after the commit: each
    indexed column gains one immutable sorted run covering only the new
    chunks, written with ``index.json`` last, and the already-indexed chunks
    and base files are never re-read or rewritten — the append costs what
    its chunks cost.  Readers merge base + runs linearly on first access.
    The append that would give a column more than
    :data:`~repro.engine.indexes.INDEX_MAX_RUNS` runs compacts it into a new
    base instead, so one append in ``INDEX_MAX_RUNS`` pays a compaction that
    reads every run and rewrites the whole sidecar.  A crash between the manifest swap and ``index.json`` leaves a
    sidecar pinned to the previous sequence: stale and refused, never wrong.
    """

    def __init__(self, store: ChunkedTraceStore):
        self.store = store

    def append(self, source, chunk_rows: Optional[int] = None) -> ChunkedTraceStore:
        """Append jobs/chunks from ``source`` and commit; returns the fresh handle.

        ``source`` may be a :class:`~repro.traces.trace.Trace`,
        :class:`~repro.engine.columnar.ColumnarTrace`, another
        :class:`ChunkedTraceStore`, any job iterable (consumed streamingly,
        at most ``chunk_rows`` jobs buffered), or a
        :class:`~repro.traces.io.RecordSource`.  ``chunk_rows`` defaults to the
        store's own ``chunk_rows`` manifest entry.  An empty source is a
        no-op: nothing is written and the manifest (and its sequence number)
        stays untouched.
        """
        store = self.store
        rows_per_chunk = (store.chunk_rows_target if chunk_rows is None
                          else int(chunk_rows))
        if rows_per_chunk <= 0:
            raise TraceFormatError("chunk_rows must be positive, got %r" % (chunk_rows,))
        header = {"manifest_sequence": store.manifest_sequence + 1,
                  "store_uid": store.store_uid or uuid.uuid4().hex, "name": store.name,
                  "machines": store.machines, "chunk_rows": store.chunk_rows_target}
        if not _commit_chunks(store.directory, _source_blocks(source, rows_per_chunk),
                              header, store.codec, store.codec_level,
                              store._dictionary, dict(store.string_encodings),
                              chunks=store._chunks, columns=store.columns,
                              sorted_hint=False,
                              verified_sorted=store.sorted_by_submit_time):
            return store
        self.store = ChunkedTraceStore(store.directory)
        # Add one index run over the appended chunks only (old chunks and
        # base files are never re-read).  Runs after the manifest swap: a crash in
        # between leaves the sidecar pinned to the previous sequence, which
        # the staleness check detects — never a silently wrong index.
        from .indexes import extend_indexes

        extend_indexes(self.store, previous_chunks=store.n_chunks)
        return self.store


def _source_blocks(source, chunk_rows: int) -> Iterator[ColumnBlock]:
    """Stream any supported source as column blocks of at most ``chunk_rows``.

    The one dispatch the writer and the appender share.  Only sources that
    really hold :class:`Job` objects (a :class:`Trace`, a job iterable) take
    the row path; a :class:`~repro.traces.io.RecordSource` — a trace file from
    ``iter_trace``, the records of an append request or a feed — decodes
    batches of records straight into columns.
    """
    if isinstance(source, ChunkedTraceStore):
        return source.iter_chunks()
    if isinstance(source, ColumnarTrace):
        return source.iter_chunks(chunk_rows=chunk_rows)
    if isinstance(source, RecordSource):
        return source.blocks(chunk_rows)
    if isinstance(source, Trace):
        source = source.jobs
    return _job_blocks(source, chunk_rows)


def append_store(directory, source, chunk_rows: Optional[int] = None) -> ChunkedTraceStore:
    """Functional alias: append ``source`` to the store at ``directory``."""
    return ChunkedTraceStore.open_append(directory).append(source, chunk_rows=chunk_rows)


def _choose_string_encoding(array: np.ndarray) -> str:
    """Dictionary-encode low-cardinality columns; raw-compress the rest.

    Decided once per column on its first non-empty chunk and persisted in the
    manifest: a unique-per-row column like ``job_id`` would bloat the
    dictionary sidecar to one entry per job and buy nothing, while ``name``/
    ``input_path``-style columns shrink to uint32 codes that consumers can
    fold over directly.  Dictionary coding needs *repetition* to pay for the
    sidecar entries, so a column must show at least 2x reuse in the first
    chunk (distinct <= rows/2) on top of the absolute cardinality cap.
    """
    distinct = np.unique(array).size
    limit = min(max(DICTIONARY_MAX_DISTINCT, array.size // 4), array.size // 2)
    return "dict" if distinct <= limit else "raw"


def _encode_column(name: str, array: np.ndarray, codec: str,
                   codec_level: Optional[int], dictionary: StoreDictionary,
                   string_encodings: Dict[str, str]) -> bytes:
    """Encode one column of one chunk as a compressed block."""
    if array.dtype.kind in "US":
        encoding = string_encodings.get(name)
        if encoding is None:
            if array.size == 0:
                # No data to judge cardinality by: write a raw empty block and
                # leave the decision to the first non-empty chunk.
                return pack_block(array, "raw", codec, codec_level)
            encoding = string_encodings[name] = _choose_string_encoding(array)
        if encoding == "dict":
            codes = dictionary.column(name).encode(array)
            return pack_block(codes, "dict", codec, codec_level,
                              raw_bytes=array.nbytes)
        return pack_block(array, "raw", codec, codec_level)
    if name == "submit_time_s" and array.dtype == np.float64:
        return pack_block(array, "delta64", codec, codec_level)
    return pack_block(array, "raw", codec, codec_level)


def _write_chunk(directory: str, file_name: str, columns: Dict[str, np.ndarray],
                 written: List[str], codec: str, codec_level: Optional[int],
                 dictionary: StoreDictionary, string_encodings: Dict[str, str]) -> None:
    """Write one ``.bin`` block per column given for the chunk whose manifest
    ``file`` entry is ``file_name`` (so the same call fills columns into an
    existing chunk).  Every path is recorded in ``written`` *before* it is
    opened."""
    for name, array in columns.items():
        path = os.path.join(directory, "%s.%s.bin" % (file_name, name))
        written.append(path)
        block = _encode_column(name, np.asarray(array), codec, codec_level,
                               dictionary, string_encodings)
        with open(path, "wb") as handle:
            handle.write(block)


def _empty_column(name: str, rows: int) -> np.ndarray:
    if name in NUMERIC_COLUMNS:
        return np.full(rows, np.nan, dtype=float)
    return np.full(rows, "", dtype=np.str_)


def _job_blocks(jobs: Iterable[Job], chunk_rows: int) -> Iterator[ColumnBlock]:
    """Buffer a job iterable into column blocks of at most ``chunk_rows`` rows."""
    def columns(batch: List[Job]) -> Dict[str, List]:
        buffers: Dict[str, List] = {column: [] for column in ALL_COLUMNS}
        for job in batch:
            _append_job(buffers, job)
        return buffers

    return _column_blocks(map(columns, _batches(jobs)), chunk_rows)


def write_store(directory, source, chunk_rows: int = DEFAULT_CHUNK_ROWS,
                name: Optional[str] = None, machines: Optional[int] = None,
                format_version: int = _FORMAT_VERSION,
                codec: Optional[str] = None,
                codec_level: Optional[int] = None) -> ChunkedTraceStore:
    """Functional alias for :meth:`ChunkedTraceStore.write`."""
    return ChunkedTraceStore.write(directory, source, chunk_rows=chunk_rows,
                                   name=name, machines=machines,
                                   format_version=format_version,
                                   codec=codec, codec_level=codec_level)
