"""Shared-scan execution pipeline: one decoded pass for many analyses.

The characterization suite is a *batch* of analyses over the same trace —
exactly the shape the source paper ascribes to MapReduce workloads themselves
(many jobs scanning shared data).  Running each analysis as its own scan
re-reads and re-decodes every chunk once per analysis; :class:`ScanPipeline`
instead registers every analysis as a **chunk consumer**, decodes each chunk
exactly once, and pushes the shared :class:`~repro.engine.columnar.ColumnBlock`
through all of them (classic multi-query scan sharing).

A consumer (see :class:`ChunkConsumer`) declares the columns it needs and
three pure operations::

    make_state()           -> fresh fold state
    fold(state, chunk)     -> state   # one decoded chunk
    merge(a, b)            -> state   # partials from disjoint chunk ranges
    finalize(state)        -> result

The pipeline computes the union of all declared columns, so each stored
column is decoded at most once per chunk.  With a
:class:`~repro.engine.parallel.ParallelExecutor`, chunks fan out across
worker processes in contiguous ranges (each worker opens the store once and
keeps the handle); per-worker partial states are merged in chunk order at the
end.  Consumers whose fold is order-sensitive declare ``ordered=True`` and
run in a single sequential lane that sees every chunk in submit-time order —
in-process during a serial run, as one dedicated worker task during a
parallel run (it decompresses the blocks it reads itself, like every lane:
whole-store passes read through the decoded-block cache without filling it).

``AnalysisError`` raised by one consumer (e.g. "trace records no job names")
is isolated: the failing consumer is dropped from the rest of the scan and
its error is reported per-consumer in the :class:`PipelineResult`, while all
other consumers complete normally — mirroring how the paper omits a workload
from individual figures when a dimension is missing.

**Checkpoint / resume.**  Consumers whose fold state is serializable declare
``resumable = True`` and implement ``snapshot(state)`` / ``restore(payload)``
— the capability flag that lets :class:`Checkpoint` persist a scan's fold
states next to the store (JSON for scalars and dictionaries, ``.npz`` for
arrays) together with the **chunk watermark** (how many chunks the states
cover).  After appending chunks to the store, ``run(start_chunk=W,
initial_states=...)`` folds only the new chunks into the restored states;
because the restored state is exactly the state the cold scan had after chunk
``W-1``, the incremental result is bit-identical to a cold full rescan.
Ordered consumers additionally need the appended data to *follow* the old
data in submit time (the store's ``sorted_by_submit_time`` flag survives the
append); otherwise they must fall back to a full rescan.  Consumers that
cannot resume at all keep the default ``resumable = False`` and always
rescan.  Checkpoint arrays are stored raw (``np.savez``, no deflate): a
resume then pays a memcpy and one fsync for its state, not a recompression
of state it mostly did not change.
"""

from __future__ import annotations

import io
import json
import os
import uuid
import zipfile
import zlib
from itertools import count, repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from .aggregates import MaxState, MinState, SumState
from .codecs import StringDictionary, durable_replace
from .columnar import ColumnBlock, _OrderCheck
from .source import TraceSource

__all__ = ["ScanChunk", "Interner", "ChunkConsumer", "PipelineResult", "ScanPipeline",
           "Checkpoint", "SummaryConsumer", "fold_consumer",
           "find_store_checkpoints"]


class ScanChunk:
    """One decoded chunk as seen by consumers: a block plus its position.

    Attributes:
        block: the decoded :class:`ColumnBlock` (shared by every consumer).
        index: chunk index within the scan (0-based).
        start_row: global row offset of the chunk's first row — what
            row-addressed consumers (the Table-2 job sample) key on.
    """

    __slots__ = ("block", "index", "start_row", "_codes_cache")

    def __init__(self, block: ColumnBlock, index: int, start_row: int):
        self.block = block
        self.index = index
        self.start_row = start_row
        self._codes_cache: Dict[str, Tuple[np.ndarray, StringDictionary]] = {}

    @property
    def n_rows(self) -> int:
        return self.block.n_rows

    def column(self, name: str) -> np.ndarray:
        return self.block.column(name)

    def codes(self, name: str) -> Tuple[np.ndarray, StringDictionary]:
        """Per-row integer codes of a string column and the table they index.

        A dictionary-encoded column (format v3) returns its stored ``uint32``
        codes and the store's table as they are: nothing is decoded.  Any
        other string column is factorized with one per-row ``dict`` pass into
        chunk-local codes, numbered in first-seen order against a fresh table
        of the chunk's distinct values.  The pair is cached per chunk, so the
        consumers sharing a column share the pass; :class:`Interner` turns it
        into a fold's own ids.
        """
        cached = self._codes_cache.get(name)
        if cached is None:
            cached = self.block.codes_for(name)
            if cached is not None:
                cached[1].check(cached[0])
            else:
                rows = self.column(name).tolist()
                # Each row maps to the row its value first appeared in; the
                # first appearances, counted, are the dense codes.
                first = {}
                first_row = np.fromiter(map(first.setdefault, rows, count()),
                                        dtype=np.int64, count=len(rows))
                is_first = first_row == np.arange(len(rows))
                cached = ((np.cumsum(is_first) - 1)[first_row],
                          StringDictionary(list(first)))
            self._codes_cache[name] = cached
        return cached


#: ``Interner`` code-cache marker for a table code not looked up yet.
_UNSEEN = -2


class Interner:
    """Dense integer ids for distinct strings, handed out in first-seen order.

    The fold-state half of :meth:`ScanChunk.codes`.  :meth:`ids` turns one
    chunk column into per-row ids with a gather through a per-table
    code → id array, so only codes this interner has not met before are
    decoded and looked up (on a v3 store, once per distinct value per scan).
    ``""`` — "not recorded" — never gets an id: its rows read ``-1``.  The
    per-id value arrays named by ``fills`` (``{name: fill value}``) grow by
    doubling as ids are minted, so a fold indexes them by id directly.

    An interner restored from sorted ``known`` values (a checkpoint) numbers
    them by position and keeps them as the array they came in: the
    value → id ``dict`` is built only when a value outside them turns up.
    :meth:`sort` renumbers the ids in value order — the order snapshots and
    results are emitted in — and is free while nothing was added.
    """

    def __init__(self, fills: Optional[Dict[str, object]] = None,
                 known: Optional[np.ndarray] = None,
                 arrays: Optional[Dict[str, np.ndarray]] = None):
        self.fills = dict(fills or {})
        # Checkpoints written before ids existed may list "" first (sorted);
        # it is the not-recorded marker and gets no id.
        drop = int(known is not None and len(known) > 0 and known[0] == "")
        self.arrays: Dict[str, np.ndarray] = {}
        for key, fill in self.fills.items():
            dtype = np.asarray(fill).dtype
            self.arrays[key] = (np.array(arrays[key][drop:], dtype=dtype)
                                if arrays is not None else np.zeros(0, dtype=dtype))
        # Exactly one representation is live: ``_sorted`` (ids = positions)
        # or ``_values`` + ``_index`` (ids = insertion order; "" maps to -1).
        self._sorted: Optional[np.ndarray] = None
        self._values: Optional[List[str]] = None
        self._index: Optional[Dict[str, int]] = None
        if known is None:
            self._values, self._index = [], {"": -1}
        else:
            self._sorted = np.asarray(known, dtype=np.str_)[drop:]
        # column -> (table, code -> id array); derived, never pickled.
        self._tables: Dict[str, Tuple[StringDictionary, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self._values) if self._values is not None else int(self._sorted.size)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_tables"] = {}
        return state

    def values(self, start: int = 0) -> List[str]:
        """The interned values with id ``start`` and above, in id order."""
        if self._values is not None:
            return self._values[start:]
        return self._sorted[start:].tolist()

    def intern(self, values: List[str]) -> np.ndarray:
        """Ids of ``values``, minting one for every value not seen before."""
        if self._values is None:
            known = self._sorted
            probe = np.asarray(values, dtype=np.str_)
            positions = np.searchsorted(known, probe)
            empty = probe == ""
            hit = empty.copy()
            if known.size:
                hit |= known[np.minimum(positions, known.size - 1)] == probe
            if hit.all():
                return np.where(empty, -1, positions)
            self._values = known.tolist()
            self._index = dict(zip(self._values, range(known.size)))
            self._index[""] = -1
            self._sorted = None
        index = self._index
        ids = np.fromiter(map(index.get, values, repeat(_UNSEEN)), dtype=np.int64,
                          count=len(values))
        missing = np.flatnonzero(ids == _UNSEEN)
        if missing.size:
            missed = list(map(values.__getitem__, missing.tolist()))
            fresh = list(dict.fromkeys(missed))  # first-seen order, once each
            index.update(zip(fresh, range(len(self._values), len(self._values) + len(fresh))))
            self._values.extend(fresh)
            ids[missing] = list(map(index.__getitem__, missed))
            self._fit()
        return ids

    def ids(self, chunk: ScanChunk, column: str) -> np.ndarray:
        """Per-row ids of one chunk column (``-1`` where not recorded)."""
        codes, table = chunk.codes(column)
        cached = self._tables.get(column)
        if cached is not None and cached[0] is table and cached[1].size == len(table):
            code_ids = cached[1]
        else:
            code_ids = np.full(len(table), _UNSEEN, dtype=np.int64)
        row_ids = code_ids[codes]
        unseen = row_ids == _UNSEEN
        if unseen.any():
            present = np.zeros(len(table), dtype=bool)
            present[codes[unseen]] = True
            new_codes = np.flatnonzero(present)
            code_ids[new_codes] = self.intern(
                table.values if new_codes.size == len(table)
                else list(map(table.values.__getitem__, new_codes.tolist())))
            row_ids = code_ids[codes]
        self._tables[column] = (table, code_ids)
        return row_ids

    def _fit(self) -> None:
        """Grow every per-id array to hold every id (capacity doubles)."""
        size = len(self)
        for key, array in self.arrays.items():
            if array.size < size:
                grown = np.full(max(size, 2 * array.size), self.fills[key], dtype=array.dtype)
                grown[:array.size] = array
                self.arrays[key] = grown

    def sort(self) -> np.ndarray:
        """Renumber the ids in value order; returns the sorted values.

        The per-id arrays are permuted (and trimmed to one entry per id)
        alongside.  An interner with nothing added since its last sort or
        restore is returned as it is.
        """
        if self._values is not None:
            values = np.asarray(self._values, dtype=np.str_)
            order = np.argsort(values, kind="stable")
            self._sorted = values[order]
            self._values = self._index = None
            self._tables = {}
            for key, array in self.arrays.items():
                self.arrays[key] = array[:order.size][order]
        return self._sorted

    def trimmed(self, key: str) -> np.ndarray:
        """One per-id array cut to one entry per id."""
        return self.arrays[key][:len(self)]


class ChunkConsumer:
    """Base class for shared-scan consumers (the fold/merge contract).

    Subclasses set :attr:`name` (unique within a pipeline), :attr:`columns`
    (the stored/derived columns their fold touches) and, when their fold
    depends on rows arriving in submit-time order, ``ordered = True``.
    ``merge`` is only called for unordered consumers (ordered ones run in one
    sequential lane and never produce partials).
    """

    #: Result key within the pipeline; subclasses override (often per-instance).
    name: str = "consumer"
    #: Columns the fold reads; the pipeline decodes the union over consumers.
    #: ``None`` means "every stored column".
    columns: Optional[Tuple[str, ...]] = ()
    #: True when fold correctness depends on submit-time chunk order.
    ordered: bool = False
    #: Capability flag: True when :meth:`snapshot`/:meth:`restore` are
    #: implemented, i.e. the fold state can be checkpointed and the scan
    #: resumed over appended chunks only.  Consumers left False fall back to
    #: a full rescan.
    resumable: bool = False

    def make_state(self):
        raise NotImplementedError

    def fold(self, state, chunk: ScanChunk):
        raise NotImplementedError

    def merge(self, a, b):
        raise AnalysisError("consumer %r does not support merging partial states"
                            % (self.name,))

    def finalize(self, state):
        return state

    # -- checkpoint capability (resumable consumers override both) ----------
    def snapshot(self, state) -> Dict[str, object]:
        """Serialize a fold state into a flat payload dictionary.

        Values must be JSON-representable scalars/lists/dicts or NumPy
        arrays; :class:`Checkpoint` routes arrays into the ``.npz`` side car
        and everything else into the JSON file.  ``restore(snapshot(state))``
        must reproduce the state *exactly* — the incremental == full-rescan
        equality contract depends on it.
        """
        raise AnalysisError("consumer %r does not support state snapshots"
                            % (self.name,))

    def restore(self, payload: Dict[str, object]):
        """Rebuild a fold state from a :meth:`snapshot` payload."""
        raise AnalysisError("consumer %r does not support state snapshots"
                            % (self.name,))


class PipelineResult:
    """Per-consumer results of one shared scan.

    Attributes:
        results: consumer name -> finalized result, for consumers that ran to
            completion.
        errors: consumer name -> the :class:`AnalysisError` that removed the
            consumer from the scan (missing columns, unsorted store, ...).
        chunks_scanned / rows_scanned: scan counters (the decoded pass).
        final_states: consumer name -> the *unfinalized* fold state after the
            scan — what :meth:`Checkpoint.capture` snapshots.
    """

    def __init__(self):
        self.results: Dict[str, object] = {}
        self.errors: Dict[str, AnalysisError] = {}
        self.chunks_scanned = 0
        self.rows_scanned = 0
        self.final_states: Dict[str, object] = {}

    def value(self, name: str):
        """The result of one consumer; re-raises its recorded error."""
        if name in self.errors:
            raise self.errors[name]
        if name not in self.results:
            raise AnalysisError("pipeline has no consumer %r (have %s)"
                                % (name, sorted(self.results) + sorted(self.errors)))
        return self.results[name]

    def get(self, name: str, default=None):
        """The result of one consumer, or ``default`` if it errored/is absent."""
        return self.results.get(name, default)


def _fold_lane(source_name: str, blocks, consumers: List[ChunkConsumer],
               states: Dict[str, object], errors: Dict[str, AnalysisError],
               check_order: bool, counters: Optional[Dict[str, int]] = None,
               order_floor: float = -np.inf) -> None:
    """Fold a stream of :class:`ScanChunk` through one lane of consumers.

    ``consumers``/``states`` are mutated in place: a consumer whose fold
    raises :class:`AnalysisError` is dropped and its error recorded.  An
    order violation (``check_order``) drops every ordered consumer in the
    lane the same way.
    """
    order = _OrderCheck(source_name, floor=order_floor) if check_order else None
    for chunk in blocks:
        if counters is not None:
            counters["chunks"] += 1
            counters["rows"] += chunk.n_rows
        if chunk.n_rows == 0:
            continue
        if order is not None:
            try:
                order.check(chunk.block)
            except AnalysisError as exc:
                for consumer in [c for c in consumers if c.ordered]:
                    errors[consumer.name] = exc
                    states.pop(consumer.name, None)
                    consumers.remove(consumer)
                order = None
        for consumer in list(consumers):
            try:
                states[consumer.name] = consumer.fold(states[consumer.name], chunk)
            except AnalysisError as exc:
                errors[consumer.name] = exc
                states.pop(consumer.name, None)
                consumers.remove(consumer)
        if not consumers:
            break


def _scan_worker(task):
    """Worker-side lane fold for the parallel pipeline.

    Runs in a pool whose initializer opened the store once per worker (see
    :func:`repro.engine.parallel.get_worker_store`); only the consumers,
    chunk indices and row offsets cross the process boundary.  Returns
    ``(states, errors, rows)`` with unordered partials left unfinalized so
    the parent can merge them exactly.
    """
    from .parallel import get_worker_store

    (consumers, chunk_indices, start_rows, columns, check_order,
     initial_states, order_floor) = task
    store = get_worker_store()
    states = {consumer.name: consumer.make_state() for consumer in consumers}
    if initial_states:
        states.update(initial_states)
    errors: Dict[str, AnalysisError] = {}
    counters = {"chunks": 0, "rows": 0}
    blocks = (
        ScanChunk(store.read_chunk(index, columns=columns), index, start)
        for index, start in zip(chunk_indices, start_rows))
    _fold_lane(store.name, blocks, list(consumers), states, errors,
               check_order, counters, order_floor=order_floor)
    return states, errors, counters["rows"]


class ScanPipeline:
    """Shared-scan runner: register consumers, then :meth:`run` one pass.

    Args:
        source: any :class:`TraceSource`-wrappable trace representation.
        executor: optional :class:`~repro.engine.parallel.ParallelExecutor`;
            with more than one effective worker and a store-backed source the
            chunk fan-out runs across processes.  Serial otherwise, with
            results identical up to floating-point merge order.
    """

    def __init__(self, source, executor=None):
        self.source = TraceSource.wrap(source)
        self.executor = executor
        self._consumers: List[ChunkConsumer] = []

    def add(self, consumer: ChunkConsumer) -> ChunkConsumer:
        """Register a consumer; returns it (for call-site chaining)."""
        if any(existing.name == consumer.name for existing in self._consumers):
            raise AnalysisError("duplicate pipeline consumer name %r" % (consumer.name,))
        self._consumers.append(consumer)
        return consumer

    @property
    def consumers(self) -> List[ChunkConsumer]:
        return list(self._consumers)

    def columns(self, consumers: Optional[Sequence[ChunkConsumer]] = None) -> Optional[List[str]]:
        """Union of the declared column sets (the decoded-once set).

        ``None`` when any consumer asks for every stored column.
        """
        union: List[str] = []
        chosen = self._consumers if consumers is None else consumers
        for consumer in chosen:
            if consumer.columns is None:
                return None
            for column in consumer.columns:
                if column not in union:
                    union.append(column)
        if any(consumer.ordered for consumer in chosen) and "submit_time_s" not in union:
            union.append("submit_time_s")
        return union

    # -- execution ---------------------------------------------------------
    def run(self, start_chunk: int = 0,
            initial_states: Optional[Dict[str, object]] = None,
            order_floor: float = -np.inf) -> PipelineResult:
        """Execute the shared scan and finalize every consumer.

        Args:
            start_chunk: first chunk index to fold (0 = the whole source).
                Non-zero values resume a checkpointed scan over a
                store-backed source: only chunks ``start_chunk..`` are read,
                with global chunk indices and row offsets preserved.
            initial_states: restored fold states (consumer name -> state)
                seeding the resumed consumers; consumers not listed start
                from :meth:`ChunkConsumer.make_state` as usual.
            order_floor: last submit time of the already-folded prefix — the
                ordered lane's order check starts from it.
        """
        initial_states = initial_states or {}
        result = PipelineResult()
        runnable: List[ChunkConsumer] = []
        for consumer in self._consumers:
            missing = [column for column in (consumer.columns or ())
                       if not self.source.has_column(column)]
            if missing:
                result.errors[consumer.name] = AnalysisError(
                    "source %r records no column %s (needed by %r)"
                    % (self.source.name, ", ".join(sorted(missing)), consumer.name))
            else:
                runnable.append(consumer)
        if not runnable:
            return result
        if start_chunk and not self.source.is_streaming:
            raise AnalysisError("resuming from chunk %d requires a store-backed "
                                "source, got materialized %r"
                                % (start_chunk, self.source.name))

        states: Dict[str, object] = {}
        if self._parallel_plan_applies(start_chunk):
            self._run_parallel(runnable, states, result, start_chunk,
                               initial_states, order_floor)
        else:
            self._run_serial(runnable, states, result, start_chunk,
                             initial_states, order_floor)

        result.final_states = dict(states)
        for consumer in self._consumers:
            if consumer.name not in states:
                continue
            try:
                result.results[consumer.name] = consumer.finalize(states[consumer.name])
            except AnalysisError as exc:
                result.errors[consumer.name] = exc
        return result

    def _run_serial(self, runnable: List[ChunkConsumer], states: Dict[str, object],
                    result: PipelineResult, start_chunk: int,
                    initial_states: Dict[str, object], order_floor: float) -> None:
        lane = list(runnable)
        for consumer in lane:
            states[consumer.name] = initial_states.get(consumer.name)
            if states[consumer.name] is None:
                states[consumer.name] = consumer.make_state()
        check_order = any(consumer.ordered for consumer in lane)
        counters = {"chunks": 0, "rows": 0}

        if start_chunk:
            store = self.source.backing
            start_row = int(sum(store.chunk_rows()[:start_chunk]))
            block_iter = store.iter_chunks(
                columns=self.columns(lane),
                chunk_indices=range(start_chunk, store.n_chunks))
        else:
            start_row = 0
            block_iter = self.source.iter_chunks(columns=self.columns(lane))
        index = start_chunk

        def chunks():
            nonlocal start_row, index
            for block in block_iter:
                yield ScanChunk(block, index, start_row)
                start_row += block.n_rows
                index += 1

        _fold_lane(self.source.name, chunks(), lane, states, result.errors,
                   check_order, counters, order_floor=order_floor)
        result.chunks_scanned = counters["chunks"]
        result.rows_scanned = counters["rows"]

    def _parallel_plan_applies(self, start_chunk: int) -> bool:
        if self.executor is None or not self.source.is_streaming:
            return False
        store = self.source.backing
        remaining = store.n_chunks - start_chunk
        n_workers = self.executor.effective_workers(max(remaining, 1))
        return n_workers > 1 and remaining > 1

    def _run_parallel(self, runnable: List[ChunkConsumer], states: Dict[str, object],
                      result: PipelineResult, start_chunk: int,
                      initial_states: Dict[str, object], order_floor: float) -> None:
        store = self.source.backing
        chunk_rows = store.chunk_rows()
        offsets = np.concatenate(([0], np.cumsum(chunk_rows)))[:-1].tolist()
        n_chunks = store.n_chunks
        scan_indices = list(range(start_chunk, n_chunks))

        ordered = [consumer for consumer in runnable if consumer.ordered]
        unordered = [consumer for consumer in runnable if not consumer.ordered]

        tasks = []
        if ordered:
            # One sequential lane sees every chunk in submit-time order;
            # restored ordered states ride along in the task payload (the
            # lane is a single worker, so the state ships exactly once).
            ordered_initial = {consumer.name: initial_states[consumer.name]
                               for consumer in ordered
                               if consumer.name in initial_states}
            tasks.append((ordered, scan_indices,
                          [offsets[i] for i in scan_indices],
                          self.columns(ordered), True, ordered_initial, order_floor))
        range_tasks = 0
        if unordered:
            n_workers = self.executor.effective_workers(max(len(scan_indices), 1))
            per_worker = -(-len(scan_indices) // n_workers) if scan_indices else 1
            columns = self.columns(unordered)
            for start in range(0, len(scan_indices), per_worker):
                indices = scan_indices[start:start + per_worker]
                tasks.append((unordered, indices, [offsets[i] for i in indices],
                              columns, False, None, -np.inf))
                range_tasks += 1

        partials = self.executor.map(_scan_worker, tasks,
                                     store_directory=store.directory)

        range_partials = partials[len(partials) - range_tasks:]
        if ordered:
            lane_states, lane_errors, _rows = partials[0]
            states.update(lane_states)
            result.errors.update(lane_errors)
        for consumer in unordered:
            # Restored unordered states never cross the process boundary:
            # workers fold fresh partials over the new chunk ranges and the
            # restored prefix state seeds the in-order merge here.
            merged = initial_states.get(consumer.name)
            error: Optional[AnalysisError] = None
            for lane_states, lane_errors, _rows in range_partials:
                if consumer.name in lane_errors:
                    error = error or lane_errors[consumer.name]
                elif error is None:
                    partial = lane_states[consumer.name]
                    merged = partial if merged is None else consumer.merge(merged, partial)
            if error is not None:
                result.errors[consumer.name] = error
            else:
                states[consumer.name] = merged
        result.chunks_scanned = len(scan_indices)
        result.rows_scanned = sum(rows for _states, _errors, rows in range_partials) \
            if range_tasks else (partials[0][2] if partials else 0)


def fold_consumer(source, consumer: ChunkConsumer, executor=None):
    """Run one consumer as its own (degenerate) shared scan.

    A consumer's result folded alone and inside a many-consumer pipeline
    come from literally the same code path.  Re-raises the consumer's
    recorded :class:`AnalysisError`, if any.
    """
    pipeline = ScanPipeline(source, executor=executor)
    pipeline.add(consumer)
    return pipeline.run().value(consumer.name)


# ---------------------------------------------------------------------------
# Checkpoints: persisted fold states + chunk watermark
# ---------------------------------------------------------------------------
def _json_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError("checkpoint payload value %r is not JSON-serializable" % (value,))


class Checkpoint:
    """Fold states of a shared scan, persisted next to the store as JSON+npz.

    :meth:`save` writes two files: ``<path>`` (JSON — the chunk/row
    watermark, manifest sequence, sortedness and every scalar/dict payload
    field) and ``<path>.npz`` (the NumPy array payload fields, keyed
    ``<consumer>::<field>``).  JSON floats round-trip exactly (``repr``
    serialization) and npz arrays are bit-preserving, so a restored state is
    *identical* to the state at capture time — the foundation of the
    incremental == full-rescan equality contract.

    The **chunk watermark** records how many chunks (and rows) of the store
    the states cover; :meth:`validate` re-checks it against the live manifest
    before a resume, so a store that was rewritten (rather than appended to)
    is rejected loudly instead of producing silently wrong statistics.
    """

    CHECKPOINT_VERSION = 1

    def __init__(self, store_directory: str, chunk_watermark: int,
                 row_watermark: int, manifest_sequence: int,
                 sorted_by_submit_time: bool, last_submit_time: Optional[float],
                 consumers: Dict[str, Dict[str, object]],
                 meta: Optional[Dict[str, object]] = None,
                 store_uid: Optional[str] = None):
        self.store_directory = str(store_directory)
        self.chunk_watermark = int(chunk_watermark)
        self.row_watermark = int(row_watermark)
        self.manifest_sequence = int(manifest_sequence)
        self.sorted_by_submit_time = bool(sorted_by_submit_time)
        self.last_submit_time = last_submit_time
        #: The store's random identity (``manifest["store_uid"]``) at capture
        #: time; a rewrite mints a new one, so resume against it is rejected.
        self.store_uid = store_uid
        #: consumer name -> snapshot payload (see :meth:`ChunkConsumer.snapshot`).
        self.consumers = consumers
        self.meta = dict(meta or {})

    @classmethod
    def capture(cls, store, consumers: Sequence[ChunkConsumer],
                final_states: Dict[str, object],
                errors: Optional[Dict[str, AnalysisError]] = None,
                meta: Optional[Dict[str, object]] = None) -> "Checkpoint":
        """Snapshot every resumable consumer's state after a completed scan.

        Consumers that are not resumable, errored during the scan, or whose
        snapshot itself raises are simply left out — a later resume gives
        them a full rescan instead.
        """
        errors = errors or {}
        payloads: Dict[str, Dict[str, object]] = {}
        for consumer in consumers:
            if not consumer.resumable or consumer.name in errors:
                continue
            if consumer.name not in final_states:
                continue
            try:
                payloads[consumer.name] = consumer.snapshot(final_states[consumer.name])
            except AnalysisError:
                continue
        last_submit: Optional[float] = None
        for index in range(store.n_chunks):
            zone = store.chunk_zone(index, "submit_time_s")
            if zone is not None:
                last_submit = zone[1] if last_submit is None else max(last_submit, zone[1])
        return cls(store_directory=store.directory,
                   chunk_watermark=store.n_chunks,
                   row_watermark=store.n_jobs,
                   manifest_sequence=getattr(store, "manifest_sequence", 0),
                   sorted_by_submit_time=store.sorted_by_submit_time,
                   last_submit_time=last_submit,
                   consumers=payloads, meta=meta,
                   store_uid=getattr(store, "store_uid", None))

    def validate(self, store) -> None:
        """Check that ``store`` is this checkpoint's store, grown append-only.

        Raises:
            AnalysisError: when the store is a different store entirely (the
                manifest ``store_uid`` minted at write time does not match),
                the store shrank, the checkpointed chunk prefix changed row
                counts (a rewrite, not an append), or the manifest sequence
                went backwards.
        """
        store_uid = getattr(store, "store_uid", None)
        if self.store_uid is not None and store_uid != self.store_uid:
            raise AnalysisError(
                "checkpoint belongs to a different store (store_uid %s, %s has "
                "%s); the store was rewritten or replaced — run a full scan "
                "instead of resuming"
                % (self.store_uid, store.directory, store_uid))
        if store.n_chunks < self.chunk_watermark:
            raise AnalysisError(
                "checkpoint covers %d chunks but store %s now has only %d; "
                "the store was rewritten — run a full scan instead of resuming"
                % (self.chunk_watermark, store.directory, store.n_chunks))
        prefix_rows = int(sum(store.chunk_rows()[:self.chunk_watermark]))
        if prefix_rows != self.row_watermark:
            raise AnalysisError(
                "checkpointed chunk prefix of %s changed (%d rows recorded, "
                "%d on disk); the store was rewritten — run a full scan "
                "instead of resuming"
                % (store.directory, self.row_watermark, prefix_rows))
        if getattr(store, "manifest_sequence", 0) < self.manifest_sequence:
            raise AnalysisError(
                "store %s manifest sequence went backwards (checkpoint saw %d); "
                "the store was rewritten — run a full scan instead of resuming"
                % (store.directory, self.manifest_sequence))

    def new_chunks(self, store) -> int:
        """How many chunks the store gained since this checkpoint."""
        return store.n_chunks - self.chunk_watermark

    # -- persistence -------------------------------------------------------
    def save(self, path: str) -> None:
        """Write ``<path>`` (JSON) and ``<path>.npz`` (array payload fields).

        Both files go through :func:`~repro.engine.codecs.durable_replace`
        (both temporaries durable, then arrays renamed before the JSON), and
        both carry the same freshly minted save token; :meth:`load` refuses
        a pair whose tokens disagree.  So rolling a checkpoint forward over
        an existing one can never leave a *silently* mismatched JSON/npz
        pair: a crash between the two renames is detected at load time
        instead of double-counting chunks.
        """
        save_token = uuid.uuid4().hex
        arrays: Dict[str, np.ndarray] = {
            "__save_token__": np.array([save_token])}
        consumer_docs: Dict[str, Dict[str, object]] = {}
        for name, payload in self.consumers.items():
            scalars: Dict[str, object] = {}
            array_fields: List[str] = []
            for field, value in payload.items():
                if isinstance(value, np.ndarray):
                    arrays["%s::%s" % (name, field)] = value
                    array_fields.append(field)
                else:
                    scalars[field] = value
            consumer_docs[name] = {"scalars": scalars, "arrays": array_fields}
        document = {
            "checkpoint_version": self.CHECKPOINT_VERSION,
            "save_token": save_token,
            "store_directory": self.store_directory,
            "store_uid": self.store_uid,
            "chunk_watermark": self.chunk_watermark,
            "row_watermark": self.row_watermark,
            "manifest_sequence": self.manifest_sequence,
            "sorted_by_submit_time": self.sorted_by_submit_time,
            "last_submit_time": self.last_submit_time,
            "meta": self.meta,
            "consumers": consumer_docs,
        }
        # Raw members (no deflate): zip still stores each member's CRC-32,
        # which ``load`` verifies on read.
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        # No sort_keys: dictionary payloads (e.g. the naming consumer's word
        # totals) rely on insertion order surviving the round trip — stable
        # sorts downstream break ties by it.
        text = json.dumps(document, indent=2, default=_json_default) + "\n"
        durable_replace([(path + ".npz", buffer.getbuffer()),
                         (path, text.encode("utf-8"))])

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read a checkpoint written by :meth:`save`.

        Raises:
            AnalysisError: for every unreadable pair — a missing, truncated
                or bit-flipped file, JSON that is not a checkpoint document,
                or JSON/npz halves from different saves — so a caller's
                cold-scan fallback always applies.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            raise AnalysisError("cannot read checkpoint %s: %s" % (path, exc))
        if not isinstance(document, dict):
            raise AnalysisError("cannot read checkpoint %s: not a JSON object" % (path,))
        if document.get("checkpoint_version") != cls.CHECKPOINT_VERSION:
            raise AnalysisError("unsupported checkpoint version %r in %s"
                                % (document.get("checkpoint_version"), path))
        consumers: Dict[str, Dict[str, object]] = {}
        array_path = path + ".npz"
        try:
            with np.load(array_path, allow_pickle=False) as archive:
                token = str(archive["__save_token__"][0]) \
                    if "__save_token__" in archive.files else None
                if token != document.get("save_token"):
                    raise AnalysisError(
                        "checkpoint files out of sync: %s and %s come from "
                        "different saves (an interrupted overwrite?); rerun "
                        "with --checkpoint to rewrite both" % (path, array_path))
                for name, doc in document.get("consumers", {}).items():
                    payload = dict(doc.get("scalars", {}))
                    for field in doc.get("arrays", []):
                        payload[field] = np.array(archive["%s::%s" % (name, field)])
                    consumers[name] = payload
        except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile,
                zlib.error) as exc:
            raise AnalysisError("cannot read checkpoint arrays %s: %s"
                                % (array_path, exc))
        try:
            return cls(store_directory=document["store_directory"],
                       chunk_watermark=document["chunk_watermark"],
                       row_watermark=document["row_watermark"],
                       manifest_sequence=document.get("manifest_sequence", 0),
                       sorted_by_submit_time=document.get("sorted_by_submit_time", False),
                       last_submit_time=document.get("last_submit_time"),
                       consumers=consumers,
                       meta=document.get("meta") or {},
                       store_uid=document.get("store_uid"))
        except (KeyError, TypeError, ValueError) as exc:
            raise AnalysisError("cannot read checkpoint %s: missing or malformed "
                                "field %s" % (path, exc))


def _merge_pipeline_results(target: PipelineResult, part: PipelineResult) -> None:
    target.results.update(part.results)
    target.errors.update(part.errors)
    target.final_states.update(part.final_states)
    target.chunks_scanned += part.chunks_scanned
    target.rows_scanned += part.rows_scanned


def run_resumable_scan(source, consumers: Sequence[ChunkConsumer], executor=None,
                       resume_from=None, checkpoint_to: Optional[str] = None,
                       meta: Optional[Dict[str, object]] = None):
    """Run one shared scan, resuming from a checkpoint when one is given.

    The generic form of the characterization scan's resume protocol, shared
    by the workload-profile scan (:mod:`repro.core.profile`) and the
    federation layer (:mod:`repro.engine.federation`).  With ``resume_from``,
    consumers split into a **resumed** lane (restored states folding only the
    appended chunks, ordered folds floored at the checkpoint's last submit
    time) and a **rescan** lane (full scan from chunk 0) — both over the same
    store handle, results merged.  Resumed results are bit-identical to a
    cold full rescan.

    Returns ``(merged, resume_report, saved_path)``: the merged
    :class:`PipelineResult`; a report dict (``chunk_watermark`` /
    ``new_chunks`` / ``resumed`` / ``rescanned`` reasons, or ``None`` for a
    plain full scan); and where the fresh checkpoint was saved, if asked.

    Raises:
        AnalysisError: when checkpoint arguments come with an in-memory
            source, or the checkpoint does not validate against the store
            (rewritten, shrunk, or a different store entirely) — callers
            wanting lenient behaviour catch this and scan cold.
    """
    source = TraceSource.wrap(source)
    if (resume_from is not None or checkpoint_to is not None) and not source.is_streaming:
        raise AnalysisError(
            "checkpoints require a store-backed source; %r is in memory "
            "(there is no chunk watermark to resume from)" % (source.name,))
    checkpoint: Optional[Checkpoint] = None
    if resume_from is not None:
        checkpoint = (Checkpoint.load(os.fspath(resume_from))
                      if not isinstance(resume_from, Checkpoint) else resume_from)
        checkpoint.validate(source.backing)

    resumed: List[ChunkConsumer] = []
    rescan: List[ChunkConsumer] = []
    reasons: Dict[str, str] = {}
    initial_states: Dict[str, object] = {}
    if checkpoint is None:
        rescan = list(consumers)
    else:
        store = source.backing
        for consumer in consumers:
            if not consumer.resumable:
                rescan.append(consumer)
                reasons[consumer.name] = ("not resumable: the consumer keeps no "
                                          "checkpointable state")
            elif consumer.name not in checkpoint.consumers:
                rescan.append(consumer)
                reasons[consumer.name] = "no state in the checkpoint"
            elif consumer.ordered and not store.sorted_by_submit_time:
                rescan.append(consumer)
                reasons[consumer.name] = ("ordered fold cannot resume: appended "
                                          "data interleaves in time (store is no "
                                          "longer sorted by submit time)")
            else:
                try:
                    initial_states[consumer.name] = consumer.restore(
                        checkpoint.consumers[consumer.name])
                    resumed.append(consumer)
                except AnalysisError as exc:
                    rescan.append(consumer)
                    reasons[consumer.name] = "checkpoint state unreadable: %s" % exc

    merged = PipelineResult()
    if resumed:
        pipeline = ScanPipeline(source, executor=executor)
        for consumer in resumed:
            pipeline.add(consumer)
        floor = (checkpoint.last_submit_time
                 if checkpoint.last_submit_time is not None else -np.inf)
        _merge_pipeline_results(merged, pipeline.run(
            start_chunk=checkpoint.chunk_watermark,
            initial_states=initial_states, order_floor=floor))
    if rescan:
        pipeline = ScanPipeline(source, executor=executor)
        for consumer in rescan:
            pipeline.add(consumer)
        _merge_pipeline_results(merged, pipeline.run())

    resume_report = None
    if checkpoint is not None:
        resume_report = {
            "chunk_watermark": checkpoint.chunk_watermark,
            "new_chunks": checkpoint.new_chunks(source.backing),
            "resumed": [consumer.name for consumer in resumed],
            "rescanned": reasons,
        }
    saved_path = None
    if checkpoint_to:
        fresh = Checkpoint.capture(source.backing, consumers, merged.final_states,
                                   merged.errors, meta=meta)
        fresh.save(os.fspath(checkpoint_to))
        saved_path = os.fspath(checkpoint_to)
    return merged, resume_report, saved_path


def scan_with_rolling_checkpoint(scan, checkpoint_path: Optional[str]):
    """Run ``scan`` under the rolling-checkpoint policy; returns its result.

    ``scan(resume_from=, checkpoint_to=)`` is any scan built on
    :func:`run_resumable_scan`.  The policy, stated once for the daemon's
    admission lanes and the federation's member scans: resume when the
    checkpoint file exists; if it no longer validates (store rewritten, file
    torn) scan cold instead of failing; either way save a fresh checkpoint
    over it.  Without a ``checkpoint_path``: scan cold, save nothing.
    """
    if checkpoint_path is None or not os.path.isfile(checkpoint_path):
        return scan(resume_from=None, checkpoint_to=checkpoint_path)
    try:
        return scan(resume_from=checkpoint_path, checkpoint_to=checkpoint_path)
    except AnalysisError:
        return scan(resume_from=None, checkpoint_to=checkpoint_path)


# ---------------------------------------------------------------------------
# Generic consumers
# ---------------------------------------------------------------------------
class SummaryConsumer(ChunkConsumer):
    """Table-1 summary fold: count, time bounds, byte/task-second totals.

    Folds the Table-1 quantities with the same mergeable aggregate states the
    engine query path uses, so the read-outs equal an engine aggregate query
    over the same columns.
    """

    columns = ("submit_time_s", "finish_time_s", "total_bytes", "total_task_seconds")
    resumable = True

    def __init__(self, name: str = "summary", trace_name: str = "trace",
                 machines: Optional[int] = None):
        self.name = name
        self.trace_name = trace_name
        self.machines = machines

    def make_state(self):
        return {"n_jobs": 0, "start": MinState(), "end": MaxState(),
                "bytes": SumState(), "task_seconds": SumState()}

    def snapshot(self, state) -> Dict[str, object]:
        return {"n_jobs": int(state["n_jobs"]),
                "start": state["start"].value,
                "end": state["end"].value,
                "bytes": state["bytes"].total,
                "task_seconds": state["task_seconds"].total}

    def restore(self, payload: Dict[str, object]):
        state = self.make_state()
        state["n_jobs"] = int(payload["n_jobs"])
        state["start"].value = None if payload["start"] is None else float(payload["start"])
        state["end"].value = None if payload["end"] is None else float(payload["end"])
        state["bytes"].total = float(payload["bytes"])
        state["task_seconds"].total = float(payload["task_seconds"])
        return state

    def fold(self, state, chunk: ScanChunk):
        state["n_jobs"] += chunk.n_rows
        state["start"].update(chunk.column("submit_time_s"))
        state["end"].update(chunk.column("finish_time_s"))
        state["bytes"].update(chunk.column("total_bytes"))
        state["task_seconds"].update(chunk.column("total_task_seconds"))
        return state

    def merge(self, a, b):
        a["n_jobs"] += b["n_jobs"]
        for key in ("start", "end", "bytes", "task_seconds"):
            a[key].merge(b[key])
        return a

    def finalize(self, state):
        from ..traces.trace import TraceSummary

        if state["n_jobs"] == 0:
            return TraceSummary(name=self.trace_name, machines=self.machines,
                                length_s=0.0, start_s=0.0, end_s=0.0, n_jobs=0,
                                bytes_moved=0.0, total_task_seconds=0.0)
        start = float(state["start"].result() or 0.0)
        end = float(state["end"].result() or 0.0)
        return TraceSummary(
            name=self.trace_name,
            machines=self.machines,
            length_s=end - start,
            start_s=start,
            end_s=end,
            n_jobs=int(state["n_jobs"]),
            bytes_moved=float(state["bytes"].result()),
            total_task_seconds=float(state["task_seconds"].result()),
        )


def find_store_checkpoints(store, extra_directories: Sequence[str] = ()) -> List[str]:
    """Best-effort scan for checkpoint files that reference ``store``.

    Looks for ``*.json`` files inside the store directory, its parent, and
    any ``extra_directories``, and returns the paths of those that parse as
    :class:`Checkpoint` documents (``checkpoint_version`` key) whose
    ``store_uid`` or ``store_directory`` points at ``store``.  ``engine
    convert --store`` uses this to refuse a re-encode whose output would
    orphan a live checkpoint: conversion mints a fresh ``store_uid``, so a
    resume against the converted copy would be rejected only *after* the
    caller had already discarded the original.

    Checkpoints saved elsewhere (an absolute ``--checkpoint`` path in some
    unrelated directory) are out of scan range — this is a guard rail, not a
    registry.
    """
    directory = os.path.abspath(store.directory)
    uid = getattr(store, "store_uid", None)
    found: List[str] = []
    scanned = set()
    for base in (directory, os.path.dirname(directory), *extra_directories):
        base = os.path.abspath(base)
        if base in scanned or not os.path.isdir(base):
            continue
        scanned.add(base)
        for entry in sorted(os.listdir(base)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(base, entry)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
            except (OSError, ValueError):
                continue
            if not isinstance(document, dict) or "checkpoint_version" not in document:
                continue
            doc_uid = document.get("store_uid")
            doc_dir = document.get("store_directory")
            if (uid is not None and doc_uid == uid) or (
                    doc_dir and os.path.abspath(str(doc_dir)) == directory):
                found.append(path)
    return found
