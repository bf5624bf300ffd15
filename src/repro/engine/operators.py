"""Lazy scan operators over columnar traces and chunked stores.

A :class:`Query` is a small, immutable, picklable description of a scan
pipeline::

    scan -> filter* -> project -> (aggregate | group-by aggregate | top-k | collect)

Execution streams one chunk at a time from any *scan source* — an in-memory
:class:`~repro.engine.columnar.ColumnarTrace` or an on-disk
:class:`~repro.engine.store.ChunkedTraceStore` — so memory stays bounded by
chunk size regardless of trace size.  Three classic optimizations apply:

* **column pruning** — only the columns the query touches are loaded;
* **zone-map chunk skipping** — chunks whose recorded min/max range cannot
  satisfy a filter are never read (NeedleTail-style early discard);
* **short-circuiting** — ``limit`` stops the scan as soon as enough rows have
  been collected, and a pure ``count``/``limit`` probe never loads data
  columns at all.

Because a query is plain data (no lambdas), the same object can be shipped to
worker processes by :class:`~repro.engine.parallel.ParallelExecutor`, which
evaluates disjoint chunk sets and merges the mergeable partial aggregates from
:mod:`repro.engine.aggregates`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from .aggregates import GroupedAggregates, UngroupedAggregates, make_aggregate
from .columnar import ColumnBlock

__all__ = ["Predicate", "Query", "QueryResult", "execute", "PREDICATE_OPS"]

PREDICATE_OPS = ("==", "!=", "<", "<=", ">", ">=", "finite")


@dataclass(frozen=True)
class Predicate:
    """One ``column <op> value`` filter; plain data so it pickles and prunes.

    ``op`` is one of :data:`PREDICATE_OPS`.  ``finite`` keeps rows whose value
    is recorded (non-NaN) and ignores ``value``.  String columns support
    ``==`` / ``!=`` only.
    """

    column: str
    op: str
    value: object = None

    def __post_init__(self):
        if self.op not in PREDICATE_OPS:
            raise AnalysisError("unknown predicate op %r (supported: %s)"
                                % (self.op, ", ".join(PREDICATE_OPS)))

    def mask(self, block: ColumnBlock) -> np.ndarray:
        pair = block.codes_for(self.column)
        if pair is not None:
            # Dictionary-encoded (v3) column: resolve the literal against the
            # dictionary once, then compare uint32 codes — the strings of this
            # chunk are never materialized.
            codes, table = pair
            if self.op == "finite":
                return block.recorded_mask(self.column)
            if self.op in ("==", "!="):
                code = table.lookup(str(self.value))
                if code is None:  # value not in the store at all
                    full = np.zeros(codes.shape[0], dtype=bool)
                    return ~full if self.op == "!=" else full
                return codes == np.uint32(code) if self.op == "==" \
                    else codes != np.uint32(code)
            raise AnalysisError("string column %r only supports ==/!=, got %r"
                                % (self.column, self.op))
        values = block.column(self.column)
        if self.op == "finite":
            if values.dtype.kind in "US":
                return values != ""
            return np.isfinite(values)
        if values.dtype.kind in "US":
            if self.op == "==":
                return values == str(self.value)
            if self.op == "!=":
                return values != str(self.value)
            raise AnalysisError("string column %r only supports ==/!=, got %r"
                                % (self.column, self.op))
        try:
            value = float(self.value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise AnalysisError("numeric column %r cannot be compared to %r"
                                % (self.column, self.value))
        if self.op == "==":
            return values == value
        if self.op == "!=":
            return values != value
        if self.op == "<":
            return values < value
        if self.op == "<=":
            return values <= value
        if self.op == ">":
            return values > value
        return values >= value

    def admits_zone(self, zone: Optional[Sequence[float]]) -> bool:
        """Can any row of a chunk with finite-value range ``zone`` match?

        ``zone`` is the [min, max] recorded in the store manifest, or ``None``
        when unavailable (string columns, absent columns) — in which case the
        chunk must be scanned.  NaN rows never satisfy a comparison, so a zone
        over finite values is sound.  A zone carrying NaN *bounds* (a
        hand-written or corrupted manifest — the store writer only records
        finite extrema) is unreliable and admits the chunk: every comparison
        against NaN is false, which would otherwise silently skip rows.
        """
        if zone is None or self.op in ("finite", "!="):
            return True
        try:
            value = float(self.value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return True
        low, high = (float(zone[0]), float(zone[1]))
        if np.isnan(low) or np.isnan(high):
            return True
        if self.op == "==":
            return low <= value <= high
        if self.op == "<":
            return low < value
        if self.op == "<=":
            return low <= value
        if self.op == ">":
            return high > value
        return high >= value


@dataclass(frozen=True)
class Query:
    """Immutable scan-pipeline description; build with the fluent methods."""

    predicates: Tuple[Predicate, ...] = ()
    projection: Optional[Tuple[str, ...]] = None
    aggregates: Tuple[Tuple[str, str, str], ...] = ()  # (label, op, column)
    group_column: Optional[str] = None
    top_k_column: Optional[str] = None
    top_k: int = 0
    top_k_largest: bool = True
    row_limit: Optional[int] = None

    # -- builders ----------------------------------------------------------
    def filter(self, column: str, op: str, value: object = None) -> "Query":
        return replace(self, predicates=self.predicates + (Predicate(column, op, value),))

    def project(self, columns: Sequence[str]) -> "Query":
        return replace(self, projection=tuple(columns))

    def aggregate(self, **specs: Tuple[str, str]) -> "Query":
        """Add aggregates: ``label=(op, column)`` pairs."""
        added = tuple((label, op, column) for label, (op, column) in specs.items())
        return replace(self, aggregates=self.aggregates + added)

    def count(self, label: str = "count") -> "Query":
        """Count rows passing the filters (uses the always-present submit column)."""
        return replace(self, aggregates=self.aggregates + ((label, "rows", "submit_time_s"),))

    def group_by(self, column: str) -> "Query":
        return replace(self, group_column=column)

    def top(self, column: str, k: int, largest: bool = True) -> "Query":
        if k <= 0:
            raise AnalysisError("top-k needs k >= 1, got %r" % (k,))
        return replace(self, top_k_column=column, top_k=k, top_k_largest=largest)

    def limit(self, n: int) -> "Query":
        if n < 0:
            raise AnalysisError("limit must be non-negative, got %r" % (n,))
        return replace(self, row_limit=n)

    # -- plan introspection ------------------------------------------------
    def validate(self) -> None:
        if self.aggregates and self.top_k_column:
            raise AnalysisError("a query cannot combine aggregates with top-k")
        if self.group_column and not self.aggregates:
            raise AnalysisError("group_by requires at least one aggregate")
        for label, op, column in self.aggregates:
            if op != "rows":
                make_aggregate(op)  # raises on unknown op

    def is_aggregate_only(self) -> bool:
        return bool(self.aggregates) and self.top_k_column is None

    def required_columns(self) -> Optional[List[str]]:
        """The minimal column set the query touches (None = all columns)."""
        needed: List[str] = []

        def add(name: str) -> None:
            if name not in needed:
                needed.append(name)

        for predicate in self.predicates:
            add(predicate.column)
        for _label, _op, column in self.aggregates:
            add(column)
        if self.group_column:
            add(self.group_column)
        if self.top_k_column:
            add(self.top_k_column)
        if self.aggregates or self.top_k_column:
            if self.projection:
                for name in self.projection:
                    add(name)
            return needed
        if self.projection is None:
            return None  # plain collect: keep every column
        for name in self.projection:
            add(name)
        return needed


@dataclass
class QueryResult:
    """Outcome of executing a :class:`Query` against a scan source.

    Exactly one of ``aggregates`` / ``groups`` / ``rows`` is populated,
    matching the query shape.  The scan counters record how much work the
    chunk-skipping and short-circuiting saved.
    """

    aggregates: Optional[Dict[str, object]] = None
    groups: Optional[Dict[object, Dict[str, object]]] = None
    rows: Optional[ColumnBlock] = None
    rows_scanned: int = 0
    rows_matched: int = 0
    chunks_scanned: int = 0
    chunks_skipped: int = 0
    #: The planner's access-path decision (:class:`repro.engine.planner.Plan`)
    #: when the query ran against a store through the planner; None otherwise.
    plan: Optional[object] = None

    def row_dicts(self) -> List[Dict[str, object]]:
        """Collected rows as plain dicts (handy for CLI printing and tests)."""
        if self.rows is None:
            return []
        names = self.rows.column_names()
        arrays = [self.rows.column(name) for name in names]
        return [
            {name: _python_value(array[row]) for name, array in zip(names, arrays)}
            for row in range(self.rows.n_rows)
        ]


def _python_value(value):
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
def _iter_source_chunks(source, columns, predicates,
                        chunk_indices: Optional[Sequence[int]] = None,
                        admit: bool = False):
    """Yield ``(block or None, skipped)`` per chunk, applying zone pruning."""
    zone_aware = hasattr(source, "chunk_zone")
    if zone_aware:
        # Only a store knows ``admit``; any other zone-aware source is asked
        # for ``read_chunk(index, columns=...)`` and nothing more.
        read_chunk = partial(source.read_chunk, admit=True) if admit else source.read_chunk
        indices = list(chunk_indices) if chunk_indices is not None else list(range(source.n_chunks))
        for index in indices:
            # chunk_zone answers None for columns without a recorded zone
            # (strings, unknown names) and resolves derived columns such as
            # submit_hour, so every predicate can be consulted directly.
            admitted = all(
                predicate.admits_zone(source.chunk_zone(index, predicate.column))
                for predicate in predicates
            )
            if not admitted:
                yield None, True
                continue
            yield read_chunk(index, columns=columns), False
    else:
        for block in source.iter_chunks(columns=columns):
            yield block, False


def execute(source, query: Query, chunk_indices: Optional[Sequence[int]] = None,
            use_planner: bool = True, admit: bool = False) -> QueryResult:
    """Run ``query`` against ``source``, streaming one chunk at a time.

    ``source`` is anything with ``iter_chunks(columns=...)`` — a
    :class:`ColumnarTrace` or a :class:`ChunkedTraceStore` (the latter also
    gets zone-map chunk skipping).  ``chunk_indices`` restricts the scan to a
    subset of a store's chunks (used by the parallel executor).

    Store-backed queries route through :mod:`repro.engine.planner`, which
    picks index-probe vs zone-skip vs full scan from the store's index
    sidecar (when one exists and is fresh) and attaches its :class:`Plan` to
    the result.  ``use_planner=False`` forces the raw scan path — the
    planner itself, the parallel executor's per-worker chunk subsets, and
    benchmarks comparing access paths use it.  ``admit`` is the planner's:
    its index-skip scan inserts the blocks it misses into the decoded-block
    cache (:mod:`repro.engine.blockcache`); every other scan reads through.
    """
    query.validate()
    if (use_planner and chunk_indices is None
            and hasattr(source, "chunk_zone") and hasattr(source, "directory")):
        from .planner import execute_planned

        return execute_planned(source, query)
    if query.is_aggregate_only():
        return _aggregate_result(query, *_fold_aggregates(source, query, chunk_indices, admit))
    columns = query.required_columns()
    result = QueryResult()
    if query.top_k_column is not None:
        return _execute_top_k(source, query, columns, chunk_indices, result, admit)
    return _execute_collect(source, query, columns, chunk_indices, result, admit)


def _fold_aggregates(source, query: Query, chunk_indices: Optional[Sequence[int]] = None,
                     admit: bool = False):
    """Scan and fold an aggregate-shaped query: ``(state, result)``, unread.

    The state is still mergeable: :func:`execute` reads it out directly, a
    parallel worker ships it to the parent, which merges the partials first.
    ``result`` carries only the scan counters.
    """
    state = (UngroupedAggregates(query.aggregates) if query.group_column is None
             else GroupedAggregates(query.aggregates, query.group_column))
    result = QueryResult()
    for block, skipped in _iter_source_chunks(source, query.required_columns(),
                                              query.predicates, chunk_indices, admit):
        if skipped:
            result.chunks_skipped += 1
            continue
        result.chunks_scanned += 1
        result.rows_scanned += block.n_rows
        block = _apply_filters(block, query.predicates)
        result.rows_matched += block.n_rows
        if block.n_rows:
            state.update(block)
    return state, result


def _aggregate_result(query: Query, state, result: QueryResult) -> QueryResult:
    if query.group_column is None:
        result.aggregates = state.result()
    else:
        result.groups = state.result()
    return result


def _apply_filters(block: ColumnBlock, predicates: Tuple[Predicate, ...]) -> ColumnBlock:
    if not predicates:
        return block
    mask = predicates[0].mask(block)
    for predicate in predicates[1:]:
        if not mask.any():
            break
        mask &= predicate.mask(block)
    return block.select(mask)


def _execute_top_k(source, query: Query, columns, chunk_indices, result: QueryResult,
                   admit: bool) -> QueryResult:
    """Heap-merge per-chunk top-k candidates; only k rows live at a time."""
    heap: List[Tuple[float, int, ColumnBlock]] = []  # (keyed value, tiebreak, 1-row block)
    sign = 1.0 if query.top_k_largest else -1.0
    tiebreak = 0
    for block, skipped in _iter_source_chunks(source, columns, query.predicates,
                                              chunk_indices, admit):
        if skipped:
            result.chunks_skipped += 1
            continue
        result.chunks_scanned += 1
        result.rows_scanned += block.n_rows
        block = _apply_filters(block, query.predicates)
        result.rows_matched += block.n_rows
        values = block.column(query.top_k_column)
        finite = np.isfinite(values)
        if not finite.all():
            block = block.select(finite)
            values = values[finite]
        if values.size == 0:
            continue
        k = query.top_k
        if values.size > k:
            # Keep only this chunk's k best candidates before heap insertion.
            # Sorting the selection restores store order within the chunk, so
            # the heap's insertion-order tiebreak is deterministic (global
            # store position) — the index-backed top-k path reproduces the
            # same tie semantics from the sorted permutation.
            order = np.sort(np.argpartition(sign * values, -k)[-k:])
            block = block.take(order)
            values = values[order]
        for row in range(values.size):
            entry = (sign * float(values[row]), tiebreak, block.slice(row, row + 1))
            tiebreak += 1
            if len(heap) < query.top_k:
                heapq.heappush(heap, entry)
            else:
                heapq.heappushpop(heap, entry)
    ranked = sorted(heap, key=lambda item: (-item[0], item[1]))
    rows = [entry[2] for entry in ranked]
    merged = ColumnBlock.concat(rows) if rows else None
    if merged is not None and query.projection:
        merged = merged.project(query.projection)
    result.rows = merged if merged is not None else ColumnBlock({})
    return result


def _execute_collect(source, query: Query, columns, chunk_indices, result: QueryResult,
                     admit: bool) -> QueryResult:
    """Materialize filtered/projected rows, short-circuiting on ``limit``."""
    limit = query.row_limit
    collected: List[ColumnBlock] = []
    n_collected = 0
    for block, skipped in _iter_source_chunks(source, columns, query.predicates,
                                              chunk_indices, admit):
        if skipped:
            result.chunks_skipped += 1
            continue
        result.chunks_scanned += 1
        result.rows_scanned += block.n_rows
        block = _apply_filters(block, query.predicates)
        result.rows_matched += block.n_rows
        if query.projection:
            block = block.project(query.projection)
        if limit is not None and n_collected + block.n_rows > limit:
            block = block.slice(0, limit - n_collected)
        if block.n_rows:
            collected.append(block)
            n_collected += block.n_rows
        if limit is not None and n_collected >= limit:
            break  # short-circuit: later chunks are never read
    result.rows = ColumnBlock.concat(collected) if collected else ColumnBlock({})
    return result
