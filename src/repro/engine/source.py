"""`TraceSource`: one uniform handle over every trace representation.

The analysis layer (``repro.core`` and ``repro.bench``) historically consumed
fully materialized job-list :class:`~repro.traces.trace.Trace` objects, which
at FB-2010 scale (1.17M jobs) costs gigabytes of resident Python objects.
:class:`TraceSource` wraps any of the three representations —

* a job-list :class:`~repro.traces.trace.Trace` (materialized),
* an in-memory :class:`~repro.engine.columnar.ColumnarTrace` (materialized),
* an on-disk :class:`~repro.engine.store.ChunkedTraceStore` (streaming),

behind one protocol: chunked column scans (:meth:`iter_chunks`), engine
:class:`~repro.engine.operators.Query` execution (:meth:`query`), whole-column
access for the exact in-memory paths (:meth:`dimension`), and the time
bounds and per-hour group-bys a few analyses read directly.  Analyses written
against this class run identically on a 100-job fixture and a 100-GB store,
with memory bounded by chunk size in the streaming case.

The :attr:`is_streaming` flag says where the data lives; the analyses fold
the same chunk consumers over every representation.  It decides how a source
is read (cached columnar slices or chunk reads, serial or fanned over
workers, whether a checkpoint applies) and, in the analysis layer, exactly
one answer: the Figure-1 size CDF is exact for an in-memory source and a
mergeable log-histogram sketch for a store
(:meth:`repro.core.datasizes.DataSizeConsumer.for_source`; the table is in
``docs/architecture.md``).  Counts, sums, means, min/max and every
dictionary-based statistic (Zipf ranks, re-access fractions, naming shares)
are exact for **all** representations.

Usage::

    >>> from repro.engine import TraceSource, Query
    >>> from repro.traces import Job, Trace
    >>> trace = Trace([Job(job_id="a", submit_time_s=0.0, duration_s=50.0,
    ...                    input_bytes=5e9, shuffle_bytes=0.0, output_bytes=1e8,
    ...                    map_task_seconds=100.0, reduce_task_seconds=0.0)],
    ...               name="tiny")
    >>> source = TraceSource.wrap(trace)
    >>> source.is_streaming, len(source)
    (False, 1)
    >>> result = source.query(Query().aggregate(bytes=("sum", "input_bytes")))
    >>> result.aggregates["bytes"]
    5000000000.0
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

import numpy as np

from ..errors import AnalysisError
from ..traces.schema import Job, NUMERIC_DIMENSIONS
from ..traces.trace import Trace
from .columnar import DEFAULT_CHUNK_ROWS, ColumnBlock, ColumnarTrace
from .operators import Query, QueryResult, execute
from .store import ChunkedTraceStore

__all__ = ["TraceSource"]


def _nan_to_zero(array: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(array), 0.0, array)


class TraceSource:
    """Uniform, lazily-evaluated view over a trace in any representation.

    Construct with :meth:`wrap` (idempotent — wrapping a ``TraceSource``
    returns it unchanged).  The wrapped object is available as
    :attr:`backing`; materialized backings are converted to columnar form on
    first columnar access and the conversion is cached.
    """

    def __init__(self, backing):
        if isinstance(backing, TraceSource):
            backing = backing.backing
        if not isinstance(backing, (Trace, ColumnarTrace, ChunkedTraceStore)):
            raise AnalysisError(
                "TraceSource wraps a Trace, ColumnarTrace or ChunkedTraceStore, "
                "got %r" % type(backing).__name__)
        self.backing = backing
        self._columnar: Optional[ColumnarTrace] = (
            backing if isinstance(backing, ColumnarTrace) else None)

    @classmethod
    def wrap(cls, source) -> "TraceSource":
        """Wrap any supported representation (no-op for a ``TraceSource``)."""
        if isinstance(source, cls):
            return source
        return cls(source)

    # -- identity ----------------------------------------------------------
    @property
    def name(self) -> str:
        return self.backing.name

    @property
    def machines(self) -> Optional[int]:
        return self.backing.machines

    @property
    def is_streaming(self) -> bool:
        """True when data lives out of core (a :class:`ChunkedTraceStore`)."""
        return isinstance(self.backing, ChunkedTraceStore)

    def __len__(self) -> int:
        return len(self.backing)

    @property
    def n_jobs(self) -> int:
        return len(self)

    def is_empty(self) -> bool:
        return len(self) == 0

    def __repr__(self) -> str:
        return "TraceSource(%r, n_jobs=%d, streaming=%s)" % (
            self.name, len(self), self.is_streaming)

    # -- representation access ---------------------------------------------
    def columnar(self) -> ColumnarTrace:
        """The data as an in-memory :class:`ColumnarTrace`.

        For a materialized backing this converts once and caches; for a
        streaming backing it loads the **whole** store — only call it on paths
        that have decided to pay for materialization.
        """
        if self._columnar is None:
            if isinstance(self.backing, Trace):
                self._columnar = self.backing.to_columnar()
            else:  # ChunkedTraceStore
                self._columnar = self.backing.load_columnar()
        return self._columnar

    def materialize(self) -> Trace:
        """The data as a job-list :class:`Trace` (identity for Trace backings).

        Used by the replay-simulation experiments that need real ``Job``
        objects; the characterization statistics never call this.
        """
        if isinstance(self.backing, Trace):
            return self.backing
        return self.backing.to_trace()

    # -- the scan protocol ---------------------------------------------------
    def iter_chunks(self, columns: Optional[Sequence[str]] = None,
                    chunk_rows: int = DEFAULT_CHUNK_ROWS,
                    predicates: Optional[Sequence] = None) -> Iterator[ColumnBlock]:
        """Yield the trace as :class:`ColumnBlock` batches.

        Streaming backings read one chunk (only the requested columns) at a
        time; materialized backings yield view-backed slices of the cached
        columnar form.  Requesting a column the source does not record raises
        :class:`AnalysisError` via the block/chunk readers.

        ``predicates`` (a sequence of :class:`~repro.engine.operators.Predicate`)
        filters the stream: store backings first skip whole chunks whose zone
        maps cannot match — including on the derived ``submit_hour`` column,
        whose zone resolves through the stored ``submit_time_s`` range — and
        the surviving chunks are row-filtered before being yielded.
        """
        if predicates:
            return self._iter_filtered_chunks(columns, chunk_rows, tuple(predicates))
        if self.is_streaming:
            return self.backing.iter_chunks(columns=columns)
        return self.columnar().iter_chunks(columns=columns, chunk_rows=chunk_rows)

    def _iter_filtered_chunks(self, columns, chunk_rows, predicates) -> Iterator[ColumnBlock]:
        from .operators import _apply_filters

        wanted = None
        if columns is not None:
            wanted = list(columns)
            for predicate in predicates:
                if predicate.column not in wanted:
                    wanted.append(predicate.column)
        if self.is_streaming:
            store = self.backing
            for index in range(store.n_chunks):
                if not all(predicate.admits_zone(store.chunk_zone(index, predicate.column))
                           for predicate in predicates):
                    continue  # zone map proves no row can match: never read
                yield _apply_filters(store.read_chunk(index, columns=wanted), predicates)
        else:
            for block in self.columnar().iter_chunks(columns=wanted, chunk_rows=chunk_rows):
                yield _apply_filters(block, predicates)

    def has_column(self, name: str) -> bool:
        """Whether the source records ``name`` (derived columns included)."""
        if self.is_streaming:
            return self.backing.has_column(name)
        return self.columnar().block.has_column(name)

    def query(self, query: Query, executor=None) -> QueryResult:
        """Execute an engine :class:`Query` against this source.

        ``executor`` (a :class:`~repro.engine.parallel.ParallelExecutor`) fans
        aggregate queries over worker processes for streaming backings.
        """
        if executor is not None and self.is_streaming and query.is_aggregate_only():
            return executor.run(self.backing, query)
        return execute(self.backing if self.is_streaming else self.columnar(), query)

    # -- whole-column access (exact, materializes one column) ----------------
    def dimension(self, name: str) -> np.ndarray:
        """One numeric column as a full float array (NaN = not recorded).

        For materialized backings this is a view of the cached columnar
        arrays.  For streaming backings the single column is concatenated
        from chunks — 8 bytes/row, deliberately cheap compared to
        materializing jobs — so the exact statistics that genuinely need a
        full column (k-means features, correlation series) stay available.
        """
        if not self.is_streaming:
            return self.columnar().dimension(name)
        blocks = [block.column(name)
                  for block in self.backing.iter_chunks(columns=[name])]
        return np.concatenate(blocks) if blocks else np.zeros(0)

    def feature_matrix(self) -> np.ndarray:
        """The (n_jobs, 6) k-means feature matrix, fed from column chunks."""
        if not self.is_streaming:
            return self.columnar().feature_matrix()
        batches = list(self.feature_batches())
        if not batches:
            return np.zeros((0, len(NUMERIC_DIMENSIONS)))
        return np.vstack(batches)

    def feature_batches(self, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> Iterator[np.ndarray]:
        """Yield (chunk_rows, 6) feature batches — the mini-batch k-means feed."""
        for block in self.iter_chunks(columns=list(NUMERIC_DIMENSIONS),
                                      chunk_rows=chunk_rows):
            if block.n_rows == 0:
                continue
            yield np.column_stack([
                _nan_to_zero(block.column(dim)) for dim in NUMERIC_DIMENSIONS])

    def iter_jobs(self) -> Iterator[Job]:
        """Yield :class:`Job` objects one chunk at a time (replay feeding)."""
        if isinstance(self.backing, Trace):
            return iter(self.backing.jobs)
        return self.backing.iter_jobs()

    # -- scan-derived summaries ----------------------------------------------
    def time_bounds(self) -> "tuple[float, float]":
        """(first submit, last finish) in seconds; ``(0, 0)`` when empty."""
        if self.is_empty():
            return 0.0, 0.0
        if isinstance(self.backing, Trace):
            jobs = self.backing.jobs
            return float(jobs[0].submit_time_s), float(max(j.finish_time_s for j in jobs))
        result = self.query(Query().aggregate(start=("min", "submit_time_s"),
                                              end=("max", "finish_time_s")))
        start = result.aggregates["start"]
        end = result.aggregates["end"]
        return float(start if start is not None else 0.0), float(end if end is not None else 0.0)

    def duration_s(self) -> float:
        start, end = self.time_bounds()
        return max(0.0, end - start)

    def hourly_groups(self, **aggregate_specs) -> Dict[int, Dict[str, object]]:
        """Per-hour group-by over the whole trace: ``{hour: {label: value}}``.

        ``aggregate_specs`` are engine aggregate ``label=(op, column)`` pairs;
        the grouping key is the derived ``submit_hour`` column
        (``floor(submit_time_s / 3600)``).  This is the one-scan substrate of
        :func:`repro.core.temporal.hourly_totals`.
        """
        result = self.query(Query().aggregate(**aggregate_specs).group_by("submit_hour"))
        groups: Dict[int, Dict[str, object]] = {}
        for key, values in (result.groups or {}).items():
            if key is None:
                continue  # jobs with no recorded submit time
            groups[int(key)] = values
        return groups
