"""Columnar trace engine: out-of-core storage and parallel analytical scans.

This subsystem scales the library's read-mostly analyses past what a Python
list of :class:`~repro.traces.schema.Job` objects can hold:

* :mod:`repro.engine.columnar` — :class:`ColumnarTrace`, one contiguous NumPy
  array per job dimension, with Trace-compatible analytical accessors;
* :mod:`repro.engine.store` — :class:`ChunkedTraceStore`, a chunked columnar
  on-disk format (format v3: per-column compressed blocks with
  dictionary-encoded strings, read code-natively) with a JSON manifest and
  per-chunk zone maps, written and read without ever materializing the full
  job list; legacy v1/v2 stores migrate through ``repro engine convert
  --store``;
* :mod:`repro.engine.codecs` — the v3 block codec registry (stdlib
  ``zlib``/``lzma``, optional ``zstd``/``lz4``), bit-exact delta coding, and
  the append-only :class:`StoreDictionary` string tables;
* :mod:`repro.engine.blockcache` — the byte-budgeted LRU of decoded v3
  column blocks behind ``read_chunk``: index-backed plans admit, whole-store
  passes only read through;
* :mod:`repro.engine.operators` — lazy ``scan → filter → project →
  group-by/aggregate → top-k/limit`` pipelines with column pruning, zone-map
  chunk skipping, and limit short-circuiting;
* :mod:`repro.engine.indexes` — secondary index sidecars (sorted-permutation
  indexes for numeric columns, inverted indexes over v3 dictionary codes,
  per-chunk density stats), built chunk-at-a-time and extended on append;
* :mod:`repro.engine.planner` — the cost-aware access-path planner: per
  predicate, index-probe vs zone-skip vs full scan, with an inspectable
  :class:`Plan` on every store query result;
* :mod:`repro.engine.aggregates` — mergeable partial aggregates (count, sum,
  min, max, mean, log-histogram percentile/CDF sketches);
* :mod:`repro.engine.parallel` — a ``multiprocessing`` executor that fans
  chunk scans out over workers (each opening the store once) and merges the
  partials;
* :mod:`repro.engine.pipeline` — :class:`ScanPipeline`, the shared-scan
  runner: N analyses fold over one decoded pass of the store.

Quickstart — write a store from any job iterable (here, two literal jobs),
then run a filtered aggregate over it without materializing the rows::

    >>> import tempfile, os
    >>> from repro.engine import ChunkedTraceStore, Query, execute
    >>> from repro.traces import Job
    >>> jobs = [Job(job_id="a", submit_time_s=0.0, duration_s=50.0,
    ...             input_bytes=5e9, shuffle_bytes=0.0, output_bytes=1e8,
    ...             map_task_seconds=100.0, reduce_task_seconds=0.0),
    ...         Job(job_id="b", submit_time_s=10.0, duration_s=20.0,
    ...             input_bytes=2e7, shuffle_bytes=0.0, output_bytes=1e6,
    ...             map_task_seconds=40.0, reduce_task_seconds=0.0)]
    >>> directory = os.path.join(tempfile.mkdtemp(), "tiny.store")
    >>> store = ChunkedTraceStore.write(directory, iter(jobs))
    >>> query = (Query()
    ...          .filter("input_bytes", ">", 1e9)
    ...          .aggregate(jobs=("count", "input_bytes"),
    ...                     bytes=("sum", "input_bytes")))
    >>> result = execute(store, query)
    >>> result.aggregates["jobs"], result.aggregates["bytes"]
    (1, 5000000000.0)

The same store can be replayed with bounded memory by
:class:`repro.simulator.StreamingReplayer`, and swept across scheduler/cache
scenarios by :class:`repro.simulator.ScenarioSweep` — see
:mod:`repro.simulator.replay` and :mod:`repro.simulator.sweep`.
"""

from .aggregates import (
    AGGREGATE_OPS,
    AggregateState,
    CDFState,
    CountState,
    HistogramSketch,
    MaxState,
    MeanState,
    MinState,
    PercentileState,
    SumState,
    make_aggregate,
    parse_aggregate_spec,
)
from .blockcache import block_cache_stats, clear_block_cache
from .catalog import CATALOG_METADATA_NAME, CatalogEntry, StoreCatalog
from .federation import FederatedSource, MemberScan
from .codecs import (
    DEFAULT_CODEC,
    StoreDictionary,
    StringDictionary,
    available_codecs,
    register_codec,
)
from .columnar import (
    DEFAULT_CHUNK_ROWS,
    NUMERIC_COLUMNS,
    STRING_COLUMNS,
    ColumnBlock,
    ColumnarTrace,
)
from .indexes import (
    InvertedColumnIndex,
    SortedColumnIndex,
    StaleIndexError,
    StoreIndexes,
    build_indexes,
    drop_indexes,
    indexable_columns,
    load_indexes,
)
from .operators import PREDICATE_OPS, Predicate, Query, QueryResult, execute
from .parallel import ParallelExecutor, get_worker_store
from .planner import Plan, execute_planned, plan_query
from .pipeline import (
    Checkpoint,
    ChunkConsumer,
    PipelineResult,
    ScanChunk,
    ScanPipeline,
    SummaryConsumer,
    fold_consumer,
    run_resumable_scan,
)
from .source import TraceSource
from .store import (
    ChunkedTraceStore,
    StoreAppender,
    append_store,
    write_store,
)

__all__ = [
    "CATALOG_METADATA_NAME",
    "CatalogEntry",
    "StoreCatalog",
    "FederatedSource",
    "MemberScan",
    "run_resumable_scan",
    "ColumnarTrace",
    "ColumnBlock",
    "Checkpoint",
    "ChunkConsumer",
    "PipelineResult",
    "ScanChunk",
    "ScanPipeline",
    "SummaryConsumer",
    "fold_consumer",
    "get_worker_store",
    "DEFAULT_CODEC",
    "block_cache_stats",
    "clear_block_cache",
    "StoreDictionary",
    "StringDictionary",
    "available_codecs",
    "register_codec",
    "NUMERIC_COLUMNS",
    "STRING_COLUMNS",
    "DEFAULT_CHUNK_ROWS",
    "ChunkedTraceStore",
    "StoreAppender",
    "append_store",
    "write_store",
    "Predicate",
    "Query",
    "QueryResult",
    "execute",
    "PREDICATE_OPS",
    "SortedColumnIndex",
    "InvertedColumnIndex",
    "StoreIndexes",
    "StaleIndexError",
    "build_indexes",
    "load_indexes",
    "drop_indexes",
    "indexable_columns",
    "Plan",
    "plan_query",
    "execute_planned",
    "ParallelExecutor",
    "TraceSource",
    "AggregateState",
    "CountState",
    "SumState",
    "MinState",
    "MaxState",
    "MeanState",
    "PercentileState",
    "CDFState",
    "HistogramSketch",
    "AGGREGATE_OPS",
    "make_aggregate",
    "parse_aggregate_spec",
]
