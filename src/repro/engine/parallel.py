"""Chunk-parallel query execution over a chunked trace store.

The executor fans the chunks of a :class:`~repro.engine.store.ChunkedTraceStore`
out over a ``multiprocessing`` pool.  Each worker opens the store **once** —
a pool initializer parses the manifest and caches the handle in the worker
process — and reuses it across every chunk batch it is handed, so only the
picklable task payloads (a :class:`~repro.engine.operators.Query`, or the
shared-scan pipeline's consumer lists) cross the process boundary.  Workers
evaluate their chunk subset with the same serial ``execute`` path and return
partial aggregate states; the parent merges partials with the states' own
``merge`` — exact for count/sum/min/max/mean and for the fixed-bin
percentile/CDF sketches.

Only aggregate-shaped queries (global or grouped) parallelize; ``top-k``,
``limit`` and plain collection fall back to the serial scan, which for
``limit`` is the better plan anyway (it short-circuits).
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional, Tuple

from ..errors import AnalysisError
from .operators import Query, QueryResult, _aggregate_result, _fold_aggregates, execute
from .store import ChunkedTraceStore

__all__ = ["ParallelExecutor", "get_worker_store"]

#: Per-worker store handle, opened once by :func:`_init_worker_store` and
#: reused for every task the worker processes (manifest parsed once).
_WORKER_STORE: Optional[ChunkedTraceStore] = None


def _init_worker_store(directory: str) -> None:
    """Pool initializer: open the store once for this worker process."""
    global _WORKER_STORE
    _WORKER_STORE = ChunkedTraceStore(directory)


def get_worker_store(directory: Optional[str] = None) -> ChunkedTraceStore:
    """The cached store handle (re-opened only when the directory changes)."""
    global _WORKER_STORE
    if directory is not None and (_WORKER_STORE is None
                                  or _WORKER_STORE.directory != str(directory)):
        _WORKER_STORE = ChunkedTraceStore(directory)
    if _WORKER_STORE is None:
        raise AnalysisError("worker store was never initialized")
    return _WORKER_STORE


def _worker_partials(task: Tuple[Query, List[int]]):
    """Fold a chunk subset in a worker whose initializer opened the store.

    Returns the serial scan loop's ``(state, counters)`` with the aggregate
    state unread, so the parent can merge the partials exactly.
    """
    query, chunk_indices = task
    return _fold_aggregates(get_worker_store(), query, chunk_indices)


class ParallelExecutor:
    """Fan chunk scans out over worker processes and merge the partials.

    Args:
        processes: worker count; defaults to ``min(n_chunks, cpu_count)``.
    """

    def __init__(self, processes: Optional[int] = None):
        if processes is not None and processes < 1:
            raise AnalysisError("ParallelExecutor needs at least one process")
        self.processes = processes

    def effective_workers(self, n_tasks: int) -> int:
        """Worker count for ``n_tasks`` independent tasks (at least one)."""
        n_workers = self.processes or min(n_tasks, multiprocessing.cpu_count())
        return max(1, min(n_workers, n_tasks))

    def map(self, func, tasks: List, store_directory: Optional[str] = None) -> List:
        """Generic fan-out: apply a picklable ``func`` to each task item.

        Used by the scenario-sweep runner, the shared-scan pipeline and the
        sharded replayer to spread independent work items over worker
        processes.  When ``store_directory`` is given, each worker opens that
        chunked store once in its pool initializer and ``func`` can fetch the
        cached handle via :func:`get_worker_store` — instead of re-parsing
        the manifest per task.  Tasks go to
        :meth:`multiprocessing.pool.Pool.map` one at a time (``chunksize=1``)
        so a handful of long, uneven tasks (e.g. replay shards, where early
        windows are often denser) never batch onto one worker while others
        idle.  Falls
        back to a serial loop when one worker (or one task) makes a pool
        pointless, so results are identical either way.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        n_workers = self.effective_workers(len(tasks))
        if n_workers == 1 or len(tasks) == 1:
            if store_directory is not None:
                # Parity with the pool path: (re-)open the handle once per
                # map call, so a store rewritten in place between calls is
                # never read through a stale manifest.
                _init_worker_store(store_directory)
            return [func(task) for task in tasks]
        initializer = _init_worker_store if store_directory is not None else None
        initargs = (store_directory,) if store_directory is not None else ()
        with multiprocessing.Pool(processes=n_workers, initializer=initializer,
                                  initargs=initargs) as pool:
            return pool.map(func, tasks, chunksize=1)

    def run(self, store: ChunkedTraceStore, query: Query) -> QueryResult:
        """Execute ``query`` against ``store``; parallel for aggregate queries."""
        query.validate()
        if not query.is_aggregate_only():
            return execute(store, query)
        n_chunks = store.n_chunks
        n_workers = self.effective_workers(n_chunks)
        if n_workers == 1 or n_chunks <= 1:
            return execute(store, query)

        # Contiguous chunk ranges keep each worker's reads sequential on disk.
        tasks = []
        per_worker = -(-n_chunks // n_workers)
        for start in range(0, n_chunks, per_worker):
            indices = list(range(start, min(n_chunks, start + per_worker)))
            tasks.append((query, indices))

        partials = self.map(_worker_partials, tasks, store_directory=store.directory)
        state, result = partials[0]
        for other_state, counters in partials[1:]:
            state.merge(other_state)
            result.rows_scanned += counters.rows_scanned
            result.rows_matched += counters.rows_matched
            result.chunks_scanned += counters.chunks_scanned
            result.chunks_skipped += counters.chunks_skipped
        return _aggregate_result(query, state, result)
