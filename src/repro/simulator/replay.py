"""Workload replay on the simulated cluster — materialized or streaming.

:class:`WorkloadReplayer` takes a trace (observed, spec-generated, or produced
by the SWIM synthesizer), splits each job into tasks, and runs them through
the discrete-event cluster model under a chosen scheduler and storage-cache
policy.  The output is a :class:`~repro.simulator.metrics.SimulationMetrics`
with per-job wait and completion summaries, slot-occupancy over time (the
Figure-7 utilization column), and cache hit statistics (the §4.2/§4.3 policy
comparisons).

Both replayers share one vectorized event engine (:class:`_ReplayEngine`)
that pulls jobs from the source in arrival-time order with a bounded
submission look-ahead, so the event sequence — and therefore every metric,
bit for bit — is identical whether the jobs came from an in-memory
:class:`~repro.traces.trace.Trace`, a lazy trace-file reader, or a chunked
on-disk store:

* :class:`WorkloadReplayer` — the classic entry point; replays a materialized
  trace and retains per-job outcomes for exact medians and per-job analyses.
* :class:`StreamingReplayer` — bounded-memory replay for traces that do not
  fit in RAM: consumes a :class:`~repro.engine.store.ChunkedTraceStore`
  (one chunk resident at a time) or any sorted job iterator, and keeps only
  the mergeable metric accumulators, never a per-job list.

The engine replaced the original one-Python-object-per-event loop, which is
preserved verbatim in the test suite (``tests/simulator/legacy_replay.py``)
as the semantic reference the differential equivalence tests pin this engine
against.  The invariants
both implementations share are documented there; the performance-relevant
differences here are:

* completion events live in a plain ``heapq`` of tuples instead of an
  event queue of closure objects, and tasks of one job dispatched at the
  same instant to the same stage share **one** heap entry (their completion
  events are adjacent in the legacy event order, so processing them as a
  group is order-preserving);
* under the default configuration (FIFO scheduling, no task transform) jobs
  are decomposed straight from the store's column arrays with NumPy — no
  ``Job``/``SimJob``/``SimTask`` objects exist at all — and slot accounting
  is two integers per slot kind (:class:`~repro.simulator.cluster.SlotLedger`);
* when every slot of both kinds is busy, no arrival can dispatch until the
  next completion, so all buffered arrivals before that completion are
  admitted in one :func:`bisect.bisect_left` batch instead of one loop
  iteration per job;
* most jobs of these workloads never wait for a slot, and while none does
  each job's schedule is fixed by its own columns: each look-ahead window's
  leading uncontended stretch is scheduled with NumPy (one sort of its
  admits and completions into the loop's event order, busy slots by
  ``cumsum``) and committed in bulk; the heap loop takes over at the first
  dispatch that would find too few free slots.

Usage — the streamed run reproduces the materialized run exactly::

    >>> from repro.simulator.replay import StreamingReplayer, WorkloadReplayer
    >>> from repro.traces import Job, Trace
    >>> jobs = [Job(job_id="j%d" % i, submit_time_s=60.0 * i, duration_s=30.0,
    ...             input_bytes=1e9, shuffle_bytes=0.0, output_bytes=1e8,
    ...             map_task_seconds=90.0, reduce_task_seconds=0.0)
    ...         for i in range(4)]
    >>> materialized = WorkloadReplayer().replay(Trace(jobs, name="tiny"))
    >>> streamed = StreamingReplayer().replay_jobs(iter(jobs))
    >>> streamed.finished_jobs == materialized.finished_jobs == 4
    True
    >>> streamed.mean_wait_time() == materialized.mean_wait_time()
    True
    >>> streamed.keep_outcomes, len(streamed.outcomes)
    (False, 0)
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..traces.schema import Job
from ..traces.trace import Trace
from .cache import CachePolicy, NoCache
from .cluster import ClusterConfig, SlotLedger
from .hdfs import Hdfs, HdfsConfig
from .metrics import ACCUMULATOR_BATCH, JobOutcome, SimulationMetrics
from .scheduler import FifoScheduler, Scheduler
from .tasks import (DEFAULT_SECONDS_PER_TASK, MAX_TASKS_PER_STAGE, SimJob,
                    split_job)

__all__ = ["WorkloadReplayer", "StreamingReplayer", "replay", "replay_store"]

#: Default bound on submission look-ahead: at most this many jobs are split
#: into tasks and queued for submission ahead of simulated time.
DEFAULT_LOOKAHEAD = 4096

_INF = float("inf")

#: Stretch attempts (see ``_ReplayEngine._stretch``): a window of fewer rows
#: goes straight to the heap loop — an attempt's fixed NumPy cost (~0.5 ms)
#: is what the heap loop spends on ~64 uncontended jobs — and an attempt
#: starts with a span of _FIRST_SPAN rows.
_MIN_STRETCH = 64
_FIRST_SPAN = 256

_ORDER_ERROR = (
    "job %s submitted at %.3f after a job submitted at %.3f: "
    "streaming replay needs jobs in arrival-time order (sort "
    "the trace or rebuild the store with 'repro engine convert')")

#: Store columns the column-fed fast path needs (strings may be absent).
_FAST_NUMERIC = ("submit_time_s", "map_task_seconds", "reduce_task_seconds",
                 "map_tasks", "reduce_tasks", "input_bytes", "shuffle_bytes",
                 "output_bytes")
_FAST_STRINGS = ("job_id", "input_path", "output_path")


class _PreparedJob:
    """Fast-path job record: scalar stage parameters, no task objects.

    Exists only inside the engine's FIFO fast mode; one instance replaces a
    ``SimJob`` plus up to 1024 ``SimTask`` objects.  ``maps_queued`` counts
    not-yet-dispatched map tasks, ``maps_remaining`` not-yet-completed ones
    (likewise for reduces); ``order`` is the admission index used to keep the
    reduce-ready heap in FIFO order.
    """

    __slots__ = ("job_id", "submit_time_s", "n_map", "map_duration_s",
                 "n_reduce", "reduce_duration_s", "maps_queued",
                 "maps_remaining", "reduces_queued", "reduces_remaining",
                 "start_time_s", "order", "input_path", "input_bytes",
                 "output_path", "output_bytes", "total_bytes")

    def __init__(self, job_id, submit_time_s, n_map, map_duration_s,
                 n_reduce, reduce_duration_s, input_path, input_bytes,
                 output_path, output_bytes, total_bytes):
        self.job_id = job_id
        self.submit_time_s = submit_time_s
        self.n_map = n_map
        self.map_duration_s = map_duration_s
        self.n_reduce = n_reduce
        self.reduce_duration_s = reduce_duration_s
        self.maps_queued = n_map
        self.maps_remaining = n_map
        self.reduces_queued = n_reduce
        self.reduces_remaining = n_reduce
        self.start_time_s = None
        self.order = 0
        self.input_path = input_path
        self.input_bytes = input_bytes
        self.output_path = output_path
        self.output_bytes = output_bytes
        self.total_bytes = total_bytes


def _stage_params(total_seconds: float, recorded_count) -> Tuple[int, float]:
    """Scalar mirror of :func:`repro.simulator.tasks._stage_tasks`."""
    if total_seconds <= 0:
        return 0, 0.0
    if recorded_count and recorded_count > 0:
        n_tasks = int(recorded_count)
    else:
        n_tasks = max(1, int(round(total_seconds / DEFAULT_SECONDS_PER_TASK)))
    n_tasks = min(n_tasks, MAX_TASKS_PER_STAGE)
    return n_tasks, total_seconds / n_tasks


def _vector_stage(seconds: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized mirror of :func:`repro.simulator.tasks._stage_tasks`.

    ``np.rint`` matches Python's banker's rounding in ``int(round(x))`` and
    the element-wise division produces the same IEEE quotient as the scalar
    path, so per-task durations are bit-identical to ``split_job``.
    """
    n_tasks = np.where(counts > 0.0, counts,
                       np.maximum(1.0, np.rint(seconds / DEFAULT_SECONDS_PER_TASK)))
    np.minimum(n_tasks, float(MAX_TASKS_PER_STAGE), out=n_tasks)
    n_tasks = np.where(seconds > 0.0, n_tasks, 0.0)
    durations = np.divide(seconds, n_tasks, out=np.zeros_like(n_tasks),
                          where=n_tasks > 0.0)
    return n_tasks.astype(np.int64), durations


def _nan_to_zero(array: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(array), 0.0, array)


#: Window columns in ``_PreparedJob`` constructor order.
_RECORD_COLUMNS = ("job_id", "raw", "n_map", "map_dur", "n_red", "red_dur",
                   "input_path", "input_bytes", "output_path", "output_bytes",
                   "total_bytes")

#: Window columns in the order ``_prep_job`` appends its row tuples.
_JOB_ROW_COLUMNS = ("eff", "raw", "n_map", "map_dur", "n_red", "red_dur",
                    "job_id", "input_path", "input_bytes", "output_path",
                    "output_bytes", "writes", "total_bytes")
_JOB_ROW_DTYPES = {"eff": float, "raw": float, "n_map": np.int64,
                   "map_dur": float, "n_red": np.int64, "red_dur": float,
                   "input_bytes": float, "output_bytes": float, "writes": bool}


def _object_column(values) -> np.ndarray:
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def _path_column(column: Optional[np.ndarray], lo: int, hi: int) -> np.ndarray:
    if column is None:  # never recorded: every job reads None
        return np.full(hi - lo, None, dtype=object)
    return column[lo:hi]


def _truthy(column: np.ndarray) -> np.ndarray:
    """``bool(value)`` per element (fixed-width strings compare, ~60x faster)."""
    if column.dtype.kind == "U":
        return column != ""
    return column.astype(bool)


def _job_rows_part(rows: List[tuple]) -> dict:
    """Window columns from ``_prep_job`` row tuples; ids, paths and total
    bytes stay the job's own Python objects."""
    part = {}
    for name, values in zip(_JOB_ROW_COLUMNS, zip(*rows)):
        dtype = _JOB_ROW_DTYPES.get(name)
        part[name] = (np.array(values, dtype=dtype) if dtype is not None
                      else _object_column(values))
    return part


def _fold_sum(total: float, values: np.ndarray) -> float:
    """``total`` plus ``values`` added one at a time, left to right."""
    if not values.size:
        return total
    return float(np.add.accumulate(np.concatenate(([total], values)))[-1])


def _stretch_events(window: dict, n: int, queued: list) -> Tuple[dict, dict]:
    """Per-job facts and the events of one stretch attempt.

    Jobs are the window's first ``n`` rows followed by the jobs of the
    ``queued`` heap entries (in seq order).  Events are, in this order: the
    admits A, the stage-1 completions C1, the stage-2 completions C2 (jobs
    with maps and reduces), the queued entries Q, and the reduce stages QC
    that queued map entries dispatch.  Each event carries its time ``t``, its
    dispatcher's time ``ptime`` (+inf for admits, -inf for Q, whose seqs rank
    below every new one) and a ``pcode`` that orders dispatchers at equal
    times (Q by seq, then C1, then A, each by job), its slot deltas, its job,
    whether it finishes that job, and the event it dispatches (``child``).
    """
    m = len(queued)
    s = window["eff"][:n]
    n_map = window["n_map"][:n]
    n_red = window["n_red"][:n]
    red_dur = window["red_dur"][:n]
    has_map = n_map > 0
    two = has_map & (n_red > 0)
    c1 = s + np.where(has_map, window["map_dur"][:n], red_dur)
    c2 = c1[two] + red_dur[two]
    records = [entry[2] for entry in queued]
    q_time = np.array([entry[0] for entry in queued], dtype=float)
    q_map = np.array([entry[3] == "map" for entry in queued], dtype=bool)
    q_payload = np.array([entry[4] for entry in queued], dtype=np.int64)
    q_red = np.where(q_map, np.array([r.n_reduce for r in records], dtype=np.int64), 0)
    q_child = q_red > 0
    q_c = q_time[q_child] + np.array([r.reduce_duration_s for r in records],
                                     dtype=float)[q_child]
    q_writes = np.array([bool(r.output_path) and bool(r.output_bytes or 0.0)
                         for r in records], dtype=bool)
    q_out = np.array([float(r.output_bytes or 0.0) for r in records], dtype=float)

    writes = np.concatenate((window["writes"][:n], q_writes))
    output_bytes = np.concatenate((window["output_bytes"][:n], q_out))
    bad = np.concatenate((~(c1 > s) | ~np.isfinite(c1), ~np.isfinite(q_time)))
    bad[:n][two] |= ~(c2 > c1[two]) | ~np.isfinite(c2)
    bad[n:][q_child] |= ~(q_c > q_time[q_child]) | ~np.isfinite(q_c)
    bad |= writes & (output_bytes < 0.0)
    jobs = {
        "raw": np.concatenate((window["raw"][:n],
                               np.array([r.submit_time_s for r in records], dtype=float))),
        "start": np.concatenate((s, np.array([r.start_time_s for r in records],
                                             dtype=float))),
        "input_bytes": np.concatenate((window["input_bytes"][:n], np.zeros(m))),
        "output_bytes": output_bytes,
        "writes": writes,
        "bad": bad,
    }

    index = np.arange(n)
    two_index = index[two]
    q_index = np.arange(m)
    q_kids = q_index[q_child]
    width = n + m
    n_two = two_index.size
    q_first = 2 * n + n_two
    child = np.full(q_first + m + q_kids.size, -1, dtype=np.int64)
    child[:n] = n + index
    child[n + two_index] = 2 * n + np.arange(n_two)
    child[q_first + q_kids] = q_first + m + np.arange(q_kids.size)
    events = {
        "t": np.concatenate((s, c1, c2, q_time, q_c)),
        "ptime": np.concatenate((np.full(n, _INF), s, c1[two], np.full(m, -_INF),
                                 q_time[q_child])),
        "pcode": np.concatenate((index, 2 * width + index, width + two_index,
                                 q_index, q_kids)),
        "d_map": np.concatenate((n_map, -n_map, np.zeros(n_two, dtype=np.int64),
                                 np.where(q_map, -q_payload, 0),
                                 np.zeros(q_kids.size, dtype=np.int64))),
        "d_red": np.concatenate((np.where(has_map, 0, n_red),
                                 np.where(has_map, n_red, -n_red), -n_red[two],
                                 np.where(q_map, q_red, -q_payload), -q_red[q_child])),
        "job": np.concatenate((index, index, two_index, n + q_index, n + q_kids)),
        "finishes": np.concatenate((np.zeros(n, dtype=bool), ~two,
                                    np.ones(n_two, dtype=bool), ~q_child,
                                    np.ones(q_kids.size, dtype=bool))),
        "child": child,
        "q_first": q_first,
    }
    return jobs, events


def _event_order(t: np.ndarray, ptime: np.ndarray, pcode: np.ndarray) -> np.ndarray:
    """Event indices in the heap loop's processing order: by ``(t, ptime,
    pcode)``.  One sort by time; only events that tie on time are
    re-sorted by the full key."""
    order = np.argsort(t)
    sorted_t = t[order]
    tied = sorted_t[1:] == sorted_t[:-1]
    if tied.any():
        group = np.zeros(order.shape[0], dtype=bool)
        group[1:] = tied
        group[:-1] |= tied
        where = np.flatnonzero(group)
        members = order[where]
        order[where] = members[np.lexsort((pcode[members], ptime[members],
                                           t[members]))]
    return order


class _ReplayEngine:
    """The replay event loop: tuple heap, batched admission, vectorized prep.

    One engine instance runs one replay (or, via ``feed_boundary`` +
    repeated :meth:`run` calls, one exact sharded replay — see
    :class:`~repro.simulator.sharded.ShardedReplayer`).  The engine reads its
    configuration from the owning :class:`WorkloadReplayer` and mutates that
    replayer's scheduler/cache/HDFS state exactly as the legacy loop did.

    Two modes, chosen at construction:

    * **fast** (``FifoScheduler`` of exactly that type, untouched, and no
      task transform): jobs become :class:`_PreparedJob` records — from NumPy
      columns when fed by a store — and FIFO dispatch runs over an internal
      deque/heap without consulting the scheduler object.  FIFO's picks never
      read its running-task counters, so dispatching a job's whole queued run
      in one step is pick-for-pick identical to the one-slot-at-a-time loop.
    * **object**: jobs go through :func:`split_job` + the task transform into
      real ``SimJob``/``SimTask`` objects and dispatch via
      :meth:`Scheduler.drain`, replaying each completion's scheduler hooks
      one task at a time in legacy order (fair/capacity picks are sensitive
      to their running counters, so the per-task interleaving matters).

    Utilization is sampled once per simulated instant with activity (the
    final busy count), instead of once per task transition as the legacy loop
    does.  All intermediate legacy observations at one instant close
    zero-length segments, which add exactly nothing to any accumulator bin,
    so ``busy_slot_seconds`` and the hourly bins are bit-identical; only the
    retained raw-sample *list* is shorter (its step function is unchanged).

    The metric side never feeds back into scheduling, so it is not paid per
    event: the engine appends each ``(time, busy slots)`` sample and, in fast
    mode without retained outcomes, each finished job's wait and completion
    to plain lists, and :meth:`_fold_metrics` folds them into the
    accumulators in one vectorized pass at a look-ahead refill (once
    :data:`~repro.simulator.metrics.ACCUMULATOR_BATCH` samples are waiting)
    and at :meth:`finish`.  The folds repeat the per-sample float operations
    in the same order, so every digest bit is unchanged.  Output writes under
    the fast I/O path only add to the HDFS byte counter, like input reads.

    In fast mode a refill buffers its jobs as column arrays (a window) and
    :meth:`_open_window` first offers the window to :meth:`_stretch`, which
    schedules its leading uncontended stretch with NumPy and commits it
    exactly as the heap loop would have processed it (fast I/O only); the
    rest of the window becomes :class:`_PreparedJob` records for the heap
    loop, which stays the exact fallback for contention.
    """

    def __init__(self, replayer: "WorkloadReplayer"):
        self.replayer = replayer
        config = replayer.cluster_config
        self.scheduler = replayer.scheduler
        self.cache = replayer.cache
        self.hdfs = replayer.hdfs
        self.transform = replayer.task_transform
        self.lookahead = replayer.lookahead
        self.slots = SlotLedger(config)
        self.metrics = SimulationMetrics(total_slots=config.total_slots,
                                         keep_outcomes=replayer.keep_outcomes)
        self.now = 0.0
        self.last_submit = -_INF
        self.feed_boundary = _INF
        self.fast = (type(self.scheduler) is FifoScheduler
                     and self.transform is None
                     and not self.scheduler._jobs)
        # Serving a job's input through an empty NoCache + retain_files=False
        # HDFS is a fixed float-op sequence on the counters; skip the path
        # string, the HdfsFile allocation and both dict probes per job.
        self._fast_io = (type(self.cache) is NoCache
                         and type(self.hdfs) is Hdfs
                         and not self.hdfs.config.retain_files
                         and not self.hdfs._files
                         and not self.cache._contents)
        self._has_task_finished = hasattr(self.scheduler, "task_finished")
        self._has_task_released = hasattr(self.scheduler, "task_released")
        self._seq = 0
        self._order = 0
        self._active = 0
        self._primed = False
        self._heap: List[tuple] = []
        # Buffered (not yet admitted) submissions: parallel lists + cursor.
        self._buf_times: List[float] = []
        self._buf_jobs: List[object] = []
        self._buf_head = 0
        # Fast-mode submissions pulled by the current refill and not yet
        # buffered as records: column parts (store rows) or row tuples
        # (``Job`` objects), _window_rows jobs in all; see _open_window.
        self._window_parts: List[dict] = []
        self._job_rows: List[tuple] = []
        self._window_rows = 0
        self._budget = replayer.max_simulated_jobs
        # Fast-mode FIFO structures: map-ready jobs in admission order, and a
        # reduce-ready min-heap keyed by admission order (a job enters it when
        # its map stage completes, so plain FIFO list order would not do).
        self._map_ready: deque = deque()
        self._reduce_ready: List[tuple] = []
        # Metric samples awaiting the per-chunk fold (_fold_metrics):
        # (time, busy slots) observations, and the wait/completion of each
        # fast-mode job finished without a retained outcome.
        self._obs_times: List[float] = []
        self._obs_slots: List[int] = []
        self._waits: List[float] = []
        self._completions: List[float] = []
        # Job source (exactly one of the two is attached).
        self._jobs_iter: Optional[Iterator[Job]] = None
        self._pending_job: Optional[Job] = None
        self._blocks: Optional[Iterator] = None
        self._cols: Optional[dict] = None
        self._row = 0
        self._n_rows = 0
        self._exhausted = True

    # -- job sources -------------------------------------------------------
    def attach_jobs(self, jobs: Iterable[Job]) -> None:
        self._jobs_iter = iter(jobs)
        self._exhausted = False

    def attach_blocks(self, blocks: Iterable) -> None:
        """Feed the engine store chunks (``ColumnBlock``); fast mode only."""
        self._blocks = iter(blocks)
        self._exhausted = False

    def _load_block(self, block) -> None:
        n_rows = block.n_rows

        def numeric(name: str) -> np.ndarray:
            if not block.has_column(name):  # never recorded: every job reads None
                return np.zeros(n_rows, dtype=float)
            return _nan_to_zero(np.asarray(block.column(name), dtype=float))

        def string(name: str) -> Optional[np.ndarray]:
            # block.column materializes v3 dictionary-encoded columns, which
            # a raw block.columns lookup would miss entirely.
            return block.column(name) if block.has_column(name) else None

        input_bytes = numeric("input_bytes")
        shuffle_bytes = numeric("shuffle_bytes")
        output_bytes = numeric("output_bytes")
        self._cols = {
            "submit": np.asarray(block.column("submit_time_s"), dtype=float),
            "map_sec": numeric("map_task_seconds"),
            "red_sec": numeric("reduce_task_seconds"),
            "map_cnt": numeric("map_tasks"),
            "red_cnt": numeric("reduce_tasks"),
            "input_bytes": input_bytes,
            "output_bytes": output_bytes,
            # Same add order as Job.total_bytes: (input + shuffle) + output.
            "total_bytes": input_bytes + shuffle_bytes + output_bytes,
            "job_id": string("job_id"),
            "input_path": string("input_path"),
            "output_path": string("output_path"),
        }
        self._row = 0
        self._n_rows = n_rows

    # -- look-ahead refill -------------------------------------------------
    def _refill(self) -> None:
        """Top the buffered-submission window up to ``lookahead`` jobs.

        Stops early at ``feed_boundary`` (exclusive, raw submit time) without
        marking the source exhausted — the sharded driver advances the
        boundary and calls back in.
        """
        if len(self._obs_times) >= ACCUMULATOR_BATCH:
            self._fold_metrics()
        head = self._buf_head
        if head and head == len(self._buf_times):
            del self._buf_times[:]
            del self._buf_jobs[:]
            self._buf_head = head = 0
        boundary = self.feed_boundary
        while not self._exhausted:
            buffered = len(self._buf_times) - head + self._window_rows
            need = self.lookahead - buffered
            if need <= 0:
                return
            if self._budget is not None and self._budget <= 0:
                self._exhausted = True
                return
            if self._blocks is not None:
                if self._cols is None or self._row >= self._n_rows:
                    block = next(self._blocks, None)
                    if block is None:
                        self._exhausted = True
                        return
                    if block.n_rows == 0:
                        continue
                    self._load_block(block)
                lo = self._row
                hi = min(self._n_rows, lo + need)
                if self._budget is not None:
                    hi = min(hi, lo + self._budget)
                if boundary != _INF:
                    cut = lo + int(np.searchsorted(
                        self._cols["submit"][lo:hi], boundary, side="left"))
                    if cut == lo:
                        return  # held at the shard boundary, not exhausted
                    hi = min(hi, cut)
                self._prep_rows(lo, hi)
                self._row = hi
                if self._budget is not None:
                    self._budget -= hi - lo
            else:
                job = self._pending_job
                self._pending_job = None
                if job is None:
                    job = next(self._jobs_iter, None)
                    if job is None:
                        self._exhausted = True
                        return
                if boundary != _INF and job.submit_time_s >= boundary:
                    self._pending_job = job
                    return
                self._prep_job(job)
                if self._budget is not None:
                    self._budget -= 1

    def _prep_job(self, job: Job) -> None:
        """Decompose one ``Job`` object and buffer its submission."""
        submit = job.submit_time_s
        if submit < self.last_submit:
            raise SimulationError(_ORDER_ERROR % (job.job_id, submit, self.last_submit))
        self.last_submit = submit
        if self.fast:
            map_seconds = float(job.map_task_seconds or 0.0)
            reduce_seconds = float(job.reduce_task_seconds or 0.0)
            if map_seconds < 0 or reduce_seconds < 0:
                raise SimulationError("job %s has negative task time" % job.job_id)
            n_map, map_duration = _stage_params(map_seconds, job.map_tasks)
            n_reduce, reduce_duration = _stage_params(reduce_seconds, job.reduce_tasks)
            if n_map == 0 and n_reduce == 0:
                # Zero-compute jobs still occupy a slot for a moment (split_job).
                n_map, map_duration = 1, 1.0
            output_bytes = job.output_bytes or 0.0
            self._job_rows.append((
                max(0.0, submit), submit, n_map, map_duration, n_reduce,
                reduce_duration, job.job_id, job.input_path,
                float(job.input_bytes or 0.0), job.output_path,
                float(output_bytes), bool(job.output_path) and bool(output_bytes),
                job.total_bytes))
            self._window_rows += 1
            self.metrics.record_submission()
            return
        sim_job = split_job(job)
        if self.transform is not None:
            self.transform(sim_job)
        self.metrics.record_submission()
        self._buf_times.append(max(0.0, submit))
        self._buf_jobs.append(sim_job)

    def _prep_rows(self, lo: int, hi: int) -> None:
        """Vectorized decomposition of store rows ``[lo, hi)`` (fast mode)."""
        cols = self._cols
        submits = cols["submit"][lo:hi]
        if submits[0] < self.last_submit:
            raise SimulationError(_ORDER_ERROR % (
                str(cols["job_id"][lo]), float(submits[0]), self.last_submit))
        if submits.shape[0] > 1:
            bad = np.flatnonzero(submits[1:] < submits[:-1])
            if bad.size:
                index = int(bad[0])
                raise SimulationError(_ORDER_ERROR % (
                    str(cols["job_id"][lo + index + 1]),
                    float(submits[index + 1]), float(submits[index])))
        self.last_submit = float(submits[-1])
        map_seconds = cols["map_sec"][lo:hi]
        reduce_seconds = cols["red_sec"][lo:hi]
        if (map_seconds < 0).any() or (reduce_seconds < 0).any():
            bad = np.flatnonzero((map_seconds < 0) | (reduce_seconds < 0))[0]
            raise SimulationError("job %s has negative task time"
                                  % str(cols["job_id"][lo + int(bad)]))
        n_map, map_duration = _vector_stage(map_seconds, cols["map_cnt"][lo:hi])
        n_reduce, reduce_duration = _vector_stage(reduce_seconds, cols["red_cnt"][lo:hi])
        empty = (n_map == 0) & (n_reduce == 0)
        if empty.any():
            n_map = np.where(empty, 1, n_map)
            map_duration = np.where(empty, 1.0, map_duration)
        output_paths = _path_column(cols["output_path"], lo, hi)
        output_bytes = cols["output_bytes"][lo:hi]
        self._window_parts.append({
            "eff": np.maximum(submits, 0.0), "raw": submits,
            "n_map": n_map, "map_dur": map_duration,
            "n_red": n_reduce, "red_dur": reduce_duration,
            "job_id": cols["job_id"][lo:hi],
            "input_path": _path_column(cols["input_path"], lo, hi),
            "input_bytes": cols["input_bytes"][lo:hi],
            "output_path": output_paths, "output_bytes": output_bytes,
            "writes": _truthy(output_paths) & (output_bytes != 0.0),
            "total_bytes": cols["total_bytes"][lo:hi],
        })
        self._window_rows += hi - lo
        self.metrics.jobs_submitted += hi - lo

    def _take_window(self) -> dict:
        """Concatenate the columns buffered since the last refill into one
        window (``_prep_job`` rows become arrays here) and clear the parts."""
        parts = self._window_parts
        if self._job_rows:
            parts.append(_job_rows_part(self._job_rows))
            self._job_rows = []
        self._window_parts = []
        self._window_rows = 0
        if len(parts) == 1:
            return parts[0]
        return {name: np.concatenate([part[name] for part in parts])
                for name in parts[0]}

    def _records(self, window: dict, rows: np.ndarray) -> List[_PreparedJob]:
        """``_PreparedJob`` records for window ``rows`` (native Python
        scalars via ``tolist``, as the heap loop reads them)."""
        columns = [window[name][rows].tolist() for name in _RECORD_COLUMNS]
        return [_PreparedJob(*values) for values in zip(*columns)]

    def _open_window(self, until_s: float = _INF, attempt: bool = True) -> None:
        """Run one stretch attempt over a freshly refilled window, then hand
        whatever it did not commit to the heap loop as buffered records."""
        window = self._take_window()
        committed = self._stretch(window, until_s) if attempt else 0
        rows = np.arange(committed, window["eff"].shape[0])
        if rows.size:
            self._buf_times.extend(window["eff"][rows].tolist())
            self._buf_jobs.extend(self._records(window, rows))

    # -- storage side effects ---------------------------------------------
    def _serve_input(self, job_id: str, input_path, size: float) -> None:
        """Route a job's input read through HDFS + cache (legacy op order)."""
        if self._fast_io:
            hdfs = self.hdfs
            hdfs.bytes_written += size
            hdfs.bytes_written -= size
            hdfs.bytes_read += size
            stats = self.cache.stats
            stats.misses += 1
            stats.bytes_from_disk += size
            stats.admissions_rejected += 1
            return
        path = input_path or ("/implicit/%s" % job_id)
        self.hdfs.read(path, self.now, size)
        self.cache.access(path, size, self.now)

    def _write_output(self, output_path, output_bytes) -> None:
        if not output_path or not (output_bytes or 0.0):
            return
        if self._fast_io:
            # Hdfs.create's counter update, minus the HdfsFile that a
            # retain_files=False namespace drops anyway; NoCache holds
            # nothing to invalidate.
            size = float(output_bytes)
            if size < 0:
                raise SimulationError("file size must be non-negative")
            self.hdfs.bytes_written += size
            return
        self.hdfs.create(output_path, float(output_bytes), self.now, overwrite=True)
        self.cache.invalidate(output_path)

    # -- admission and dispatch -------------------------------------------
    def _admit(self, entry) -> None:
        if self.fast:
            record: _PreparedJob = entry
            record.order = self._order
            self._order += 1
            self._active += 1
            self._serve_input(record.job_id, record.input_path, record.input_bytes)
            if record.n_map:
                self._map_ready.append(record)
            elif record.reduces_queued:
                heappush(self._reduce_ready, (record.order, record))
        else:
            sim_job: SimJob = entry
            self._active += 1
            self.scheduler.add_job(sim_job)
            job = sim_job.job
            self._serve_input(job.job_id, job.input_path,
                              float(job.input_bytes or 0.0))

    def _dispatch_fast(self) -> bool:
        """FIFO dispatch over the internal ready structures, one heap entry
        per (job, stage, instant) group of tasks."""
        slots = self.slots
        heap = self._heap
        now = self.now
        dispatched = False
        free = slots.map_capacity - slots.busy_map
        if free > 0 and self._map_ready:
            ready = self._map_ready
            while free > 0 and ready:
                record = ready[0]
                take = record.maps_queued
                if take > free:
                    record.maps_queued = take - free
                    take = free
                else:
                    record.maps_queued = 0
                    ready.popleft()
                if record.start_time_s is None:
                    record.start_time_s = now
                heappush(heap, (now + record.map_duration_s, self._seq,
                                record, "map", take))
                self._seq += 1
                free -= take
            slots.busy_map = slots.map_capacity - free
            dispatched = True
        free = slots.reduce_capacity - slots.busy_reduce
        if free > 0 and self._reduce_ready:
            ready = self._reduce_ready
            while free > 0 and ready:
                record = ready[0][1]
                take = record.reduces_queued
                if take > free:
                    record.reduces_queued = take - free
                    take = free
                else:
                    record.reduces_queued = 0
                    heappop(ready)
                if record.start_time_s is None:
                    record.start_time_s = now
                heappush(heap, (now + record.reduce_duration_s, self._seq,
                                record, "reduce", take))
                self._seq += 1
                free -= take
            slots.busy_reduce = slots.reduce_capacity - free
            dispatched = True
        return dispatched

    def _dispatch_obj(self, kind: str) -> bool:
        slots = self.slots
        free = slots.free_slots(kind)
        if free <= 0:
            return False
        picks = self.scheduler.drain(kind, self.now, free)
        if not picks:
            return False
        slots.acquire(kind, len(picks))
        now = self.now
        heap = self._heap
        group_job = None
        group_time = 0.0
        group_tasks: Optional[list] = None
        for sim_job, task in picks:
            if sim_job.start_time_s is None:
                sim_job.start_time_s = now
            task.start_time_s = now
            completion = now + task.duration_s
            if group_tasks is not None and group_job is sim_job and group_time == completion:
                group_tasks.append(task)
                continue
            if group_tasks is not None:
                heappush(heap, (group_time, self._seq, group_job, kind, group_tasks))
                self._seq += 1
            group_job, group_time, group_tasks = sim_job, completion, [task]
        heappush(heap, (group_time, self._seq, group_job, kind, group_tasks))
        self._seq += 1
        return True

    # -- event processing --------------------------------------------------
    def _finish_fast(self, record: _PreparedJob) -> None:
        self._active -= 1
        self._write_output(record.output_path, record.output_bytes)
        now = self.now
        submit = record.submit_time_s
        start = record.start_time_s
        wait = start - submit
        if wait < 0.0:
            wait = 0.0
        if self.metrics.keep_outcomes:
            self.metrics.record_job(JobOutcome(
                job_id=record.job_id, submit_time_s=submit, start_time_s=start,
                finish_time_s=now, wait_time_s=wait, completion_time_s=now - submit,
                total_bytes=record.total_bytes,
                n_tasks=record.n_map + record.n_reduce))
        else:
            self._waits.append(wait)
            self._completions.append(now - submit)

    def _finish_obj(self, sim_job: SimJob) -> None:
        sim_job.finish_time_s = self.now
        self.scheduler.job_finished(sim_job)
        self._active -= 1
        job = sim_job.job
        self._write_output(job.output_path, job.output_bytes)
        self.metrics.record_job(JobOutcome(
            job_id=sim_job.job_id, submit_time_s=sim_job.submit_time_s,
            start_time_s=sim_job.start_time_s, finish_time_s=sim_job.finish_time_s,
            wait_time_s=sim_job.wait_time_s,
            completion_time_s=sim_job.completion_time_s,
            total_bytes=job.total_bytes,
            n_tasks=len(sim_job.map_tasks) + len(sim_job.reduce_tasks)))

    def _pop_completion(self) -> None:
        time_s, _seq, owner, kind, payload = heappop(self._heap)
        self.now = time_s
        slots = self.slots
        if self.fast:
            record: _PreparedJob = owner
            if kind == "map":
                slots.busy_map -= payload
                record.maps_remaining -= payload
                if record.maps_remaining == 0 and record.reduces_queued:
                    heappush(self._reduce_ready, (record.order, record))
            else:
                slots.busy_reduce -= payload
                record.reduces_remaining -= payload
            if record.maps_remaining == 0 and record.reduces_remaining == 0:
                self._finish_fast(record)
            self._dispatch_fast()
        else:
            sim_job: SimJob = owner
            scheduler = self.scheduler
            # Legacy per-task completion order: release, scheduler hooks,
            # progress decrement, finish check, dispatch both kinds — the
            # interleaving matters for count-sensitive schedulers.
            for task in payload:
                task.finish_time_s = time_s
                slots.release(kind)
                if self._has_task_finished:
                    scheduler.task_finished(sim_job)
                if self._has_task_released:
                    scheduler.task_released(sim_job, kind)
                if kind == "map":
                    sim_job.maps_remaining -= 1
                else:
                    sim_job.reduces_remaining -= 1
                if sim_job.done:
                    self._finish_obj(sim_job)
                self._dispatch_obj("map")
                self._dispatch_obj("reduce")
        self._obs_times.append(time_s)
        self._obs_slots.append(slots.busy_map + slots.busy_reduce)

    def _admit_next(self, until_s: float = _INF) -> None:
        head = self._buf_head
        self.now = self._buf_times[head]
        entry = self._buf_jobs[head]
        self._buf_head = head + 1
        self._admit(entry)
        if self.fast:
            dispatched = self._dispatch_fast()
        else:
            dispatched_map = self._dispatch_obj("map")
            dispatched_reduce = self._dispatch_obj("reduce")
            dispatched = dispatched_map or dispatched_reduce
        slots = self.slots
        if dispatched:
            self._obs_times.append(self.now)
            self._obs_slots.append(slots.busy_map + slots.busy_reduce)
        elif (slots.busy_map == slots.map_capacity
              and slots.busy_reduce == slots.reduce_capacity):
            self._bulk_admit(until_s)

    def _bulk_admit(self, until_s: float = _INF) -> None:
        """Admit every buffered arrival preceding the next completion.

        Only legal when both slot kinds are fully busy: no arrival can
        dispatch anything (and the legacy loop records no utilization sample
        for dispatch-free submissions), so admissions before the next
        completion are pure buffer/scheduler/cache bookkeeping and one
        ``bisect`` replaces one main-loop iteration per job.  Ties with the
        completion stay with the completion (``bisect_left``), matching the
        completions-before-submissions event order; a sharded driver's
        ``until_s`` caps the sweep the same way (arrivals at the boundary
        belong to the next shard).
        """
        if not self._heap:
            return
        next_completion = self._heap[0][0]
        if next_completion > until_s:
            next_completion = until_s
        while True:
            times = self._buf_times
            head = self._buf_head
            cut = bisect_left(times, next_completion, head, len(times))
            if cut > head:
                jobs = self._buf_jobs
                for index in range(head, cut):
                    self.now = times[index]
                    self._admit(jobs[index])
                self._buf_head = cut
            if cut < len(times):
                return
            self._refill()
            if self._window_rows:
                self._open_window(attempt=False)
            if self._buf_head >= len(self._buf_times):
                return

    # -- uncontended stretches ---------------------------------------------
    def _stretch(self, window: dict, until_s: float) -> int:
        """Schedule the window's leading uncontended stretch with NumPy.

        Allowed only when no job waits for a slot and every queued heap entry
        runs a whole stage of its job.  Then, until some dispatch finds too
        few free slots, each job's schedule follows from its own columns (see
        :meth:`_stretch_span`).  The window's jobs before ``until_s`` go in
        two spans, its first :data:`_FIRST_SPAN` rows and, if those are all
        admitted, the rest, so a window that contends early pays for a short
        sort only.  Returns the number of window jobs admitted; the heap loop
        takes over from there.
        """
        if (not self._fast_io or self._map_ready or self._reduce_ready
                or window["eff"].shape[0] < _MIN_STRETCH):
            return 0
        for _time, _seq, record, kind, payload in self._heap:
            if kind == "map":
                whole = payload == record.n_map == record.maps_remaining
            else:
                whole = payload == record.n_reduce == record.reduces_remaining
            if not whole:
                return 0
        eff = window["eff"]
        limit = eff.shape[0] if until_s == _INF else int(
            np.searchsorted(eff, until_s, side="left"))
        admitted, span = 0, _FIRST_SPAN
        while admitted < limit:
            end = min(limit, admitted + span)
            part = {name: column[admitted:end] for name, column in window.items()}
            admitted += self._stretch_span(part, end - admitted)
            if admitted < end:
                break
            span = limit
        return admitted

    def _stretch_span(self, window: dict, n: int) -> int:
        """Commit the uncontended prefix of the events that admitting window
        rows ``[0, n)`` sets off.

        Stage 1 of a job ends at ``c1 = s + d1`` (``d1`` the map duration, or
        the reduce duration of a reduce-only job) and stage 2 at
        ``c1 + reduce duration`` — the heap loop's own float adds.  Admits,
        those completions, the queued heap entries and the reduce stages
        queued map entries dispatch are put in the loop's processing order
        (see :func:`_event_order`), busy slots follow by ``cumsum``, and the
        prefix before the first event that would exceed a capacity is
        committed by :meth:`_commit`.  The prefix also stops at a job whose
        completion would land on its dispatch instant, whose output size is
        negative or whose times are not finite (the heap loop handles those),
        and after the last admit.  Returns the number of jobs admitted.
        """
        queued = sorted(self._heap, key=lambda entry: entry[1])
        jobs, events = _stretch_events(window, n, queued)
        order = _event_order(events["t"], events["ptime"], events["pcode"])
        n_events = order.shape[0]
        rank = np.empty(n_events, dtype=np.int64)
        rank[order] = np.arange(n_events)
        slots = self.slots
        busy_map = slots.busy_map + np.cumsum(events["d_map"][order])
        busy_red = slots.busy_reduce + np.cumsum(events["d_red"][order])
        stop = (busy_map > slots.map_capacity) | (busy_red > slots.reduce_capacity)
        stop |= jobs["bad"][events["job"][order]]
        stop[rank[n - 1] + 1:] = True
        cut = int(np.argmax(stop)) if stop.any() else n_events
        if cut == 0:
            return 0
        return self._commit(window, n, queued, jobs, events, order[:cut],
                            rank >= cut, busy_map[:cut], busy_red[:cut])

    def _commit(self, window: dict, n: int, queued: list, jobs: dict, events: dict,
                done: np.ndarray, pending: np.ndarray, busy_map: np.ndarray,
                busy_red: np.ndarray) -> int:
        """Apply a stretch's committed events ``done`` (processing order, with
        the busy slots after each) to the engine exactly as the heap loop
        would; ``pending`` flags the events left for later.  Returns the
        number of jobs admitted."""
        metrics = self.metrics
        times = events["t"][done]
        self._obs_times.extend(times.tolist())
        self._obs_slots.extend((busy_map + busy_red).tolist())
        self.now = float(times[-1])
        self.slots.busy_map = int(busy_map[-1])
        self.slots.busy_reduce = int(busy_red[-1])
        job = events["job"][done]
        is_admit = done < n
        admitted = int(np.count_nonzero(is_admit))
        finishing = events["finishes"][done]
        f_job = job[finishing]

        # Storage counters in event order: each admit reads its input (+in,
        # -in on bytes_written), each finishing writer adds its output.
        in_bytes = window["input_bytes"][:admitted]
        writer = finishing & jobs["writes"][job]
        size = np.where(is_admit, jobs["input_bytes"][job], jobs["output_bytes"][job])
        ops = np.stack((size, -size), axis=1).ravel()[
            np.stack((is_admit | writer, is_admit), axis=1).ravel()]
        hdfs = self.hdfs
        hdfs.bytes_written = _fold_sum(hdfs.bytes_written, ops)
        hdfs.bytes_read = _fold_sum(hdfs.bytes_read, in_bytes)
        stats = self.cache.stats
        stats.misses += admitted
        stats.bytes_from_disk = _fold_sum(stats.bytes_from_disk, in_bytes)
        stats.admissions_rejected += admitted

        # Finished jobs, in finish order.
        if f_job.size:
            f_time = times[finishing]
            submit = jobs["raw"][f_job]
            start = jobs["start"][f_job]
            wait = start - submit
            wait = np.where(wait < 0.0, 0.0, wait)
            completion = f_time - submit
            if metrics.keep_outcomes:
                rows = f_job.tolist()
                records = [entry[2] for entry in queued]
                ids = window["job_id"][:n].tolist() + [r.job_id for r in records]
                totals = (window["total_bytes"][:n].tolist()
                          + [r.total_bytes for r in records])
                n_tasks = (window["n_map"][:n] + window["n_red"][:n]).tolist() + [
                    r.n_map + r.n_reduce for r in records]
                metrics.outcomes.extend(
                    JobOutcome(job_id=ids[row], submit_time_s=sub,
                               start_time_s=begin, finish_time_s=end,
                               wait_time_s=waited, completion_time_s=took,
                               total_bytes=totals[row], n_tasks=n_tasks[row])
                    for row, sub, begin, end, waited, took in zip(
                        rows, submit.tolist(), start.tolist(), f_time.tolist(),
                        wait.tolist(), completion.tolist()))
                metrics.finished_jobs += len(rows)
                metrics.wait._extend(wait.tolist())
                metrics.completion._extend(completion.tolist())
            else:
                self._waits.extend(wait.tolist())
                self._completions.extend(completion.tolist())

        # One seq per dispatching event, in processing order.
        child = events["child"][done]
        dispatching = child >= 0
        seqs = self._seq + np.cumsum(dispatching) - 1
        self._seq += int(np.count_nonzero(dispatching))
        base_order = self._order
        self._order += admitted
        self._active += admitted - int(f_job.size)

        # Still in flight: the children of committed dispatchers that are not
        # committed themselves, plus the queued entries not reached.
        flying = dispatching.copy()
        flying[dispatching] = pending[child[dispatching]]
        kids = child[flying]
        kid_seqs = seqs[flying].tolist()
        kid_times = events["t"][kids].tolist()
        kid_jobs = job[flying]
        stage_two = (done[flying] >= n).tolist()  # dispatched by a completion
        heap = self._heap
        q_first = events["q_first"]
        kept = [entry for index, entry in enumerate(queued)
                if pending[q_first + index]]
        in_window = kid_jobs[kid_jobs < n]
        records = iter(self._records(window, in_window))
        starts = iter(window["eff"][in_window].tolist())
        for index, time_s, seq, second in zip(kid_jobs.tolist(), kid_times,
                                              kid_seqs, stage_two):
            if index < n:
                record = next(records)
                record.start_time_s = next(starts)
                record.order = base_order + index
                record.maps_queued = 0
            else:
                record = queued[index - n][2]
            if second or not record.n_map:
                record.maps_remaining = 0
                record.reduces_queued = 0
                kept.append((time_s, seq, record, "reduce", record.n_reduce))
            else:
                kept.append((time_s, seq, record, "map", record.n_map))
        heap[:] = kept
        heapify(heap)
        return admitted

    # -- driving -----------------------------------------------------------
    def prime(self) -> None:
        """Fill the look-ahead window and take the initial idle observation."""
        if not self._primed:
            self._primed = True
            self._refill()
            self._obs_times.append(0.0)
            self._obs_slots.append(0)
        else:
            self._refill()

    def require_jobs(self) -> None:
        if self.metrics.jobs_submitted == 0:
            raise SimulationError("cannot replay an empty job stream")

    def run(self, until_s: float = _INF) -> None:
        """Process events until the source is dry and every completion at or
        before ``until_s`` has fired.

        With the default ``until_s`` this drains the replay completely.  A
        sharded driver passes the shard boundary: submissions at or past it
        stay buffered and completions after it stay queued (the next shard's
        earliest submission is at or after the boundary and completions win
        ties, so processing completions up to the boundary first is exactly
        the serial event order).
        """
        heap = self._heap
        while True:
            if self._buf_head >= len(self._buf_times):
                self._refill()
                if self._window_rows:
                    self._open_window(until_s)
                    continue
                if self._buf_head >= len(self._buf_times):
                    while heap and heap[0][0] <= until_s:
                        self._pop_completion()
                    return
            next_submit = self._buf_times[self._buf_head]
            if next_submit >= until_s:
                while heap and heap[0][0] <= until_s:
                    self._pop_completion()
                return
            if heap and heap[0][0] <= next_submit:
                self._pop_completion()
            else:
                self._admit_next(until_s)

    def snapshot(self, shard_index: int, boundary_s: float) -> dict:
        """Hand-off state at a shard boundary (for ShardHandoff reporting)."""
        in_flight = 0
        for item in self._heap:
            payload = item[4]
            in_flight += payload if self.fast else len(payload)
        return {
            "shard_index": shard_index,
            "boundary_s": boundary_s,
            "clock_s": self.now,
            "jobs_submitted": self.metrics.jobs_submitted,
            "active_jobs": self._active,
            "in_flight_tasks": in_flight,
            "pending_completion_events": len(self._heap),
            "busy_map_slots": self.slots.busy_map,
            "busy_reduce_slots": self.slots.busy_reduce,
        }

    def finish(self) -> SimulationMetrics:
        metrics = self.metrics
        metrics.horizon_s = self.now
        metrics.cache_stats = self.cache.stats
        self._obs_times.append(self.now)
        self._obs_slots.append(self.slots.total_busy_slots())
        self._fold_metrics()
        metrics.finalize()
        return metrics

    def _fold_metrics(self) -> None:
        """Fold the buffered samples into the metrics in one pass per kind.

        Nothing here feeds back into scheduling, so folding per look-ahead
        refill instead of per event changes no event; the folds themselves
        reproduce the per-sample float operations (see
        :class:`~repro.simulator.metrics.UtilizationAccumulator` and
        ``MetricAccumulator._extend``), so the digest is unchanged too.
        """
        metrics = self.metrics
        times, slots = self._obs_times, self._obs_slots
        metrics.utilization._fold(times, slots)
        if metrics.keep_outcomes:
            metrics.utilization_samples.extend(zip(times, slots))
        times.clear()
        slots.clear()
        metrics.finished_jobs += len(self._completions)
        metrics.wait._extend(self._waits)
        metrics.completion._extend(self._completions)
        self._waits.clear()
        self._completions.clear()


class WorkloadReplayer:
    """Replays a trace on a simulated cluster.

    Args:
        cluster_config: cluster size and per-node slot counts; defaults to a
            100-node cluster with 4 map + 2 reduce slots per node.
        scheduler: scheduling policy; FIFO when omitted.
        cache: storage-cache policy applied to job input reads; no cache when
            omitted.
        hdfs_config: HDFS model parameters.
        max_simulated_jobs: optional cap on the number of jobs replayed (the
            first N by submission order), useful for quick benchmarks.
        task_transform: optional callable applied to each :class:`SimJob`
            right after it is split into tasks and before it is submitted.
            Used to perturb task durations, e.g. by the straggler-injection
            model in :mod:`repro.simulator.stragglers`.  Setting a transform
            disables the vectorized fast path (tasks must exist as objects).
        lookahead: bound on how many submissions may be queued ahead of
            simulated time (default :data:`DEFAULT_LOOKAHEAD`).  Replay
            memory is O(lookahead + active jobs), independent of trace size.
        keep_outcomes: retain the per-job :class:`JobOutcome` list and raw
            utilization samples on the returned metrics (default True here;
            :class:`StreamingReplayer` defaults to False).
    """

    def __init__(self, cluster_config: Optional[ClusterConfig] = None,
                 scheduler: Optional[Scheduler] = None,
                 cache: Optional[CachePolicy] = None,
                 hdfs_config: Optional[HdfsConfig] = None,
                 max_simulated_jobs: Optional[int] = None,
                 task_transform: Optional[Callable[[SimJob], None]] = None,
                 lookahead: int = DEFAULT_LOOKAHEAD,
                 keep_outcomes: bool = True):
        if lookahead < 1:
            raise SimulationError("lookahead must be at least 1, got %r" % (lookahead,))
        self.cluster_config = cluster_config or ClusterConfig()
        self.scheduler = scheduler or FifoScheduler()
        self.cache = cache or NoCache()
        self.hdfs = Hdfs(hdfs_config or HdfsConfig(n_datanodes=self.cluster_config.n_nodes))
        self.max_simulated_jobs = max_simulated_jobs
        self.task_transform = task_transform
        self.lookahead = lookahead
        self.keep_outcomes = keep_outcomes

    # ------------------------------------------------------------------
    def replay(self, trace: Trace) -> SimulationMetrics:
        """Replay a fully materialized trace and return its metrics.

        Raises:
            SimulationError: when the trace is empty.
        """
        if trace.is_empty():
            raise SimulationError("cannot replay an empty trace")
        return self.replay_jobs(iter(trace.jobs))

    def replay_jobs(self, jobs: Iterable[Job]) -> SimulationMetrics:
        """Replay jobs pulled lazily from an iterable, in arrival-time order.

        At most ``lookahead`` jobs are decomposed and queued for submission
        ahead of the simulation clock, so memory stays bounded no matter how
        many jobs the source yields.

        Raises:
            SimulationError: when the iterable yields no jobs, or yields them
                out of arrival-time order (sort the trace, or convert it with
                ``repro engine convert``, first).
        """
        engine = _ReplayEngine(self)
        engine.attach_jobs(jobs)
        engine.prime()
        engine.require_jobs()
        engine.run()
        return engine.finish()

    # ------------------------------------------------------------------
    def _serve_input(self, sim_job: SimJob, now_s: float) -> None:
        """Route the job's input read through HDFS and the cache policy.

        Kept for the legacy reference loop of the differential tests
        (``tests/simulator/legacy_replay.py``); the engine inlines the same
        operation sequence.
        """
        job = sim_job.job
        path = job.input_path or ("/implicit/%s" % job.job_id)
        size = float(job.input_bytes or 0.0)
        self.hdfs.read(path, now_s, size)
        self.cache.access(path, size, now_s)

    def _write_output(self, sim_job: SimJob, now_s: float) -> None:
        """Record the job's output write in HDFS (invalidating stale cache entries)."""
        job = sim_job.job
        if job.output_path is None or not (job.output_bytes or 0.0):
            return
        self.hdfs.create(job.output_path, float(job.output_bytes), now_s, overwrite=True)
        self.cache.invalidate(job.output_path)


class StreamingReplayer(WorkloadReplayer):
    """Bounded-memory replay straight from a chunked store or a lazy reader.

    Differences from :class:`WorkloadReplayer` (all overridable):

    * ``keep_outcomes`` defaults to False: the returned metrics hold only the
      mergeable accumulators, never a per-job outcome list;
    * the HDFS model defaults to ``retain_files=False`` so traces without
      recorded paths do not grow the simulated namespace by one implicit
      entry per job (the file model does not influence replay timing).

    Peak memory is O(chunk + lookahead + active jobs + hours of horizon),
    independent of how many jobs the source holds — this is what lets a
    multi-million-job production trace replay in a few hundred MB of RSS.

    Usage::

        >>> from repro.simulator.replay import StreamingReplayer
        >>> replayer = StreamingReplayer()
        >>> replayer.keep_outcomes, replayer.hdfs.config.retain_files
        (False, False)

    See :meth:`replay_store` for the store-backed entry point used by
    ``repro replay --store``.
    """

    def __init__(self, cluster_config: Optional[ClusterConfig] = None,
                 scheduler: Optional[Scheduler] = None,
                 cache: Optional[CachePolicy] = None,
                 hdfs_config: Optional[HdfsConfig] = None,
                 max_simulated_jobs: Optional[int] = None,
                 task_transform: Optional[Callable[[SimJob], None]] = None,
                 lookahead: int = DEFAULT_LOOKAHEAD,
                 keep_outcomes: bool = False):
        cluster_config = cluster_config or ClusterConfig()
        if hdfs_config is None:
            hdfs_config = HdfsConfig(n_datanodes=cluster_config.n_nodes,
                                     retain_files=False)
        super().__init__(cluster_config=cluster_config, scheduler=scheduler,
                         cache=cache, hdfs_config=hdfs_config,
                         max_simulated_jobs=max_simulated_jobs,
                         task_transform=task_transform, lookahead=lookahead,
                         keep_outcomes=keep_outcomes)

    def replay_store(self, store) -> SimulationMetrics:
        """Replay a :class:`~repro.engine.store.ChunkedTraceStore` (or its
        directory path), streaming one chunk of jobs at a time.

        Under the default FIFO/no-transform configuration the jobs are
        decomposed directly from the store's column arrays (no ``Job``
        objects); otherwise the chunks are materialized row by row.  Both
        feeds produce the identical event sequence.

        Raises:
            SimulationError: when the store is not sorted by submission time
                (rebuild it with ``repro engine convert`` from a sorted
                source) or is empty.
        """
        metrics = self._replay_store_window(store, None, None, empty_ok=False)
        assert metrics is not None
        return metrics

    def _replay_store_window(self, store, window_lo: Optional[float],
                             window_hi: Optional[float],
                             empty_ok: bool) -> Optional[SimulationMetrics]:
        """Replay one time window ``[window_lo, window_hi)`` of a store.

        ``None`` bounds are open; chunks whose submit-time zone is disjoint
        from the window are never read.  Returns ``None`` instead of raising
        when the window holds no jobs and ``empty_ok`` is set (the windowed
        sharding driver skips empty windows).
        """
        from ..engine.store import ChunkedTraceStore

        if not isinstance(store, ChunkedTraceStore):
            store = ChunkedTraceStore(store)
        indices = list(range(store.n_chunks))
        if window_lo is not None or window_hi is not None:
            indices = [
                index for index in indices
                if _zone_overlaps(store.chunk_zone(index, "submit_time_s"),
                                  window_lo, window_hi)
            ]
        engine = _ReplayEngine(self)
        if engine.fast:
            wanted = [name for name in _FAST_NUMERIC + _FAST_STRINGS
                      if name in store.columns]
            blocks = store.iter_chunks(columns=wanted, chunk_indices=indices)
            if window_lo is not None or window_hi is not None:
                blocks = _window_blocks(blocks, window_lo, window_hi)
            engine.attach_blocks(blocks)
        else:
            jobs: Iterator[Job] = _iter_store_jobs(store, indices)
            if window_lo is not None or window_hi is not None:
                jobs = _window_jobs(jobs, window_lo, window_hi)
            engine.attach_jobs(jobs)
        engine.prime()
        if empty_ok and engine.metrics.jobs_submitted == 0:
            return None
        engine.require_jobs()
        engine.run()
        return engine.finish()

    def replay_path(self, path) -> SimulationMetrics:
        """Replay a trace file (.csv/.jsonl, optionally .gz) without
        materializing it, via the lazy readers in :mod:`repro.traces.io`.

        The file must list jobs in arrival-time order (the library's writers
        always do, since :class:`~repro.traces.trace.Trace` keeps jobs
        sorted).
        """
        from ..traces.io import iter_trace

        return self.replay_jobs(iter_trace(path))


def _zone_overlaps(zone, window_lo: Optional[float], window_hi: Optional[float]) -> bool:
    if zone is None:
        return True  # unknown zone: never skip
    if window_hi is not None and zone[0] >= window_hi:
        return False
    if window_lo is not None and zone[1] < window_lo:
        return False
    return True


def _window_blocks(blocks, window_lo: Optional[float], window_hi: Optional[float]):
    """Slice each block to rows with ``window_lo <= submit < window_hi``.

    Blocks from a sorted store are internally sorted, so the window is a
    contiguous row range found with two binary searches.
    """
    for block in blocks:
        submits = block.column("submit_time_s")
        lo = 0 if window_lo is None else int(np.searchsorted(submits, window_lo, side="left"))
        hi = submits.shape[0] if window_hi is None else int(
            np.searchsorted(submits, window_hi, side="left"))
        if hi > lo:
            yield block if (lo == 0 and hi == submits.shape[0]) else block.slice(lo, hi)


def _window_jobs(jobs: Iterator[Job], window_lo: Optional[float],
                 window_hi: Optional[float]) -> Iterator[Job]:
    for job in jobs:
        if window_lo is not None and job.submit_time_s < window_lo:
            continue
        if window_hi is not None and job.submit_time_s >= window_hi:
            continue
        yield job


def _iter_store_jobs(store, indices) -> Iterator[Job]:
    from ..engine.columnar import _block_to_jobs

    for block in store.iter_chunks(chunk_indices=indices):
        for job in _block_to_jobs(block):
            yield job


def replay(trace: Trace, cluster_config: Optional[ClusterConfig] = None,
           scheduler: Optional[Scheduler] = None, cache: Optional[CachePolicy] = None,
           max_simulated_jobs: Optional[int] = None) -> SimulationMetrics:
    """Convenience wrapper: build a :class:`WorkloadReplayer` and run it."""
    replayer = WorkloadReplayer(
        cluster_config=cluster_config, scheduler=scheduler, cache=cache,
        max_simulated_jobs=max_simulated_jobs,
    )
    return replayer.replay(trace)


def replay_store(store, cluster_config: Optional[ClusterConfig] = None,
                 scheduler: Optional[Scheduler] = None,
                 cache: Optional[CachePolicy] = None,
                 max_simulated_jobs: Optional[int] = None,
                 lookahead: int = DEFAULT_LOOKAHEAD) -> SimulationMetrics:
    """Convenience wrapper: stream a chunked store through a
    :class:`StreamingReplayer` with bounded memory."""
    replayer = StreamingReplayer(
        cluster_config=cluster_config, scheduler=scheduler, cache=cache,
        max_simulated_jobs=max_simulated_jobs, lookahead=lookahead,
    )
    return replayer.replay_store(store)
