"""Workload replay on the simulated cluster — materialized or streaming.

:class:`WorkloadReplayer` takes a trace (observed, spec-generated, or produced
by the SWIM synthesizer), splits each job into map and reduce tasks, and
runs them through the discrete-event cluster model under a chosen scheduler
and storage-cache policy, optionally slowing randomly drawn tasks down
(:class:`~repro.simulator.stragglers.StragglerInjector`).  The output is a
:class:`~repro.simulator.metrics.SimulationMetrics` with per-job wait and
completion summaries, slot-occupancy over time (the Figure-7 utilization
column), and cache hit statistics (the §4.2/§4.3 policy comparisons).

Both replayers share one vectorized event engine (:class:`_ReplayEngine`)
with one feed: every source reaches it as NumPy column blocks
(:class:`~repro.engine.columnar.ColumnBlock`), which it pulls in
arrival-time order with a bounded submission look-ahead.  A chunked
on-disk store yields its chunks, read with only the columns a replay uses;
an in-memory :class:`~repro.traces.trace.Trace`, a lazy trace-file reader
or any job iterator is batched into blocks as the engine asks for them.  So
the event sequence — and therefore every metric, bit for bit — is identical
whatever the jobs came from:

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
  same instant to the same stage with the same completion time share
  **one** heap entry (their completion events are adjacent in the legacy
  event order, so processing them as a group is order-preserving);
* jobs are one record each (``_PreparedJob``: task counts and a duration per
  stage, plus the per-task durations of a stage that drew a straggler),
  decomposed with NumPy straight from the feed's column arrays — no task
  objects exist at all — and slot accounting is two integers per slot kind
  (:class:`~repro.simulator.cluster.SlotLedger`);
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

import copy
from bisect import bisect_left
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..traces.schema import Job
from ..traces.trace import Trace
from .cache import CachePolicy, NoCache
from .cluster import ClusterConfig, SlotLedger
from .hdfs import Hdfs, HdfsConfig
from .metrics import ACCUMULATOR_BATCH, JobOutcome, SimulationMetrics
from .scheduler import FifoScheduler, Scheduler
from .stragglers import StragglerInjector

__all__ = ["WorkloadReplayer", "StreamingReplayer", "replay", "replay_store"]

#: Default bound on submission look-ahead: at most this many jobs are split
#: into tasks and queued for submission ahead of simulated time.
DEFAULT_LOOKAHEAD = 4096

_INF = float("inf")

#: Seconds of work per task when a trace lacks task counts.
DEFAULT_SECONDS_PER_TASK = 30.0

#: Cap on the number of simulated tasks per stage, to keep replay tractable
#: for jobs with millions of slot-seconds.  The aggregate task time is
#: preserved; only the granularity changes.
MAX_TASKS_PER_STAGE = 512

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

#: The columns a replay reads (all but ``submit_time_s`` may be absent).
REPLAY_COLUMNS = ("submit_time_s", "map_task_seconds", "reduce_task_seconds",
                  "map_tasks", "reduce_tasks", "input_bytes", "shuffle_bytes",
                  "output_bytes", "job_id", "input_path", "output_path")


class _PreparedJob:
    """The engine's job record: scalar stage parameters, no task objects.

    A trace job becomes ``n_map`` map tasks of ``map_duration_s`` seconds
    each and ``n_reduce`` reduce tasks of ``reduce_duration_s``; a job of
    neither is one 1-second map, so it still occupies a slot for a moment.
    ``map_durations``/``reduce_durations`` replace the uniform duration with
    per-task ones, in dispatch order, for a stage that drew a straggler.
    ``maps_queued`` counts not-yet-dispatched map tasks, ``maps_remaining``
    not-yet-completed ones (likewise for reduces); ``order`` is the admission
    index the schedulers' ready queues rank jobs by.  ``running``/``entry``
    (fair) and ``pool`` (capacity) belong to the scheduler's queues.
    """

    __slots__ = ("job_id", "submit_time_s", "n_map", "map_duration_s",
                 "n_reduce", "reduce_duration_s", "maps_queued",
                 "maps_remaining", "reduces_queued", "reduces_remaining",
                 "start_time_s", "order", "input_path", "input_bytes",
                 "output_path", "output_bytes", "total_bytes",
                 "map_durations", "reduce_durations", "running", "entry", "pool")

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
        self.map_durations = None
        self.reduce_durations = None


def _vector_stage(seconds: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Task counts and per-task durations of one stage for a block of jobs.

    A job's count is its recorded one (or one task per
    :data:`DEFAULT_SECONDS_PER_TASK`, rounded half to even), at most
    :data:`MAX_TASKS_PER_STAGE`, sharing the stage's task time evenly; a
    stage without task time has no tasks.
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

def _path_column(column: Optional[np.ndarray], lo: int, hi: int) -> np.ndarray:
    if column is None:  # never recorded: every job reads None
        return np.full(hi - lo, None, dtype=object)
    return column[lo:hi]


def _truthy(column: np.ndarray) -> np.ndarray:
    """``bool(value)`` per element (fixed-width strings compare, ~60x faster)."""
    if column.dtype.kind == "U":
        return column != ""
    return column.astype(bool)


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
    configuration from the owning :class:`WorkloadReplayer` and starts from
    fresh storage state: its own copy of the cache policy the replayer was
    built with, and an empty HDFS namespace with zero counters, which it
    leaves on the replayer as ``replayer.cache`` and ``replayer.hdfs``.

    Its one source is an iterator of column blocks (see
    :func:`_feed_blocks`); a refill slices the loaded block's rows, so rows
    past a shard's ``feed_boundary`` simply stay in the block.  The rows
    become :class:`_PreparedJob` records, decomposed with NumPy, and wait for
    slots in the ready queues the scheduler builds for this replay (see
    :mod:`repro.simulator.scheduler`).  How a policy is dispatched depends on
    whether its picks read running-task counts:

    * **FIFO**'s picks never do, so dispatching a job's whole queued run in
      one step, and releasing a completed group of tasks at once, is
      pick-for-pick identical to the one-slot-at-a-time loop;
    * **fair** and **capacity** picks do, so they are asked once per freed
      slot, and each completion replays the legacy per-task order: release
      the slot, report it to the queues, finish the job if that was its last
      task, dispatch maps, dispatch reduces.

    A straggler injector (see :mod:`repro.simulator.stragglers`) draws each
    look-ahead window's stragglers when the window is opened — one random
    number per task, in pull order — and a dispatch splits a run of tasks
    where their completion times differ, which is how one-at-a-time picks
    would have grouped them.

    Utilization is sampled once per simulated instant with activity (the
    final busy count), instead of once per task transition as the legacy loop
    does.  All intermediate legacy observations at one instant close
    zero-length segments, which add exactly nothing to any accumulator bin,
    so ``busy_slot_seconds`` and the hourly bins are bit-identical; only the
    retained raw-sample *list* is shorter (its step function is unchanged).

    The metric side never feeds back into scheduling, so it is not paid per
    event: the engine appends each ``(time, busy slots)`` sample and, without
    retained outcomes, each finished job's wait and completion to plain
    lists, and :meth:`_fold_metrics` folds them into the
    accumulators in one vectorized pass at a look-ahead refill (once
    :data:`~repro.simulator.metrics.ACCUMULATOR_BATCH` samples are waiting)
    and at :meth:`finish`.  The folds repeat the per-sample float operations
    in the same order, so every digest bit is unchanged.  Output writes under
    the fast I/O path only add to the HDFS byte counter, like input reads.

    A refill buffers its jobs as column arrays (a window) and
    :meth:`_open_window` first offers the window to :meth:`_stretch`, which
    schedules its leading uncontended stretch with NumPy and commits it
    exactly as the heap loop would have processed it (FIFO, no stragglers,
    fast I/O only); the rest of the window becomes :class:`_PreparedJob`
    records for the heap loop, which stays the exact fallback for contention.
    """

    def __init__(self, replayer: "WorkloadReplayer", blocks: Iterable):
        self.replayer = replayer
        config = replayer.cluster_config
        replayer.cache = self.cache = copy.deepcopy(replayer._cache_policy)
        replayer.hdfs = self.hdfs = Hdfs(replayer.hdfs.config)
        self.stragglers = replayer.stragglers
        self.lookahead = replayer.lookahead
        self.slots = SlotLedger(config)
        self.metrics = SimulationMetrics(total_slots=config.total_slots,
                                         keep_outcomes=replayer.keep_outcomes)
        self.now = 0.0
        self.last_submit = -_INF
        self.feed_boundary = _INF
        self._queues = replayer.scheduler._queues()
        self._fifo = isinstance(replayer.scheduler, FifoScheduler)
        # Serving a job's input through a NoCache + retain_files=False HDFS
        # is a fixed float-op sequence on the counters; skip the path
        # string, the HdfsFile allocation and both dict probes per job.
        self._fast_io = (type(self.cache) is NoCache
                         and not self.hdfs.config.retain_files)
        self._stretchable = self._fifo and self.stragglers is None and self._fast_io
        self._seq = 0
        self._order = 0
        self._active = 0
        self._primed = False
        self._heap: List[tuple] = []
        # Buffered (not yet admitted) submissions: parallel lists + cursor.
        self._buf_times: List[float] = []
        self._buf_jobs: List[object] = []
        self._buf_head = 0
        # Submissions pulled by the current refill and not yet buffered as
        # records: column parts, _window_rows jobs in all; see _open_window.
        self._window_parts: List[dict] = []
        self._window_rows = 0
        self._budget = replayer.max_simulated_jobs
        # Metric samples awaiting the per-chunk fold (_fold_metrics):
        # (time, busy slots) observations, and the wait/completion of each
        # job finished without a retained outcome.
        self._obs_times: List[float] = []
        self._obs_slots: List[int] = []
        self._waits: List[float] = []
        self._completions: List[float] = []
        # The job source: column blocks, the loaded one's columns and cursor.
        self._blocks = iter(blocks)
        self._cols: Optional[dict] = None
        self._row = 0
        self._n_rows = 0
        self._exhausted = False

    # -- job source --------------------------------------------------------
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

    def _prep_rows(self, lo: int, hi: int) -> None:
        """Vectorized decomposition of the loaded block's rows ``[lo, hi)``."""
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
        window and clear the parts."""
        parts = self._window_parts
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
        whatever it did not commit to the heap loop as buffered records
        (drawing their stragglers first, when an injector is set)."""
        window = self._take_window()
        committed = self._stretch(window, until_s) if attempt else 0
        rows = np.arange(committed, window["eff"].shape[0])
        if rows.size:
            records = self._records(window, rows)
            if self.stragglers is not None:
                slow = self.stragglers.draw(*(window[name][committed:] for name in (
                    "job_id", "n_map", "map_dur", "n_red", "red_dur")))
                for (row, kind), durations in slow.items():
                    if kind == "map":
                        records[row].map_durations = durations
                    else:
                        records[row].reduce_durations = durations
            self._buf_times.extend(window["eff"][rows].tolist())
            self._buf_jobs.extend(records)

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
    def _admit(self, record: _PreparedJob) -> None:
        record.order = self._order
        self._order += 1
        self._active += 1
        self._serve_input(record.job_id, record.input_path, record.input_bytes)
        self._queues.admit(record)

    def _push_run(self, record: _PreparedJob, kind: str, durations: list,
                  first: int, take: int) -> None:
        """Heap entries for tasks ``[first, first + take)`` of a stage with
        per-task ``durations``: one per run of equal completion times."""
        now = self.now
        heap = self._heap
        group_time, count = 0.0, 0
        for task_duration in durations[first:first + take]:
            completion = now + task_duration
            if count and completion == group_time:
                count += 1
                continue
            if count:
                heappush(heap, (group_time, self._seq, record, kind, count))
                self._seq += 1
            group_time, count = completion, 1
        heappush(heap, (group_time, self._seq, record, kind, count))
        self._seq += 1

    def _dispatch_fast(self) -> bool:
        """FIFO dispatch over the ready queues, a job's whole queued run of
        each stage at a time."""
        slots = self.slots
        queues = self._queues
        now = self.now
        dispatched = False
        free = slots.map_capacity - slots.busy_map
        if free > 0 and queues.maps:
            ready = queues.maps
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
                if record.map_durations is None:
                    heappush(self._heap, (now + record.map_duration_s, self._seq,
                                          record, "map", take))
                    self._seq += 1
                else:
                    self._push_run(record, "map", record.map_durations,
                                   record.n_map - record.maps_queued - take, take)
                free -= take
            slots.busy_map = slots.map_capacity - free
            dispatched = True
        free = slots.reduce_capacity - slots.busy_reduce
        if free > 0 and queues.reduces:
            ready = queues.reduces
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
                if record.reduce_durations is None:
                    heappush(self._heap, (now + record.reduce_duration_s, self._seq,
                                          record, "reduce", take))
                    self._seq += 1
                else:
                    self._push_run(record, "reduce", record.reduce_durations,
                                   record.n_reduce - record.reduces_queued - take, take)
                free -= take
            slots.busy_reduce = slots.reduce_capacity - free
            dispatched = True
        return dispatched

    def _dispatch_picks(self, kind: str) -> bool:
        """Fill the free slots of ``kind`` one pick at a time (fair and
        capacity); consecutive picks of one job that complete together share
        a heap entry."""
        slots = self.slots
        if kind == "map":
            free = slots.map_capacity - slots.busy_map
        else:
            free = slots.reduce_capacity - slots.busy_reduce
        if free <= 0:
            return False
        pick = self._queues.pick
        now = self.now
        heap = self._heap
        taken = 0
        group, group_time, count = None, 0.0, 0
        while taken < free:
            record = pick(kind)
            if record is None:
                break
            taken += 1
            if record.start_time_s is None:
                record.start_time_s = now
            if kind == "map":
                durations = record.map_durations
                completion = now + (record.map_duration_s if durations is None else
                                    durations[record.n_map - record.maps_queued - 1])
            else:
                durations = record.reduce_durations
                completion = now + (record.reduce_duration_s if durations is None else
                                    durations[record.n_reduce - record.reduces_queued - 1])
            if record is group and completion == group_time:
                count += 1
                continue
            if count:
                heappush(heap, (group_time, self._seq, group, kind, count))
                self._seq += 1
            group, group_time, count = record, completion, 1
        if not taken:
            return False
        if kind == "map":
            slots.busy_map += taken
        else:
            slots.busy_reduce += taken
        heappush(heap, (group_time, self._seq, group, kind, count))
        self._seq += 1
        return True

    # -- event processing --------------------------------------------------
    def _finish(self, record: _PreparedJob) -> None:
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

    def _pop_completion(self) -> None:
        time_s, _seq, record, kind, count = heappop(self._heap)
        self.now = time_s
        slots = self.slots
        queues = self._queues
        if self._fifo:
            if kind == "map":
                slots.busy_map -= count
                record.maps_remaining -= count
                if record.maps_remaining == 0 and record.reduces_queued:
                    queues.reduce_ready(record)
            else:
                slots.busy_reduce -= count
                record.reduces_remaining -= count
            if record.maps_remaining == 0 and record.reduces_remaining == 0:
                self._finish(record)
            self._dispatch_fast()
        else:
            # The legacy per-task order: the picks read the running counts
            # each completion lowers, so one task at a time.
            for _ in range(count):
                if kind == "map":
                    slots.busy_map -= 1
                    queues.released(record, kind)
                    record.maps_remaining -= 1
                    if record.maps_remaining == 0 and record.reduces_queued:
                        queues.reduce_ready(record)
                else:
                    slots.busy_reduce -= 1
                    queues.released(record, kind)
                    record.reduces_remaining -= 1
                if record.maps_remaining == 0 and record.reduces_remaining == 0:
                    self._finish(record)
                self._dispatch_picks("map")
                self._dispatch_picks("reduce")
        self._obs_times.append(time_s)
        self._obs_slots.append(slots.busy_map + slots.busy_reduce)

    def _admit_next(self, until_s: float = _INF) -> None:
        head = self._buf_head
        self.now = self._buf_times[head]
        record = self._buf_jobs[head]
        self._buf_head = head + 1
        self._admit(record)
        if self._fifo:
            dispatched = self._dispatch_fast()
        else:
            dispatched_map = self._dispatch_picks("map")
            dispatched_reduce = self._dispatch_picks("reduce")
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

        Allowed only under FIFO without stragglers and with the fast I/O
        path, when no job waits for a slot and every queued heap entry
        runs a whole stage of its job.  Then, until some dispatch finds too
        few free slots, each job's schedule follows from its own columns (see
        :meth:`_stretch_span`).  The window's jobs before ``until_s`` go in
        two spans, its first :data:`_FIRST_SPAN` rows and, if those are all
        admitted, the rest, so a window that contends early pays for a short
        sort only.  Returns the number of window jobs admitted; the heap loop
        takes over from there.
        """
        if (not self._stretchable or self._queues.maps or self._queues.reduces
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
        return {
            "shard_index": shard_index,
            "boundary_s": boundary_s,
            "clock_s": self.now,
            "jobs_submitted": self.metrics.jobs_submitted,
            "active_jobs": self._active,
            "in_flight_tasks": sum(entry[4] for entry in self._heap),
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
        metrics.utilization.fold(times, slots)
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
        stragglers: optional
            :class:`~repro.simulator.stragglers.StragglerInjector` that slows
            down randomly drawn tasks (and rescues some by speculative
            execution) as the jobs are pulled.
        lookahead: bound on how many submissions may be queued ahead of
            simulated time (default :data:`DEFAULT_LOOKAHEAD`).  Replay
            memory is O(lookahead + active jobs), independent of trace size.
        keep_outcomes: retain the per-job :class:`JobOutcome` list and raw
            utilization samples on the returned metrics (default True here;
            :class:`StreamingReplayer` defaults to False).

    Every replay starts from a copy of ``cache`` as given here and from an
    empty HDFS namespace; afterwards :attr:`cache` and :attr:`hdfs` hold
    that replay's final storage state, so replaying twice gives the same
    metrics twice.
    """

    def __init__(self, cluster_config: Optional[ClusterConfig] = None,
                 scheduler: Optional[Scheduler] = None,
                 cache: Optional[CachePolicy] = None,
                 hdfs_config: Optional[HdfsConfig] = None,
                 max_simulated_jobs: Optional[int] = None,
                 stragglers: Optional[StragglerInjector] = None,
                 lookahead: int = DEFAULT_LOOKAHEAD,
                 keep_outcomes: bool = True):
        if lookahead < 1:
            raise SimulationError("lookahead must be at least 1, got %r" % (lookahead,))
        self.cluster_config = cluster_config or ClusterConfig()
        self.scheduler = scheduler or FifoScheduler()
        self._cache_policy = self.cache = cache or NoCache()
        self.hdfs = Hdfs(hdfs_config or HdfsConfig())
        self.max_simulated_jobs = max_simulated_jobs
        self.stragglers = stragglers
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
        return self.replay_jobs(trace.jobs)

    def replay_jobs(self, jobs: Iterable[Job]) -> SimulationMetrics:
        """Replay jobs pulled lazily from an iterable, in arrival-time order.

        The jobs are read into column blocks of at most ``lookahead`` jobs,
        as the engine asks for them and never past ``max_simulated_jobs``,
        so memory stays bounded no matter how many jobs the source yields.

        Raises:
            SimulationError: when the iterable yields no jobs, or yields them
                out of arrival-time order (sort the trace, or convert it with
                ``repro engine convert``, first).
        """
        return self.replay_blocks(_feed_blocks(jobs, self))

    def replay_blocks(self, blocks: Iterable) -> SimulationMetrics:
        """Replay :class:`~repro.engine.columnar.ColumnBlock` batches of jobs
        in arrival-time order: the feed every other entry point builds.

        A block needs ``submit_time_s``; any other of
        :data:`REPLAY_COLUMNS` it lacks reads as unrecorded.

        Raises:
            SimulationError: when the blocks hold no jobs, or hold them out of
                arrival-time order.
        """
        engine = _ReplayEngine(self, blocks)
        engine.prime()
        engine.require_jobs()
        engine.run()
        return engine.finish()


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
                 stragglers: Optional[StragglerInjector] = None,
                 lookahead: int = DEFAULT_LOOKAHEAD,
                 keep_outcomes: bool = False):
        if hdfs_config is None:
            hdfs_config = HdfsConfig(retain_files=False)
        super().__init__(cluster_config=cluster_config, scheduler=scheduler,
                         cache=cache, hdfs_config=hdfs_config,
                         max_simulated_jobs=max_simulated_jobs,
                         stragglers=stragglers, lookahead=lookahead,
                         keep_outcomes=keep_outcomes)

    def replay_store(self, store) -> SimulationMetrics:
        """Replay a :class:`~repro.engine.store.ChunkedTraceStore` (or its
        directory path), streaming one chunk of jobs at a time.

        The jobs are decomposed directly from the store's column arrays (no
        ``Job`` objects), as for every other source, so the event sequence
        is the one a replay of the same jobs from any source produces.

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
        blocks = _feed_blocks(store, self, indices)
        if window_lo is not None or window_hi is not None:
            blocks = _window_blocks(blocks, window_lo, window_hi)
        engine = _ReplayEngine(self, blocks)
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


def _feed_blocks(source, replayer: WorkloadReplayer,
                 chunk_indices: Optional[List[int]] = None) -> Iterator:
    """The column blocks an engine replays: the one reader every replay is
    fed through.

    A :class:`~repro.engine.store.ChunkedTraceStore` yields its chunks (only
    ``chunk_indices`` when given), read with only the
    :data:`REPLAY_COLUMNS` it records.  Any other source is an iterable of
    ``Job`` objects, batched lazily into blocks of at most ``lookahead`` jobs
    and never read past ``max_simulated_jobs``.
    """
    from ..engine.store import ChunkedTraceStore

    if isinstance(source, ChunkedTraceStore):
        wanted = [name for name in REPLAY_COLUMNS if name in source.columns]
        return source.iter_chunks(columns=wanted, chunk_indices=chunk_indices)
    jobs = iter(source)
    if replayer.max_simulated_jobs is not None:
        jobs = islice(jobs, max(0, replayer.max_simulated_jobs))
    return _job_blocks(jobs, replayer.lookahead)


def _job_blocks(jobs: Iterator[Job], rows: int) -> Iterator:
    """Blocks of the next ``rows`` jobs at a time, pulled when asked for."""
    from ..engine.columnar import ALL_COLUMNS, ColumnBlock, _append_job, _buffers_to_arrays

    while True:
        buffers = {column: [] for column in ALL_COLUMNS}
        for job in islice(jobs, rows):
            _append_job(buffers, job)
        if not buffers["job_id"]:
            return
        yield ColumnBlock(_buffers_to_arrays(buffers))


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
