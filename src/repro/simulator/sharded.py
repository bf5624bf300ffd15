"""Time-sharded replay: split a sorted trace into per-window shards.

Two sharding disciplines, both built on the vectorized engine in
:mod:`repro.simulator.replay`:

* **exact** (the default) — one engine instance is threaded across the time
  windows in order.  The shard boundary only throttles the *feed*: jobs whose
  raw submit time is at or past the boundary stay with the next shard, and
  the engine pauses once every completion at or before the boundary has
  fired.  In-flight tasks, busy slots, the scheduler's ready queues, cache
  state, the straggler stream and the metric accumulators carry across the
  boundary untouched (snapshotted per boundary as a :class:`ShardHandoff`),
  so the event sequence — and every digest bit — is identical to an
  unsharded run.  Exactness hinges on two event-loop
  invariants pinned by the equivalence suite: the next shard's earliest
  submission is at or after the boundary, and completions precede
  submissions at equal times, so draining completions up to the boundary
  before feeding the next shard is exactly the serial event order.
* **windowed** — each window is replayed *independently* (fresh cluster,
  scheduler and cache per shard) on a
  :class:`~repro.engine.parallel.ParallelExecutor`, pruning store chunks by
  their submit-time zones, and the per-shard
  :class:`~repro.simulator.metrics.SimulationMetrics` are merged.  Counts,
  extremes and sketch bins merge exactly; float sums are subject to merge
  rounding, and cross-boundary queueing contention is *dropped* — a job
  admitted in window k that would still occupy slots in window k+1 does not
  delay the next window's jobs.  This is the SWIM-style approximation: it is
  exact when no boundary has in-flight work, and the per-window
  :class:`ShardHandoff` reports (``horizon_s`` past the boundary) show where
  it was not.  Use it for throughput, exact mode for bit-fidelity.  With a
  straggler injector the windows replay one after another in-process,
  sharing its one RNG stream, so which tasks straggle depends on the cuts.

The cut points default to an even split of the store's recorded submit-time
range; pass ``boundaries`` to control them.  Jobs submitted exactly *at* a
boundary belong to the following shard (half-open windows), so an arrival tie
on the boundary never splits across shards.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..errors import SimulationError
from .cache import CachePolicy
from .cluster import ClusterConfig
from .hdfs import HdfsConfig
from .metrics import SimulationMetrics
from .replay import DEFAULT_LOOKAHEAD, StreamingReplayer, _feed_blocks, _ReplayEngine
from .scheduler import Scheduler
from .stragglers import StragglerInjector

__all__ = ["ShardHandoff", "ShardedReplayer", "SHARD_MODES"]

SHARD_MODES = ("exact", "windowed")

_INF = float("inf")


@dataclass(frozen=True)
class ShardHandoff:
    """State carried over one shard boundary (exact mode) or one window's
    closing report (windowed mode).

    Attributes:
        shard_index: zero-based index of the shard that just finished feeding.
        boundary_s: the boundary (raw submit time, exclusive for this shard).
        clock_s: simulation clock when the hand-off was taken.
        jobs_submitted: cumulative jobs fed so far (exact) or jobs in this
            window (windowed).
        active_jobs: jobs admitted but not yet finished at the hand-off.
        in_flight_tasks: running tasks crossing the boundary.
        pending_completion_events: queued completion heap entries.
        busy_map_slots: map slots occupied across the boundary.
        busy_reduce_slots: reduce slots occupied across the boundary.
    """

    shard_index: int
    boundary_s: float
    clock_s: float
    jobs_submitted: int
    active_jobs: int
    in_flight_tasks: int
    pending_completion_events: int
    busy_map_slots: int
    busy_reduce_slots: int


def _replay_window_task(task) -> Optional[tuple]:
    """ParallelExecutor worker: replay one time window of a shared store."""
    from ..engine.parallel import get_worker_store

    directory, blob, window_lo, window_hi = task
    replayer: StreamingReplayer = pickle.loads(blob)
    store = get_worker_store(directory)
    metrics = replayer._replay_store_window(store, window_lo, window_hi,
                                            empty_ok=True)
    if metrics is None:
        return None
    return metrics, metrics.jobs_submitted, metrics.horizon_s


class ShardedReplayer(StreamingReplayer):
    """Replay a sorted store split into per-time-window shards.

    Args:
        shards: number of time windows (≥ 1; 1 degenerates to a plain
            streamed replay in either mode).
        mode: ``"exact"`` or ``"windowed"`` — see the module docstring for
            the fidelity/throughput trade-off.
        boundaries: explicit interior cut points (``shards - 1`` ascending
            raw submit times).  Defaults to an even split of the store's
            submit-time range.  Required for :meth:`replay_jobs` with more
            than one shard (an iterator's time range is unknown up front).
        processes: worker processes for windowed mode (``None`` = one per
            core, as :class:`~repro.engine.parallel.ParallelExecutor`).
        Remaining arguments match :class:`StreamingReplayer`.

    After a replay, :attr:`handoffs` holds one :class:`ShardHandoff` per
    boundary (exact mode) or per non-empty window (windowed mode).
    """

    def __init__(self, cluster_config: Optional[ClusterConfig] = None,
                 scheduler: Optional[Scheduler] = None,
                 cache: Optional[CachePolicy] = None,
                 hdfs_config: Optional[HdfsConfig] = None,
                 max_simulated_jobs: Optional[int] = None,
                 stragglers: Optional[StragglerInjector] = None,
                 lookahead: int = DEFAULT_LOOKAHEAD,
                 keep_outcomes: bool = False,
                 shards: int = 2,
                 mode: str = "exact",
                 boundaries: Optional[Sequence[float]] = None,
                 processes: Optional[int] = None):
        super().__init__(cluster_config=cluster_config, scheduler=scheduler,
                         cache=cache, hdfs_config=hdfs_config,
                         max_simulated_jobs=max_simulated_jobs,
                         stragglers=stragglers, lookahead=lookahead,
                         keep_outcomes=keep_outcomes)
        if not isinstance(shards, int) or shards < 1:
            raise SimulationError("shards must be a positive integer, got %r"
                                  % (shards,))
        if mode not in SHARD_MODES:
            raise SimulationError("unknown shard mode %r (choose from %s)"
                                  % (mode, "/".join(SHARD_MODES)))
        if boundaries is not None:
            boundaries = [float(value) for value in boundaries]
            if len(boundaries) != shards - 1:
                raise SimulationError(
                    "%d shards need %d interior boundaries, got %d"
                    % (shards, shards - 1, len(boundaries)))
            if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
                raise SimulationError("shard boundaries must be strictly increasing")
        self.shards = shards
        self.mode = mode
        self.boundaries = boundaries
        self.processes = processes
        self.handoffs: List[ShardHandoff] = []

    # ------------------------------------------------------------------
    def replay_blocks(self, blocks: Iterable) -> SimulationMetrics:
        """Exact sharded replay of sorted column blocks (what :meth:`replay`
        and :meth:`replay_jobs` feed as well).

        Needs explicit ``boundaries`` when ``shards > 1`` (the time range of
        an iterator is unknown until it is consumed); windowed mode needs a
        store (:meth:`replay_store`) because each worker re-reads its window.
        """
        if self.shards > 1 and self.mode == "windowed":
            raise SimulationError(
                "windowed sharding needs a chunked store (replay_store); "
                "use mode='exact' for iterator sources")
        if self.shards > 1 and self.boundaries is None:
            raise SimulationError(
                "sharded replay_jobs needs explicit boundaries (an "
                "iterator's time range is unknown); pass boundaries= or "
                "replay from a store")
        return self._run_exact(_ReplayEngine(self, blocks))

    def replay_store(self, store) -> SimulationMetrics:
        from ..engine.store import ChunkedTraceStore

        if not isinstance(store, ChunkedTraceStore):
            store = ChunkedTraceStore(store)
        if self.shards == 1:
            self.handoffs = []
            return super().replay_store(store)
        boundaries = self.boundaries
        if boundaries is None:
            boundaries = self._even_boundaries(store)
        if self.mode == "windowed":
            return self._run_windowed(store, boundaries)
        return self._run_exact(_ReplayEngine(self, _feed_blocks(store, self)),
                               boundaries)

    # ------------------------------------------------------------------
    def _even_boundaries(self, store) -> List[float]:
        time_range = store.info()["submit_time_range"]
        if time_range is None:
            raise SimulationError("cannot replay an empty job stream")
        lo, hi = float(time_range[0]), float(time_range[1])
        shards = self.shards
        return [lo + (hi - lo) * index / shards for index in range(1, shards)]

    def _run_exact(self, engine: _ReplayEngine,
                   boundaries: Optional[Sequence[float]] = None) -> SimulationMetrics:
        """Drive one engine across the boundary list, snapshotting hand-offs."""
        if boundaries is None:
            boundaries = self.boundaries or []
        self.handoffs = []
        if boundaries:
            # Before priming, so the initial look-ahead pull already stops at
            # shard 0's window and the hand-off counters reflect it.
            engine.feed_boundary = boundaries[0]
        engine.prime()
        for index, boundary in enumerate(boundaries):
            engine.feed_boundary = boundary
            engine.run(until_s=boundary)
            self.handoffs.append(ShardHandoff(**engine.snapshot(index, boundary)))
        engine.feed_boundary = _INF
        engine.require_jobs()
        engine.run()
        return engine.finish()

    def _run_windowed(self, store, boundaries: Sequence[float]) -> SimulationMetrics:
        from ..engine.parallel import ParallelExecutor

        edges: List[Optional[float]] = [None] + list(boundaries) + [None]
        windows = [(edges[index], edges[index + 1])
                   for index in range(len(edges) - 1)]
        self.handoffs = []
        if self.stragglers is not None:
            # The injector's one RNG stream would be copied into every
            # worker: replay the windows serially in-process instead,
            # sharing this replayer's injector in window order.
            results = []
            for window_lo, window_hi in windows:
                clone = self._serial_clone()
                clone.stragglers = self.stragglers
                metrics = clone._replay_store_window(store, window_lo, window_hi,
                                                     empty_ok=True)
                results.append(None if metrics is None
                               else (metrics, metrics.jobs_submitted, metrics.horizon_s))
        else:
            blob = pickle.dumps(self._serial_clone())
            tasks = [(store.directory, blob, window_lo, window_hi)
                     for window_lo, window_hi in windows]
            executor = ParallelExecutor(processes=self.processes)
            results = executor.map(_replay_window_task, tasks,
                                   store_directory=store.directory)
        merged: Optional[SimulationMetrics] = None
        for index, result in enumerate(results):
            if result is None:
                continue
            metrics, jobs_submitted, horizon_s = result
            window_hi = windows[index][1]
            self.handoffs.append(ShardHandoff(
                shard_index=index,
                boundary_s=_INF if window_hi is None else window_hi,
                clock_s=horizon_s,
                jobs_submitted=jobs_submitted,
                active_jobs=0, in_flight_tasks=0,
                pending_completion_events=0,
                busy_map_slots=0, busy_reduce_slots=0))
            if merged is None:
                merged = metrics
            else:
                merged.merge(metrics)
        if merged is None:
            raise SimulationError("cannot replay an empty job stream")
        return merged

    def _serial_clone(self) -> StreamingReplayer:
        """A fresh single-window replayer with this replayer's configuration,
        without its straggler injector.

        Every replay works on its own copy of the configured cache policy and
        a fresh HDFS namespace, so the windows never touch each other (a
        scheduler holds only its settings, so it is shared too).
        """
        return StreamingReplayer(
            cluster_config=self.cluster_config,
            scheduler=self.scheduler,
            cache=self._cache_policy,
            hdfs_config=self.hdfs.config,
            max_simulated_jobs=self.max_simulated_jobs,
            lookahead=self.lookahead,
            keep_outcomes=self.keep_outcomes)
