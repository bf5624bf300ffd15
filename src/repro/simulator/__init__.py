"""Discrete-event MapReduce cluster simulator: the replay substrate.

Provides the cluster configuration, schedulers, an HDFS-like file model,
storage-cache policies, and the workload replayers used to evaluate the
paper's storage and scheduling recommendations:

* :class:`WorkloadReplayer` replays a materialized
  :class:`~repro.traces.trace.Trace` and retains per-job outcomes;
* :class:`StreamingReplayer` streams jobs from a chunked on-disk store (or
  any sorted job iterator) with bounded memory, keeping only mergeable
  metric accumulators — this is what lets multi-million-job production
  traces replay without materializing them;
* :class:`ShardedReplayer` splits a sorted store into per-time-window shards —
  ``mode="exact"`` threads one engine across the boundaries for bit-identical
  digests, ``mode="windowed"`` replays windows in parallel worker processes
  and merges the metrics;
* :class:`ScenarioSweep` fans a grid of (scheduler × cache × cluster)
  replays out over worker processes and merges the results into one
  comparison report.

Usage — replay a tiny two-job trace under FIFO with no cache::

    >>> from repro.simulator import WorkloadReplayer
    >>> from repro.traces import Job, Trace
    >>> trace = Trace([
    ...     Job(job_id="a", submit_time_s=0.0, duration_s=60.0,
    ...         input_bytes=1e9, shuffle_bytes=0.0, output_bytes=1e8,
    ...         map_task_seconds=120.0, reduce_task_seconds=0.0),
    ...     Job(job_id="b", submit_time_s=30.0, duration_s=60.0,
    ...         input_bytes=2e9, shuffle_bytes=5e8, output_bytes=1e8,
    ...         map_task_seconds=60.0, reduce_task_seconds=60.0),
    ... ], name="doctest")
    >>> metrics = WorkloadReplayer().replay(trace)
    >>> metrics.finished_jobs
    2
    >>> metrics.mean_wait_time()  # enough free slots: nobody queues
    0.0
    >>> metrics.horizon_s > 0.0
    True

The same jobs streamed through :class:`StreamingReplayer` yield bit-identical
accumulator summaries (see :mod:`repro.simulator.replay`); the per-job outcome
list is simply not retained.
"""

from .cluster import ClusterConfig
from .scheduler import CapacityScheduler, FairScheduler, FifoScheduler, Scheduler
from .hdfs import Hdfs, HdfsConfig, HdfsFile
from .cache import (
    CachePolicy,
    CacheStats,
    LfuCache,
    LruCache,
    NoCache,
    SizeThresholdCache,
    UnlimitedCache,
)
from .metrics import (
    JobOutcome,
    MetricAccumulator,
    SimulationMetrics,
    UtilizationAccumulator,
)
from .replay import StreamingReplayer, WorkloadReplayer, replay, replay_store
from .sharded import SHARD_MODES, ShardHandoff, ShardedReplayer
from .sweep import (
    Scenario,
    ScenarioOutcome,
    ScenarioSweep,
    SweepResult,
    expand_grid,
    load_sweep_spec,
)
from .stragglers import (
    SpeculativeExecutionModel,
    StragglerImpact,
    StragglerInjectionStats,
    StragglerInjector,
    StragglerModel,
    straggler_impact,
)
from .energy import (
    EnergyReport,
    PowerDownEvaluation,
    PowerDownPolicy,
    PowerModel,
    energy_from_metrics,
    evaluate_power_down,
)
from .tiered import (
    TieredClusterConfig,
    TieredComparison,
    TieredReplayResult,
    TieredReplayer,
    compare_tiered_vs_unified,
)

__all__ = [
    "ClusterConfig",
    "Scheduler",
    "FifoScheduler",
    "FairScheduler",
    "CapacityScheduler",
    "Hdfs",
    "HdfsConfig",
    "HdfsFile",
    "CachePolicy",
    "CacheStats",
    "NoCache",
    "UnlimitedCache",
    "LruCache",
    "LfuCache",
    "SizeThresholdCache",
    "JobOutcome",
    "MetricAccumulator",
    "UtilizationAccumulator",
    "SimulationMetrics",
    "WorkloadReplayer",
    "StreamingReplayer",
    "replay",
    "replay_store",
    # sharded replay
    "SHARD_MODES",
    "ShardHandoff",
    "ShardedReplayer",
    # scenario sweeps
    "Scenario",
    "ScenarioOutcome",
    "ScenarioSweep",
    "SweepResult",
    "expand_grid",
    "load_sweep_spec",
    # stragglers
    "StragglerModel",
    "SpeculativeExecutionModel",
    "StragglerInjectionStats",
    "StragglerInjector",
    "StragglerImpact",
    "straggler_impact",
    # energy
    "PowerModel",
    "EnergyReport",
    "energy_from_metrics",
    "PowerDownPolicy",
    "PowerDownEvaluation",
    "evaluate_power_down",
    # tiered cluster
    "TieredClusterConfig",
    "TieredReplayer",
    "TieredReplayResult",
    "TieredComparison",
    "compare_tiered_vs_unified",
]
