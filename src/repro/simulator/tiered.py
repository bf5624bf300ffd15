"""Two-tier cluster replay: a performance tier and a capacity tier (§6.2).

The small-big job dichotomy leads the paper to suggest splitting the cluster
into (1) a *performance tier* that handles the interactive and semi-streaming
computations, and (2) a *capacity tier* that trades performance for storage
and computational efficiency with batch-like semantics — analogous to
multiplexing OLTP and OLAP workloads on separate systems.

The :class:`CapacityScheduler` already models a *logical* split (two pools on
one cluster).  This module models the *physical* split: the trace is routed to
two separately-simulated clusters by job size, then compared against a single
unified cluster with the same total slot count.  The quantities compared are
the ones the paper's argument is about — wait and completion times of small
(interactive) jobs, and overall slot utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import SimulationError
from ..traces.trace import Trace
from ..units import GB
from .cluster import ClusterConfig
from .metrics import SimulationMetrics
from .replay import WorkloadReplayer
from .scheduler import FifoScheduler

__all__ = [
    "TieredClusterConfig",
    "TieredReplayResult",
    "TieredReplayer",
    "TieredComparison",
    "compare_tiered_vs_unified",
]


@dataclass(frozen=True)
class TieredClusterConfig:
    """Configuration of the physical performance/capacity split.

    Attributes:
        performance: cluster serving small (interactive) jobs.
        capacity: cluster serving everything else.
        small_job_threshold_bytes: jobs whose total data volume is at or below
            this threshold go to the performance tier.  The 10 GB default
            follows §6.2 ("jobs touching <10GB of total data make up >92% of
            all jobs" and achieve interactive latency).
    """

    performance: ClusterConfig = field(default_factory=lambda: ClusterConfig(n_nodes=40))
    capacity: ClusterConfig = field(default_factory=lambda: ClusterConfig(n_nodes=60))
    small_job_threshold_bytes: float = 10 * GB

    def __post_init__(self):
        if self.small_job_threshold_bytes <= 0:
            raise SimulationError("small job threshold must be positive")

    @property
    def total_nodes(self) -> int:
        return self.performance.n_nodes + self.capacity.n_nodes

    @property
    def total_slots(self) -> int:
        return self.performance.total_slots + self.capacity.total_slots

    def unified_equivalent(self) -> ClusterConfig:
        """A single cluster with the same node count and per-node slots.

        The per-node slot counts of the performance tier are used (the two
        tiers are normally configured identically; when they are not, the
        comparison keeps the node count honest, which is what dominates).
        """
        return ClusterConfig(
            n_nodes=self.total_nodes,
            map_slots_per_node=self.performance.map_slots_per_node,
            reduce_slots_per_node=self.performance.reduce_slots_per_node,
        )


@dataclass
class TieredReplayResult:
    """Metrics of a tiered replay, per tier and combined.

    Attributes:
        performance: metrics of the performance-tier replay (None when the
            trace contains no small jobs).
        capacity: metrics of the capacity-tier replay (None when the trace
            contains no large jobs).
        n_small_jobs: number of jobs routed to the performance tier.
        n_large_jobs: number of jobs routed to the capacity tier.
    """

    performance: Optional[SimulationMetrics]
    capacity: Optional[SimulationMetrics]
    n_small_jobs: int
    n_large_jobs: int

    def small_job_mean_wait(self) -> float:
        """Mean wait time of the jobs in the performance tier (0 if none)."""
        if self.performance is None:
            return 0.0
        return self.performance.mean_wait_time()

    def small_job_median_completion(self) -> float:
        """Median completion time of the jobs in the performance tier."""
        if self.performance is None:
            raise SimulationError("no small jobs were replayed")
        return self.performance.median_completion_time()


class TieredReplayer:
    """Replay a trace on a physically split performance/capacity cluster.

    Args:
        config: the tier split.
        scheduler_factory: zero-argument callable returning a fresh scheduler
            for each tier (FIFO by default — the point of the physical split
            is that even FIFO protects small jobs from large ones).
        cache_factory: optional zero-argument callable returning a fresh cache
            policy per tier.
        max_simulated_jobs: optional per-tier cap on replayed jobs.
    """

    def __init__(self, config: Optional[TieredClusterConfig] = None,
                 scheduler_factory=FifoScheduler,
                 cache_factory=None,
                 max_simulated_jobs: Optional[int] = None):
        self.config = config or TieredClusterConfig()
        self.scheduler_factory = scheduler_factory
        self.cache_factory = cache_factory
        self.max_simulated_jobs = max_simulated_jobs

    def split_trace(self, trace: Trace) -> Dict[str, Trace]:
        """Split a trace into its performance-tier and capacity-tier parts."""
        threshold = self.config.small_job_threshold_bytes
        small = trace.filter(lambda job: job.total_bytes <= threshold,
                             name="%s-small" % trace.name)
        large = trace.filter(lambda job: job.total_bytes > threshold,
                             name="%s-large" % trace.name)
        return {"performance": small, "capacity": large}

    def replay(self, trace: Trace) -> TieredReplayResult:
        """Run both tiers and return the per-tier metrics.

        Raises:
            SimulationError: when the trace is empty.
        """
        if trace.is_empty():
            raise SimulationError("cannot replay an empty trace")
        parts = self.split_trace(trace)

        def run(part: Trace, cluster: ClusterConfig) -> Optional[SimulationMetrics]:
            if part.is_empty():
                return None
            replayer = WorkloadReplayer(
                cluster_config=cluster,
                scheduler=self.scheduler_factory(),
                cache=self.cache_factory() if self.cache_factory else None,
                max_simulated_jobs=self.max_simulated_jobs,
            )
            return replayer.replay(part)

        return TieredReplayResult(
            performance=run(parts["performance"], self.config.performance),
            capacity=run(parts["capacity"], self.config.capacity),
            n_small_jobs=len(parts["performance"]),
            n_large_jobs=len(parts["capacity"]),
        )


@dataclass
class TieredComparison:
    """Side-by-side comparison of the tiered split against a unified cluster.

    Attributes:
        unified: metrics of the unified-cluster replay.
        tiered: metrics of the tiered replay.
        small_job_wait_unified: mean wait of small jobs on the unified cluster.
        small_job_wait_tiered: mean wait of small jobs on the performance tier.
        small_job_wait_improvement: unified wait divided by tiered wait
            (>1 means the split helps; guarded against division by zero).
        threshold_bytes: the small-job byte threshold used for routing.
    """

    unified: SimulationMetrics
    tiered: TieredReplayResult
    small_job_wait_unified: float
    small_job_wait_tiered: float
    small_job_wait_improvement: float
    threshold_bytes: float


def compare_tiered_vs_unified(trace: Trace, config: Optional[TieredClusterConfig] = None,
                              scheduler_factory=FifoScheduler,
                              max_simulated_jobs: Optional[int] = None) -> TieredComparison:
    """Replay a trace on a unified cluster and on the tiered split, and compare.

    The unified cluster has the same total node count as the two tiers
    combined, so the comparison isolates the effect of the split rather than
    of extra hardware.

    Raises:
        SimulationError: when the trace is empty.
    """
    config = config or TieredClusterConfig()
    if trace.is_empty():
        raise SimulationError("cannot compare replays of an empty trace")

    unified_replayer = WorkloadReplayer(
        cluster_config=config.unified_equivalent(),
        scheduler=scheduler_factory(),
        max_simulated_jobs=max_simulated_jobs,
    )
    unified = unified_replayer.replay(trace)

    tiered_replayer = TieredReplayer(config=config, scheduler_factory=scheduler_factory,
                                     max_simulated_jobs=max_simulated_jobs)
    tiered = tiered_replayer.replay(trace)

    threshold = config.small_job_threshold_bytes
    small_waits_unified = [
        outcome.wait_time_s for outcome in unified.outcomes
        if outcome.total_bytes <= threshold and outcome.start_time_s is not None
    ]
    wait_unified = float(sum(small_waits_unified) / len(small_waits_unified)) if small_waits_unified else 0.0
    wait_tiered = tiered.small_job_mean_wait()
    improvement = wait_unified / wait_tiered if wait_tiered > 0 else float("inf") if wait_unified > 0 else 1.0
    return TieredComparison(
        unified=unified,
        tiered=tiered,
        small_job_wait_unified=wait_unified,
        small_job_wait_tiered=wait_tiered,
        small_job_wait_improvement=improvement,
        threshold_bytes=threshold,
    )
