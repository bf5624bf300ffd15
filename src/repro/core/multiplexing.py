"""Workload consolidation (multiplexing) analysis (§5.2 of the paper).

The paper observes that between 2009 and 2010 Facebook's peak-to-median load
ratio dropped from 31:1 to 9:1 as more internal organizations started sharing
the cluster: "multiplexing many workloads helps decrease burstiness.  However,
the workload remains bursty."  This module makes that effect measurable for
arbitrary combinations of traces:

* :func:`consolidation_study` start-aligns several traces on one timeline
  and computes each source's burstiness, the merged workload's burstiness,
  and the reduction factors — the numbers behind the "does sharing a cluster
  smooth the load" question that drives consolidation and capacity-planning
  decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..engine.pipeline import ChunkConsumer, ScanChunk, fold_consumer
from ..engine.source import TraceSource
from ..errors import AnalysisError
from .burstiness import BurstinessResult, analyze_burstiness, burstiness_curve

__all__ = ["ConsolidationStudy", "ShiftedHourlyTaskSecondsConsumer", "consolidation_study"]


@dataclass
class ConsolidationStudy:
    """Burstiness before and after consolidating several workloads.

    Attributes:
        source_burstiness: per-source :class:`BurstinessResult`.
        consolidated_burstiness: burstiness of the merged workload.
        peak_to_median_reduction: mean source peak-to-median divided by the
            consolidated peak-to-median (>1 means consolidation smoothed the load).
        p99_reduction: same ratio at the 99th percentile.
        remains_bursty: whether the consolidated peak-to-median still exceeds
            the ``bursty_threshold`` used for the study (the paper's point:
            multiplexing helps, but the workload *remains* bursty).
        bursty_threshold: the peak-to-median ratio above which a workload is
            called bursty.
    """

    source_burstiness: Dict[str, BurstinessResult]
    consolidated_burstiness: BurstinessResult
    peak_to_median_reduction: float
    p99_reduction: float
    remains_bursty: bool
    bursty_threshold: float


class ShiftedHourlyTaskSecondsConsumer(ChunkConsumer):
    """Start-aligned hourly task-second fold for one consolidation source.

    Each source's submissions are shifted so its first submission lands at
    hour zero; the fold accumulates into a fixed ``n_hours`` bucket array
    (events past the shared horizon clamp into the final hour).  The
    per-source arrays are summed by the consolidation study, so no merged job
    list is ever materialized.
    """

    columns = ("submit_time_s", "total_task_seconds")

    def __init__(self, start_s: float, n_hours: int, name: str = "shifted_hourly"):
        self.name = name
        self.start_s = float(start_s)
        self.n_hours = int(n_hours)

    def make_state(self) -> np.ndarray:
        return np.zeros(self.n_hours, dtype=float)

    def fold(self, state, chunk: ScanChunk):
        shifted = chunk.column("submit_time_s") - self.start_s
        buckets = np.minimum((shifted // 3600.0).astype(int), self.n_hours - 1)
        np.add.at(state, buckets, np.nan_to_num(chunk.column("total_task_seconds"), nan=0.0))
        return state

    def merge(self, a, b):
        return a + b

    def finalize(self, state) -> np.ndarray:
        return state


def _consolidated_hourly_task_seconds(sources: Sequence[TraceSource]) -> np.ndarray:
    """Hourly task-seconds of the start-aligned union of several sources.

    Bucket boundaries match the hourly task-seconds of the merged,
    start-aligned job list exactly; only the floating-point summation order
    differs (per-source partial arrays are summed instead of folding every
    job into one array).
    """
    starts = []
    horizon = 0.0
    for source in sources:
        start_s, end_s = source.time_bounds()
        starts.append(start_s)
        horizon = max(horizon, end_s - start_s)
    n_hours = max(1, int(np.ceil(horizon / 3600.0)))
    series = np.zeros(n_hours, dtype=float)
    for source, start_s in zip(sources, starts):
        series += fold_consumer(
            source, ShiftedHourlyTaskSecondsConsumer(start_s=start_s, n_hours=n_hours))
    return series


def consolidation_study(traces: Sequence, bursty_threshold: float = 3.0,
                        drop_zero_hours: bool = True) -> ConsolidationStudy:
    """Quantify how much consolidating the given workloads reduces burstiness.

    Args:
        traces: source traces (at least two non-empty ones), in any
            :class:`TraceSource`-wrappable representation.  The consolidated
            hourly series is folded source by source; no merged job list is
            ever materialized.
        bursty_threshold: peak-to-median ratio above which the consolidated
            workload is still called bursty.
        drop_zero_hours: passed through to the burstiness metric (idle hours
            make the median zero for short or sparse traces).

    Raises:
        AnalysisError: with fewer than two non-empty traces.
    """
    sources = [TraceSource.wrap(trace) for trace in traces]
    non_empty = [source for source in sources if not source.is_empty()]
    if len(non_empty) < 2:
        raise AnalysisError("a consolidation study needs at least two non-empty traces")

    per_source = {
        source.name: analyze_burstiness(source, drop_zero_hours=drop_zero_hours)
        for source in non_empty
    }
    combined = burstiness_curve(_consolidated_hourly_task_seconds(non_empty),
                                drop_zero_hours=drop_zero_hours)

    mean_source_peak = float(np.mean([result.peak_to_median for result in per_source.values()]))
    mean_source_p99 = float(np.mean([result.p99_to_median for result in per_source.values()]))
    peak_reduction = mean_source_peak / combined.peak_to_median if combined.peak_to_median > 0 else float("inf")
    p99_reduction = mean_source_p99 / combined.p99_to_median if combined.p99_to_median > 0 else float("inf")
    return ConsolidationStudy(
        source_burstiness=per_source,
        consolidated_burstiness=combined,
        peak_to_median_reduction=peak_reduction,
        p99_reduction=p99_reduction,
        remains_bursty=combined.peak_to_median > bursty_threshold,
        bursty_threshold=bursty_threshold,
    )
