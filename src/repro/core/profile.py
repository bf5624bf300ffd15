"""One-scan workload profiles: the shared substrate of §4.1, §5 and §7.

:func:`workload_features` (cross-workload comparison, §7) and
:func:`compare_evolution` (snapshot evolution, §4.1) read the same handful of
per-workload quantities — size distributions, the hourly submission series,
burstiness, diurnality, naming — but historically each recomputed them with
its own scans.  :func:`profile_source` folds all of them over **one** pass of
the source and returns a :class:`WorkloadProfile` both layers (and the
federation layer, :mod:`repro.core.federation`) read from.  Per paper §7 this
is exactly the per-cluster row the seven-cluster comparison needs.

Equality contract (same as :mod:`repro.core.sharedscan`): every consumer is
the exact fold the characterization scan runs, so a profile's fields match
that scan's results bit-for-bit — serial or parallel, cold or resumed from a
checkpoint.  Every representation runs the same consumer list; only
the Figure-1 CDF differs — exact for in-memory sources, a mergeable sketch
with memory bounded by chunk size for stores
(:meth:`~repro.core.datasizes.DataSizeConsumer.for_source`).

Store-backed profiles are **checkpointable** exactly like the
characterization scan: ``checkpoint_to=`` persists every consumer's fold
state with the store's chunk watermark, and after an append ``resume_from=``
folds only the new chunks — bit-identical to a cold rescan.  The federation
layer uses this to keep per-member incremental comparisons cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..engine.pipeline import (
    ChunkConsumer,
    ScanChunk,
    SummaryConsumer,
    run_resumable_scan,
)
from ..engine.source import TraceSource
from ..traces.trace import TraceSummary
from ..errors import AnalysisError
from ..units import GB
from .burstiness import BurstinessResult, burstiness_curve
from .datasizes import DataSizeConsumer, DataSizeDistributions
from .naming import NamingAnalysis, NamingConsumer
from .temporal import (
    HOURLY_DIMENSION_SPECS,
    CorrelationResult,
    DiurnalAnalysis,
    HourlyDimensions,
    HourlyTotalsConsumer,
    dimension_correlations,
    diurnal_strength,
    hourly_dimensions_from_groups,
)

__all__ = [
    "DEFAULT_SMALL_JOB_THRESHOLD_BYTES",
    "SmallJobCountConsumer",
    "WorkloadProfile",
    "profile_consumers",
    "profile_from_scan",
    "profile_source",
]

#: The paper's small-job byte threshold (total I/O at or below 10 GB).
DEFAULT_SMALL_JOB_THRESHOLD_BYTES = 10 * GB


class SmallJobCountConsumer(ChunkConsumer):
    """Shared-scan fold for the small-job fraction: exact threshold count.

    Counts jobs whose derived ``total_bytes`` is at or below the threshold
    (unrecorded sizes count as 0, exactly like ``Job.total_bytes``).  Both
    counts are exact integers, so the finalized fraction is bit-identical to
    the per-job loop regardless of chunking or merge order.
    """

    columns = ("total_bytes",)
    resumable = True

    def __init__(self, threshold_bytes: float, name: str = "small_jobs"):
        self.name = name
        self.threshold_bytes = float(threshold_bytes)

    def make_state(self):
        return {"n_small": 0, "n_rows": 0}

    def snapshot(self, state) -> Dict[str, object]:
        return {"n_small": int(state["n_small"]), "n_rows": int(state["n_rows"]),
                "threshold_bytes": float(self.threshold_bytes)}

    def restore(self, payload: Dict[str, object]):
        threshold = payload.get("threshold_bytes")
        if threshold is None or float(threshold) != self.threshold_bytes:
            raise AnalysisError(
                "small-job count was checkpointed at threshold %r, not %r"
                % (threshold, self.threshold_bytes))
        return {"n_small": int(payload["n_small"]), "n_rows": int(payload["n_rows"])}

    def fold(self, state, chunk: ScanChunk):
        if chunk.n_rows:
            state["n_small"] += int(np.count_nonzero(
                chunk.column("total_bytes") <= self.threshold_bytes))
            state["n_rows"] += chunk.n_rows
        return state

    def merge(self, a, b):
        a["n_small"] += b["n_small"]
        a["n_rows"] += b["n_rows"]
        return a

    def finalize(self, state) -> Dict[str, int]:
        return {"n_small": int(state["n_small"]), "n_rows": int(state["n_rows"])}


@dataclass
class WorkloadProfile:
    """Everything one workload contributes to a cross-workload comparison.

    Attributes:
        workload: profile name (a catalog member name for federated scans —
            may differ from the store's own workload name).
        n_jobs: job count.
        summary: the Table-1 summary (time bounds, byte/task-second totals).
        sizes: Figure-1 per-job size distributions.
        hourly: Figure-7 hourly submission series.
        burstiness: Figure-8 burstiness of the task-second series
            (``drop_zero_hours=True``, the comparison convention).
        correlations: Figure-9 correlation triplet, ``None`` when the trace
            spans fewer than two hours.
        diurnal: Fourier diurnality of the task-second series.
        naming: Figure-10 naming analysis, ``None`` when the trace records no
            job names (the comparison then scores ``framework_share`` 0).
        small_job_fraction: fraction of jobs at or below the threshold.
        small_job_threshold_bytes: the threshold the fraction was counted at.
        resume: checkpoint-resume report (see
            :class:`~repro.core.sharedscan.CharacterizationAnalyses`), or
            ``None`` for a plain full scan.
        checkpoint_path: where the post-scan checkpoint was saved, if asked.
        chunks_scanned / rows_scanned: chunks and rows folded by the scan.
    """

    workload: str
    n_jobs: int
    summary: TraceSummary
    sizes: DataSizeDistributions
    hourly: HourlyDimensions
    burstiness: BurstinessResult
    correlations: Optional[CorrelationResult]
    diurnal: DiurnalAnalysis
    naming: Optional[NamingAnalysis]
    small_job_fraction: float
    small_job_threshold_bytes: float
    resume: Optional[Dict[str, object]] = None
    checkpoint_path: Optional[str] = None
    chunks_scanned: int = 0
    rows_scanned: int = 0

    @property
    def framework_share(self) -> float:
        """Job-weighted share of query-like frameworks (0 without names)."""
        if self.naming is None:
            return 0.0
        return self.naming.framework_share("jobs")


def profile_source(trace, small_job_threshold_bytes: float = DEFAULT_SMALL_JOB_THRESHOLD_BYTES,
                   name: Optional[str] = None, executor=None,
                   resume_from=None, checkpoint_to: Optional[str] = None) -> WorkloadProfile:
    """Profile one workload in a single shared scan.

    Args:
        trace: any :class:`TraceSource`-wrappable representation.
        small_job_threshold_bytes: byte threshold of the small-job fraction.
        name: profile name override (catalog member names differ from store
            workload names); defaults to the source's own name.
        executor: optional :class:`~repro.engine.parallel.ParallelExecutor`
            fanning the chunk scan over workers (store-backed sources only).
        resume_from: a :class:`~repro.engine.pipeline.Checkpoint` (or path)
            from an earlier profile of the same store; only appended chunks
            are folded.  Results are bit-identical to a cold rescan.
        checkpoint_to: save a fresh checkpoint covering the whole store.

    Raises:
        AnalysisError: for an empty trace, or checkpoint arguments against an
            in-memory source.
    """
    source = TraceSource.wrap(trace)
    profile_name = source.name if name is None else str(name)
    if source.is_empty():
        raise AnalysisError("cannot profile the empty trace %r" % (profile_name,))
    consumers = profile_consumers(source, profile_name, small_job_threshold_bytes)
    merged, resume_report, checkpoint_path = run_resumable_scan(
        source, consumers, executor=executor, resume_from=resume_from,
        checkpoint_to=checkpoint_to, meta={"workload": source.name})
    profile = profile_from_scan(merged, profile_name, small_job_threshold_bytes)
    profile.resume = resume_report
    profile.checkpoint_path = checkpoint_path
    return profile


def profile_consumers(source: TraceSource, profile_name: str,
                      threshold: float = DEFAULT_SMALL_JOB_THRESHOLD_BYTES) -> List[ChunkConsumer]:
    """Fresh consumer list for one profile scan.

    The federation layer hands this (via a picklable partial) to
    :meth:`~repro.engine.federation.FederatedSource.scan` so every member
    store folds its own states; :func:`profile_from_scan` reads the profile
    back out of the member's :class:`~repro.engine.pipeline.PipelineResult`.
    """
    consumers: List[ChunkConsumer] = [
        SummaryConsumer(trace_name=source.name, machines=source.machines),
        DataSizeConsumer.for_source(source, profile_name),
        HourlyTotalsConsumer(HOURLY_DIMENSION_SPECS),
        SmallJobCountConsumer(threshold),
    ]
    if source.has_column("name"):
        consumers.append(NamingConsumer(has_framework=source.has_column("framework"),
                                        workload=profile_name))
    return consumers


def profile_from_scan(merged, profile_name: str, threshold: float) -> WorkloadProfile:
    """Read a :class:`WorkloadProfile` out of a completed profile scan.

    ``merged`` is the :class:`~repro.engine.pipeline.PipelineResult` of a
    scan over the consumers built by :func:`profile_consumers`.  Re-raises
    the recorded error of any required consumer; a missing or errored naming
    fold degrades to ``naming=None`` (framework share 0).
    """
    summary: TraceSummary = merged.value("summary")
    dims = hourly_dimensions_from_groups(merged.value("hourly"),
                                         summary.start_s, summary.end_s)
    counts = merged.value("small_jobs")
    return WorkloadProfile(
        workload=profile_name,
        n_jobs=summary.n_jobs,
        summary=summary,
        sizes=merged.value("data_sizes"),
        hourly=dims,
        burstiness=burstiness_curve(dims.task_seconds_per_hour, drop_zero_hours=True),
        correlations=dimension_correlations(dims) if dims.n_hours >= 2 else None,
        diurnal=diurnal_strength(dims.task_seconds_per_hour),
        naming=None if "naming" in merged.errors else merged.results.get("naming"),
        small_job_fraction=counts["n_small"] / counts["n_rows"],
        small_job_threshold_bytes=float(threshold),
        chunks_scanned=merged.chunks_scanned,
        rows_scanned=merged.rows_scanned,
    )
