"""Figures 7-9: temporal behaviour experiments.

Figure 7 — weekly time series of job submissions, aggregate I/O, aggregate
task-time and cluster utilization; Figure 8 — burstiness curves with sine
reference signals; Figure 9 — pairwise correlations between the hourly
submission dimensions.

Traces may be given in any :class:`~repro.engine.source.TraceSource`-wrappable
representation.  The hourly series come from the hourly group-by fold of the
shared characterization scan (a workload without a bundle in ``analyses`` is
scanned for that fold alone); for the Figure-7 utilization column every
representation feeds the replayer the first week's column blocks, read with
only the columns a replay uses (a store one chunk at a time, never
materializing a job), producing the identical metric fold.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.burstiness import burstiness_curve
from ..core.sharedscan import CharacterizationAnalyses, workload_analyses
from ..core.temporal import dimension_correlations, diurnal_strength, weekly_view
from ..engine.columnar import _in_submit_order
from ..engine.source import TraceSource
from ..errors import AnalysisError
from ..simulator.cluster import ClusterConfig
from ..simulator.replay import REPLAY_COLUMNS, WorkloadReplayer
from ..synth.arrival import sine_reference_series
from ..units import HOUR, WEEK
from .rendering import ExperimentResult

__all__ = ["figure7", "figure8", "figure9"]


def _first_week_blocks(source: TraceSource, week_end: float):
    """Yield column blocks of the jobs submitted in ``[0, week_end)``,
    verifying submit order.

    Stopping at the first job past the window is only sound on a sorted
    stream, so disorder up to that job raises instead of silently truncating
    the window; no block past it is read.
    """
    columns = [name for name in REPLAY_COLUMNS if source.has_column(name)]
    last_submit = -np.inf
    for block in source.iter_chunks(columns=columns):
        times = block.column("submit_time_s")
        past = np.flatnonzero(times >= week_end)
        stop = int(past[0]) if past.size else times.shape[0]
        seen = times[:stop + 1]
        if seen.size and not _in_submit_order(seen, last_submit):
            raise AnalysisError(
                "source %r is not sorted by submit time; cannot window the "
                "first week for the utilization replay" % (source.name,))
        start = int(np.searchsorted(times[:stop], 0.0, side="left"))
        if start < stop:
            yield block.slice(start, stop)
        if past.size:
            return
        if times.size:
            last_submit = float(times[-1])


def _first_week_utilization(source: TraceSource,
                            max_simulated_jobs: Optional[int]) -> Optional[np.ndarray]:
    """Replay the first week of a source; hourly active slots (None if empty).

    Materialized and streaming sources feed
    :meth:`WorkloadReplayer.replay_blocks` the same rows (submissions in
    ``[0, min(week, duration))``) as column blocks, so the hourly
    utilization column is identical for every representation; a store source
    is read one chunk at a time.
    """
    week_end = float(min(WEEK, source.duration_s()))
    machines = source.machines or 100
    replayer = WorkloadReplayer(
        cluster_config=ClusterConfig(n_nodes=machines),
        max_simulated_jobs=max_simulated_jobs,
    )
    metrics = replayer.replay_blocks(_first_week_blocks(source, week_end))
    if metrics.n_jobs == 0:
        return None
    return metrics.hourly_active_slots()


def figure7(traces: Dict[str, object], simulate_utilization: bool = True,
            max_simulated_jobs: Optional[int] = 4000,
            analyses: Optional[Dict[str, CharacterizationAnalyses]] = None) -> ExperimentResult:
    """Figure 7: workload behaviour over a week in four dimensions.

    The first three columns (submissions, I/O and task-time per hour) come
    straight from the trace, through the shared scan's hourly fold;
    the fourth (cluster utilization in active slots) is obtained by replaying
    the first week of the trace on the simulator, mirroring how the paper's
    utilization column reflects the cluster's execution rather than the
    submission stream.
    """
    result = ExperimentResult(
        experiment_id="figure7",
        title="Weekly time series: submissions, I/O, task-time, utilization",
        headers=["Workload", "Hours", "Mean jobs/hr", "Peak jobs/hr", "Diurnal strength"],
    )
    for name, trace in traces.items():
        dims = workload_analyses(analyses, name, trace, "figure7").value("hourly")
        week = weekly_view(dims, 0)
        jobs_series = week.series["jobs"]
        diurnal = diurnal_strength(dims.jobs_per_hour)
        result.rows.append([
            name,
            str(week.n_hours),
            "%.1f" % float(np.mean(jobs_series)),
            "%.0f" % float(np.max(jobs_series)),
            "%.2f" % diurnal.diurnal_strength,
        ])
        for dimension in ("jobs", "bytes", "task_seconds"):
            series = week.series[dimension]
            result.series["%s/%s_per_hour" % (name, dimension)] = [
                (float(hour), float(value)) for hour, value in enumerate(series)
            ]
        if simulate_utilization:
            hourly_slots = _first_week_utilization(TraceSource.wrap(trace),
                                                   max_simulated_jobs)
            if hourly_slots is not None:
                result.series["%s/active_slots_per_hour" % name] = [
                    (float(hour), float(value))
                    for hour, value in enumerate(hourly_slots[: WEEK // HOUR])
                ]
    result.notes.append(
        "paper: high noise in all dimensions; some workloads show visually "
        "identifiable daily patterns; shapes differ across workloads and dimensions"
    )
    return result


def figure8(traces: Dict[str, object],
            analyses: Optional[Dict[str, CharacterizationAnalyses]] = None) -> ExperimentResult:
    """Figure 8: burstiness (percentile-to-median CDF of hourly task-time)."""
    result = ExperimentResult(
        experiment_id="figure8",
        title="Workload burstiness: normalized hourly task-time distribution",
        headers=["Workload", "Peak:median", "99th:median", "90th:median", "Hours"],
    )
    for name, trace in traces.items():
        try:
            hourly = workload_analyses(analyses, name, trace, "figure8").value("hourly")
            burst = burstiness_curve(hourly.task_seconds_per_hour, drop_zero_hours=True)
        except AnalysisError:
            continue
        result.rows.append([
            name,
            "%.0f:1" % burst.peak_to_median,
            "%.1f" % burst.p99_to_median,
            "%.1f" % burst.p90_to_median,
            str(burst.hours),
        ])
        result.series[name] = [(ratio, pct) for ratio, pct in burst.curve]
    # Reference sine signals, as plotted in the paper for comparison.
    for label, offset in (("sine + 2", 2.0), ("sine + 20", 20.0)):
        series = sine_reference_series(14 * 24, offset=offset, amplitude=1.0)
        burst = burstiness_curve(series)
        result.rows.append([label, "%.2f:1" % burst.peak_to_median,
                            "%.2f" % burst.p99_to_median, "%.2f" % burst.p90_to_median,
                            str(burst.hours)])
        result.series[label] = [(ratio, pct) for ratio, pct in burst.curve]
    result.notes.append(
        "paper: peak-to-median ranges from 9:1 (FB-2010) to 260:1 across workloads, "
        "far burstier than sinusoidal submission patterns"
    )
    return result


def figure9(traces: Dict[str, object],
            analyses: Optional[Dict[str, CharacterizationAnalyses]] = None) -> ExperimentResult:
    """Figure 9: correlations between hourly jobs, bytes and task-time series."""
    result = ExperimentResult(
        experiment_id="figure9",
        title="Correlation between submission time series dimensions",
        headers=["Workload", "jobs-bytes", "jobs-task-seconds", "bytes-task-seconds"],
    )
    all_values = {"jobs-bytes": [], "jobs-task-seconds": [], "bytes-task-seconds": []}
    for name, trace in traces.items():
        dims = workload_analyses(analyses, name, trace, "figure9").value("hourly")
        correlations = dimension_correlations(dims)
        values = correlations.as_dict()
        for key in all_values:
            all_values[key].append(values[key])
        result.rows.append([
            name,
            "%.2f" % correlations.jobs_bytes,
            "%.2f" % correlations.jobs_task_seconds,
            "%.2f" % correlations.bytes_task_seconds,
        ])
    if all_values["jobs-bytes"]:
        averages = {key: float(np.mean(values)) for key, values in all_values.items()}
        result.rows.append([
            "average",
            "%.2f" % averages["jobs-bytes"],
            "%.2f" % averages["jobs-task-seconds"],
            "%.2f" % averages["bytes-task-seconds"],
        ])
        result.notes.append(
            "paper averages: jobs-bytes 0.21, jobs-task-seconds 0.14, bytes-task-seconds 0.62 "
            "(data size vs compute is by far the strongest pair)"
        )
    return result
