"""Temporal workload analysis (§5, Figures 7 and 9 of the paper).

The paper examines workload variation over time in four dimensions — jobs
submitted per hour, aggregate I/O (input + shuffle + output bytes) per hour,
aggregate compute (map + reduce task-time) per hour, and cluster utilization —
over a week-long window, then quantifies burstiness (handled in
:mod:`repro.core.burstiness`) and the pairwise correlations between the first
three dimensions.

This module builds those hourly series, extracts weekly views, detects diurnal
periodicity with a Fourier analysis, and computes the Figure-9 correlation
triplet.  The hourly series are produced by **one** engine group-by scan over
the derived ``submit_hour`` column, so any
:class:`~repro.engine.source.TraceSource`-wrappable representation works —
including an out-of-core chunked store, with memory bounded by chunk size.
Hourly job counts are exact for every representation; the byte and
task-second sums are exact up to floating-point summation order (different
chunkings can differ in the last ulp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..engine.aggregates import GroupedAggregates
from ..engine.pipeline import ChunkConsumer, ScanChunk
from ..engine.source import TraceSource
from ..errors import AnalysisError
from ..units import DAY, HOUR, WEEK
from .stats import pearson_correlation

__all__ = [
    "HourlyDimensions",
    "WeeklyView",
    "DiurnalAnalysis",
    "CorrelationResult",
    "HOURLY_DIMENSION_SPECS",
    "HourlyTotalsConsumer",
    "hourly_totals",
    "hourly_series_from_groups",
    "hourly_dimensions_from_groups",
    "weekly_view",
    "diurnal_strength",
    "dimension_correlations",
]

#: The engine aggregate specs behind the three Figure-7 submission dimensions.
HOURLY_DIMENSION_SPECS = {
    "jobs": ("count", "submit_time_s"),
    "bytes": ("sum", "total_bytes"),
    "task_seconds": ("sum", "total_task_seconds"),
}


@dataclass
class HourlyDimensions:
    """Hourly time series of the three submission dimensions of Figure 7.

    Attributes:
        jobs_per_hour: number of jobs submitted in each hour.
        bytes_per_hour: aggregate I/O (input + shuffle + output) submitted.
        task_seconds_per_hour: aggregate map + reduce task time submitted.
    """

    jobs_per_hour: np.ndarray
    bytes_per_hour: np.ndarray
    task_seconds_per_hour: np.ndarray

    @property
    def n_hours(self) -> int:
        return int(self.jobs_per_hour.size)

    def as_dict(self) -> Dict[str, np.ndarray]:
        return {
            "jobs": self.jobs_per_hour,
            "bytes": self.bytes_per_hour,
            "task_seconds": self.task_seconds_per_hour,
        }


@dataclass
class WeeklyView:
    """One week of hourly data for each dimension (the Figure-7 row).

    Attributes:
        start_hour: index of the first hour of the extracted week.
        series: mapping of dimension name -> 168-hour (or shorter) array.
    """

    start_hour: int
    series: Dict[str, np.ndarray]

    @property
    def n_hours(self) -> int:
        if not self.series:
            return 0
        return int(next(iter(self.series.values())).size)


@dataclass
class DiurnalAnalysis:
    """Fourier-based diurnality summary for one hourly series.

    Attributes:
        diurnal_strength: power at the 24-hour period divided by total
            non-DC power (0 = no daily pattern, approaching 1 = pure daily sine).
        dominant_period_hours: period with the largest non-DC power.
        has_diurnal_pattern: convenience flag (strength above the threshold).
    """

    diurnal_strength: float
    dominant_period_hours: float
    has_diurnal_pattern: bool


@dataclass
class CorrelationResult:
    """Pairwise correlations of the three hourly dimensions (Figure 9).

    Attributes:
        jobs_bytes: correlation of jobs/hr with bytes/hr.
        jobs_task_seconds: correlation of jobs/hr with task-seconds/hr.
        bytes_task_seconds: correlation of bytes/hr with task-seconds/hr.
    """

    jobs_bytes: float
    jobs_task_seconds: float
    bytes_task_seconds: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "jobs-bytes": self.jobs_bytes,
            "jobs-task-seconds": self.jobs_task_seconds,
            "bytes-task-seconds": self.bytes_task_seconds,
        }

    def strongest_pair(self) -> str:
        """Name of the most correlated pair (the paper finds bytes-task-seconds)."""
        pairs = self.as_dict()
        return max(pairs, key=lambda key: pairs[key])


class HourlyTotalsConsumer(ChunkConsumer):
    """Shared-scan fold for per-hour engine aggregates (one group-by pass).

    The fold state is the engine's own group-by state, a
    :class:`~repro.engine.aggregates.GroupedAggregates` keyed on
    ``submit_hour`` — so the per-hour read-outs are identical to a standalone
    :meth:`TraceSource.hourly_groups` query, chunk for chunk.  Only the
    scalar-field ops (count/sum/min/max/mean) checkpoint; sketch-backed ops
    raise from :meth:`snapshot`.
    """

    resumable = True

    def __init__(self, aggregate_specs: Dict[str, tuple], name: str = "hourly"):
        self.name = name
        self.specs = tuple((label, op, column)
                           for label, (op, column) in aggregate_specs.items())
        self.columns = tuple(dict.fromkeys(
            ["submit_hour"] + [column for _label, _op, column in self.specs]))

    def make_state(self):
        return GroupedAggregates(self.specs, "submit_hour")

    def snapshot(self, state) -> Dict[str, object]:
        # The None key (jobs with no recorded submit time) is NaN in ``hours``.
        payload = state.snapshot()
        return {"hours": payload.pop("keys"), **payload}

    def restore(self, payload: Dict[str, object]):
        return GroupedAggregates.restore(self.specs, "submit_hour",
                                         {**payload, "keys": payload["hours"]})

    def fold(self, state, chunk: ScanChunk):
        state.update(chunk.block)
        return state

    def merge(self, a, b):
        a.merge(b)
        return a

    def finalize(self, state) -> Dict[int, Dict[str, object]]:
        return {int(key): values for key, values in state.result().items()
                if key is not None}  # None: jobs with no recorded submit time


def hourly_series_from_groups(groups: Dict[int, Dict[str, object]],
                              start_s: float, end_s: float,
                              labels) -> Dict[str, np.ndarray]:
    """Spread ``{hour: {label: value}}`` group results onto dense hourly arrays.

    The arrays cover ``ceil((end - start) / 3600)`` hours (idle hours zero);
    events past the horizon clamp into the final hour, matching
    :func:`repro.core.stats.hourly_series`.

    Raises:
        AnalysisError: for negative submit times.
    """
    if start_s < 0:
        raise AnalysisError("event times must be non-negative")
    n_hours = max(1, int(np.ceil(max(0.0, end_s - start_s) / 3600.0)))
    series = {label: np.zeros(n_hours, dtype=float) for label in labels}
    for hour in sorted(groups):
        bucket = min(int(hour), n_hours - 1)
        for label, value in groups[hour].items():
            series[label][bucket] += float(value or 0.0)
    return series


def hourly_totals(source, **aggregate_specs) -> Dict[str, np.ndarray]:
    """Per-hour totals of arbitrary engine aggregates over one scan.

    ``aggregate_specs`` are engine ``label=(op, column)`` pairs.  The result
    maps each label to an hourly array covering ``ceil(duration / 3600)``
    hours (idle hours are zero); events past the horizon clamp into the final
    hour, matching :func:`repro.core.stats.hourly_series`.

    Raises:
        AnalysisError: for an empty trace or negative submit times.
    """
    src = TraceSource.wrap(source)
    if src.is_empty():
        raise AnalysisError("cannot compute hourly dimensions of an empty trace")
    start_s, end_s = src.time_bounds()
    groups = src.hourly_groups(**aggregate_specs)
    return hourly_series_from_groups(groups, start_s, end_s, aggregate_specs)


def hourly_dimensions_from_groups(groups: Dict[int, Dict[str, object]],
                                  start_s: float, end_s: float) -> HourlyDimensions:
    """The Figure-7 dimensions from a shared-scan :class:`HourlyTotalsConsumer`.

    ``groups`` must come from a consumer built with
    :data:`HOURLY_DIMENSION_SPECS`; ``start_s``/``end_s`` are the trace time
    bounds (from the shared scan's summary fold).
    """
    series = hourly_series_from_groups(groups, start_s, end_s, HOURLY_DIMENSION_SPECS)
    return HourlyDimensions(
        jobs_per_hour=series["jobs"],
        bytes_per_hour=series["bytes"],
        task_seconds_per_hour=series["task_seconds"],
    )


def weekly_view(dimensions: HourlyDimensions, week_index: int = 0) -> WeeklyView:
    """Extract one week (168 hours) of the hourly series.

    Traces shorter than a week return however many hours exist (the paper's
    CC-b and CC-e rows cover 9 days for the same reason).

    Raises:
        AnalysisError: when the requested week starts beyond the trace end.
    """
    if week_index < 0:
        raise AnalysisError("week_index must be non-negative")
    hours_per_week = WEEK // HOUR
    start = week_index * hours_per_week
    if start >= dimensions.n_hours:
        raise AnalysisError(
            "week %d starts at hour %d but the trace only has %d hours"
            % (week_index, start, dimensions.n_hours)
        )
    end = min(start + hours_per_week, dimensions.n_hours)
    return WeeklyView(
        start_hour=start,
        series={name: values[start:end] for name, values in dimensions.as_dict().items()},
    )


def diurnal_strength(hourly_values: np.ndarray, threshold: float = 0.15) -> DiurnalAnalysis:
    """Detect a daily periodic component with a discrete Fourier transform.

    The strength is the spectral power in the bins whose period is within
    ±10% of 24 hours, divided by total non-DC power.  Traces shorter than two
    days cannot express a daily period and report zero strength.
    """
    values = np.asarray(hourly_values, dtype=float)
    if values.size < 2 * (DAY // HOUR):
        return DiurnalAnalysis(diurnal_strength=0.0, dominant_period_hours=float("nan"),
                               has_diurnal_pattern=False)
    centered = values - values.mean()
    spectrum = np.abs(np.fft.rfft(centered)) ** 2
    frequencies = np.fft.rfftfreq(values.size, d=1.0)  # cycles per hour
    spectrum[0] = 0.0
    total_power = spectrum.sum()
    if total_power == 0:
        return DiurnalAnalysis(diurnal_strength=0.0, dominant_period_hours=float("nan"),
                               has_diurnal_pattern=False)
    with np.errstate(divide="ignore"):
        periods = np.where(frequencies > 0, 1.0 / frequencies, np.inf)
    daily_band = (periods >= 21.6) & (periods <= 26.4)
    strength = float(spectrum[daily_band].sum() / total_power)
    dominant_index = int(np.argmax(spectrum))
    dominant_period = float(periods[dominant_index])
    return DiurnalAnalysis(
        diurnal_strength=strength,
        dominant_period_hours=dominant_period,
        has_diurnal_pattern=strength >= threshold,
    )


def dimension_correlations(dimensions: HourlyDimensions) -> CorrelationResult:
    """Pairwise Pearson correlations of the three hourly dimensions (Figure 9)."""
    if dimensions.n_hours < 2:
        raise AnalysisError("correlations need at least two hourly samples")
    return CorrelationResult(
        jobs_bytes=pearson_correlation(dimensions.jobs_per_hour, dimensions.bytes_per_hour),
        jobs_task_seconds=pearson_correlation(dimensions.jobs_per_hour,
                                              dimensions.task_seconds_per_hour),
        bytes_task_seconds=pearson_correlation(dimensions.bytes_per_hour,
                                               dimensions.task_seconds_per_hour),
    )
