"""Burstiness metric (§5.2 and Figure 8 of the paper).

The paper measures burstiness by extending the peak-to-average ratio: take the
hourly aggregate of a workload dimension (task-seconds per hour is the one
plotted), normalize by the *median* hourly value, and look at the whole vector
of nth-percentile-to-median ratios rather than only the 100th percentile.
Plotting n against the ratio gives a normalized CDF of arrival rates; the more
horizontal the curve, the burstier the workload.

This module computes that curve plus the scalar summaries quoted in the paper
(peak-to-median ratios between 9:1 and 260:1), and the sine reference signals
used in Figure 8 for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from .stats import percentile, percentile_ratio_curve
from .temporal import hourly_totals

__all__ = ["BurstinessResult", "burstiness_curve", "hourly_task_seconds", "analyze_burstiness"]


@dataclass
class BurstinessResult:
    """Burstiness of one hourly series.

    Attributes:
        curve: (normalized rate, percentile) points — the Figure-8 series.
        peak_to_median: 100th-percentile-to-median ratio.
        p99_to_median: 99th-percentile-to-median ratio.
        p90_to_median: 90th-percentile-to-median ratio.
        hours: number of hourly samples the metric was computed over.
    """

    curve: List[Tuple[float, float]]
    peak_to_median: float
    p99_to_median: float
    p90_to_median: float
    hours: int


def hourly_task_seconds(trace) -> np.ndarray:
    """Hourly sum of per-job task time (map + reduce), keyed by submit hour.

    This is the dimension Figure 8 plots: the task-time demand submitted in
    each hour.  Hours with no submissions contribute zeros.  Accepts any
    :class:`~repro.engine.source.TraceSource`-wrappable representation and
    runs as one chunked group-by scan.
    """
    return hourly_totals(trace, task_seconds=("sum", "total_task_seconds"))["task_seconds"]


def burstiness_curve(hourly_values: Sequence[float], drop_zero_hours: bool = False) -> BurstinessResult:
    """Compute the percentile-to-median burstiness curve of an hourly series.

    Args:
        hourly_values: per-hour totals of any workload dimension.
        drop_zero_hours: when true, hours with zero load are excluded before
            computing percentiles.  The paper normalizes by the median of all
            hours; dropping zeros is useful for short traces where idle hours
            would make the median zero (the ratio is undefined then).

    Raises:
        AnalysisError: if the series is empty or its median is zero.
    """
    values = np.asarray(list(hourly_values), dtype=float)
    if drop_zero_hours:
        values = values[values > 0]
    if values.size == 0:
        raise AnalysisError("burstiness needs at least one hourly sample")
    # Shared lower nearest-rank percentile convention (see repro.core.stats).
    median = percentile(values, 50.0)
    if median == 0:
        raise AnalysisError(
            "hourly median is zero; burstiness ratio undefined "
            "(consider drop_zero_hours=True)"
        )
    curve = percentile_ratio_curve(values)
    return BurstinessResult(
        curve=curve,
        peak_to_median=float(values.max() / median),
        p99_to_median=float(percentile(values, 99.0) / median),
        p90_to_median=float(percentile(values, 90.0) / median),
        hours=int(values.size),
    )


def analyze_burstiness(trace, drop_zero_hours: bool = True) -> BurstinessResult:
    """Burstiness of a trace's hourly task-time series (the Figure-8 metric).

    Accepts any :class:`~repro.engine.source.TraceSource`-wrappable
    representation (chunked stores included).
    """
    return burstiness_curve(hourly_task_seconds(trace), drop_zero_hours=drop_zero_hours)
