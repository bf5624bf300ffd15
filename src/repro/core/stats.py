"""Shared statistical primitives for the characterization pipeline.

Everything in the paper's figures reduces to a handful of operations: empirical
CDFs (Figures 1, 3, 4, 5, 8), percentiles and percentile ratios (Figure 8),
hourly aggregation of time series (Figures 7-9) and Pearson correlation
between those series (Figure 9).  This module provides
those primitives with explicit handling of empty inputs and NaNs so the
higher-level analyses stay small.

Percentile convention
---------------------

Every percentile read-out in this library — :func:`percentile`,
:meth:`EmpiricalCDF.quantile`, :meth:`SketchCDF.quantile` and the engine's
:meth:`repro.engine.aggregates.HistogramSketch.percentile` — follows one
shared **lower nearest-rank** convention:

    ``P(q)`` is the smallest observed value ``v`` such that at least
    ``ceil(q / 100 * n)`` of the ``n`` finite samples are ``<= v``.

No interpolation between order statistics is performed, so an exact percentile
is always an observed sample value, and the sketch-backed read-out is the same
rank rule evaluated at histogram-bin granularity (its value resolution is one
part in ``10 ** (1/32)`` — about 7.5% — and it is clamped to the observed
min/max).  ``tests/core/test_percentile_convention.py`` pins the exact paths
to each other bit-for-bit and the sketch path to within bin resolution.

One convention per statistic
----------------------------

Every trace representation folds the same chunk consumers, so each statistic
has one convention whatever the source.  Only the Figure-1 CDF depends on the
representation, chosen in one place
(:meth:`repro.core.datasizes.DataSizeConsumer.for_source`):

==============================  ============================================
statistic                       convention
==============================  ============================================
counts, fractions of counts     exact integers, divided once at the end
sums, means, hourly series      float sums in chunk order (a different
                                chunking may move the last ulp)
min / max / time bounds         exact
percentiles of a series         :func:`percentile`, exact lower nearest-rank
(burstiness, Figure 8)
Zipf ranks, file profiles       exact, dictionary-based
Figure-1 size CDFs              :class:`EmpiricalCDF` for an in-memory
                                source; :class:`SketchCDF` for a store
Table-2 job sample              seeded bottom-k over per-row hash keys
==============================  ============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError

__all__ = [
    "EmpiricalCDF",
    "SketchCDF",
    "empirical_cdf",
    "percentile",
    "percentile_ratio_curve",
    "hourly_series",
    "pearson_correlation",
]


def _as_float_array(samples: Sequence[float]) -> np.ndarray:
    """Coerce samples to a float array without copying NumPy inputs.

    The columnar engine hands these functions million-element arrays; the old
    ``np.asarray(list(samples))`` round-trip through a Python list dominated
    the runtime.  Arrays pass through as (possibly casted) views; other
    iterables take the list path as before.
    """
    if isinstance(samples, np.ndarray):
        return samples.astype(float, copy=False)
    return np.asarray(list(samples), dtype=float)


@dataclass
class EmpiricalCDF:
    """An empirical cumulative distribution function.

    Attributes:
        values: sorted sample values.
        fractions: cumulative fraction of samples ≤ the corresponding value.
    """

    values: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.fractions = np.asarray(self.fractions, dtype=float)
        if self.values.shape != self.fractions.shape:
            raise AnalysisError("CDF values and fractions must have the same shape")

    @property
    def n(self) -> int:
        return int(self.values.size)

    def quantile(self, q: float) -> float:
        """Value below which a fraction ``q`` of the samples fall."""
        if not 0.0 <= q <= 1.0:
            raise AnalysisError("quantile fraction must be in [0, 1], got %r" % (q,))
        if self.n == 0:
            raise AnalysisError("cannot take a quantile of an empty CDF")
        index = int(np.searchsorted(self.fractions, q, side="left"))
        index = min(index, self.n - 1)
        return float(self.values[index])

    def fraction_at_or_below(self, value: float) -> float:
        """Fraction of samples ≤ ``value`` (0 for an empty CDF)."""
        if self.n == 0:
            return 0.0
        index = int(np.searchsorted(self.values, value, side="right"))
        if index == 0:
            return 0.0
        return float(self.fractions[index - 1])

    def median(self) -> float:
        return self.quantile(0.5)

    def as_points(self) -> "list[tuple[float, float]]":
        """(value, cumulative fraction) pairs, e.g. for plotting or reports."""
        return list(zip(self.values.tolist(), self.fractions.tolist()))


def empirical_cdf(samples: Sequence[float], drop_nan: bool = True) -> EmpiricalCDF:
    """Build an :class:`EmpiricalCDF` from raw samples.

    Args:
        samples: the sample values.
        drop_nan: silently drop NaNs (used for traces missing a dimension).

    Raises:
        AnalysisError: when no finite samples remain.
    """
    array = _as_float_array(samples)
    if drop_nan:
        array = array[np.isfinite(array)]
    if array.size == 0:
        raise AnalysisError("cannot build a CDF from an empty sample")
    array = np.sort(array)
    fractions = np.arange(1, array.size + 1, dtype=float) / array.size
    return EmpiricalCDF(values=array, fractions=fractions)


class SketchCDF:
    """A CDF backed by the engine's mergeable log-histogram sketch.

    Exposes the same read-out API as :class:`EmpiricalCDF` (``quantile``,
    ``median``, ``fraction_at_or_below``, ``as_points``, ``n``) so the
    streaming analysis paths can hand one to any consumer of exact CDFs.
    Quantiles follow the shared lower nearest-rank convention at histogram-bin
    granularity (about 7.5% relative value resolution, clamped to the observed
    min/max); fractions are exact counts at bin-edge granularity.
    """

    def __init__(self, sketch):
        # `sketch` is a repro.engine.aggregates.HistogramSketch.
        self.sketch = sketch

    @property
    def n(self) -> int:
        return int(self.sketch.n)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise AnalysisError("quantile fraction must be in [0, 1], got %r" % (q,))
        if self.n == 0:
            raise AnalysisError("cannot take a quantile of an empty CDF")
        value = self.sketch.percentile(100.0 * q)
        assert value is not None  # n > 0 guarantees a read-out
        return float(value)

    def median(self) -> float:
        return self.quantile(0.5)

    def fraction_at_or_below(self, value: float) -> float:
        """Fraction of samples ≤ ``value``, at bin granularity (0 when empty)."""
        if self.n == 0:
            return 0.0
        if self.sketch.low is not None and value < self.sketch.low:
            return 0.0
        if self.sketch.high is not None and value >= self.sketch.high:
            return 1.0
        points = self.sketch.cdf_points(max_points=1 << 30)
        fraction = 0.0
        for point_value, cumulative_fraction in points:
            if point_value <= value:
                fraction = cumulative_fraction
            else:
                break
        return float(fraction)

    def as_points(self) -> "list[tuple[float, float]]":
        """(value, cumulative fraction) pairs over the non-empty bins."""
        return self.sketch.cdf_points()


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of the finite samples.

    Uses the library-wide lower nearest-rank convention (see the module
    docstring): the smallest sample value with at least ``ceil(q/100 * n)``
    samples at or below it.  This matches :meth:`EmpiricalCDF.quantile`
    exactly and the engine's sketch percentile at bin resolution.
    """
    array = _as_float_array(samples)
    array = array[np.isfinite(array)]
    if array.size == 0:
        raise AnalysisError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise AnalysisError("percentile must be in [0, 100], got %r" % (q,))
    rank = int(np.ceil(q / 100.0 * array.size))
    rank = min(max(rank, 1), int(array.size))
    return float(np.partition(array, rank - 1)[rank - 1])


def percentile_ratio_curve(samples: Sequence[float],
                           percentiles: Optional[Sequence[float]] = None) -> "list[tuple[float, float]]":
    """The (nth-percentile / median, n) curve that defines Figure 8 burstiness.

    Returns a list of ``(ratio, n)`` pairs where ``ratio`` is the nth
    percentile of the samples divided by their median.  A vertical curve
    (ratios all ≈ 1) is a constant signal; a long horizontal tail is a bursty
    one.

    Raises:
        AnalysisError: when the sample is empty or its median is zero.
    """
    array = _as_float_array(samples)
    array = array[np.isfinite(array)]
    if array.size == 0:
        raise AnalysisError("cannot compute a percentile curve of an empty sample")
    median = percentile(array, 50.0)
    if median == 0:
        raise AnalysisError("percentile-ratio curve undefined: median is zero")
    if percentiles is None:
        percentiles = list(range(1, 100)) + [99.5, 100.0]
    array = np.sort(array)
    curve = []
    for n in percentiles:
        rank = min(max(int(np.ceil(n / 100.0 * array.size)), 1), int(array.size))
        curve.append((float(array[rank - 1]) / median, float(n)))
    return curve


def hourly_series(times_s: Sequence[float], weights: Optional[Sequence[float]] = None,
                  horizon_s: Optional[float] = None) -> np.ndarray:
    """Aggregate events into per-hour totals.

    Args:
        times_s: event times in seconds from the trace origin.
        weights: per-event weight (bytes, task-seconds, ...); defaults to 1
            per event, which yields hourly counts.
        horizon_s: total horizon; defaults to the last event time.  The result
            always covers ``ceil(horizon / 3600)`` hours, including empty ones.

    Returns:
        A float array of hourly totals (possibly all zeros).
    """
    times = _as_float_array(times_s)
    if weights is None:
        weight_array = np.ones_like(times)
    else:
        weight_array = _as_float_array(weights)
        if weight_array.shape != times.shape:
            raise AnalysisError("weights must have the same length as times")
    if times.size == 0:
        return np.zeros(max(1, int(np.ceil((horizon_s or 3600.0) / 3600.0))), dtype=float)
    if np.any(times < 0):
        raise AnalysisError("event times must be non-negative")
    horizon = float(horizon_s) if horizon_s is not None else float(times.max()) + 1.0
    n_hours = max(1, int(np.ceil(horizon / 3600.0)))
    buckets = np.minimum((times // 3600.0).astype(int), n_hours - 1)
    series = np.zeros(n_hours, dtype=float)
    np.add.at(series, buckets, weight_array)
    return series


def pearson_correlation(series_a: Sequence[float], series_b: Sequence[float]) -> float:
    """Pearson correlation between two equal-length series.

    Returns 0.0 when either series is constant (correlation undefined), which
    matches how the paper treats uninformative dimensions.
    """
    a = _as_float_array(series_a)
    b = _as_float_array(series_b)
    if a.shape != b.shape:
        raise AnalysisError("correlation needs equal-length series")
    if a.size < 2:
        raise AnalysisError("correlation needs at least two points")
    if np.std(a) == 0 or np.std(b) == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])
