"""Tests for the shared statistical primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    empirical_cdf,
    hourly_series,
    pearson_correlation,
    percentile,
    percentile_ratio_curve,
)
from repro.errors import AnalysisError


class TestEmpiricalCDF:
    def test_fractions_reach_one(self):
        cdf = empirical_cdf([3.0, 1.0, 2.0])
        assert cdf.values.tolist() == [1.0, 2.0, 3.0]
        assert cdf.fractions[-1] == pytest.approx(1.0)

    def test_quantile_and_median(self):
        cdf = empirical_cdf(range(1, 101))
        assert cdf.median() == pytest.approx(50.0, abs=1.0)
        assert cdf.quantile(0.9) == pytest.approx(90.0, abs=1.0)

    def test_fraction_at_or_below(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_at_or_below(2.5) == pytest.approx(0.5)
        assert cdf.fraction_at_or_below(0.5) == 0.0
        assert cdf.fraction_at_or_below(10.0) == 1.0

    def test_nan_dropped(self):
        assert empirical_cdf([1.0, float("nan"), 3.0]).n == 2

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            empirical_cdf([])
        with pytest.raises(AnalysisError):
            empirical_cdf([float("nan")])

    def test_quantile_bounds(self):
        cdf = empirical_cdf([1.0, 2.0])
        with pytest.raises(AnalysisError):
            cdf.quantile(1.5)


class TestLogBinsAndPercentiles:
    def test_percentile(self):
        assert percentile(range(101), 90) == pytest.approx(90.0)
        with pytest.raises(AnalysisError):
            percentile([], 50)
        with pytest.raises(AnalysisError):
            percentile([1.0], 150)

    def test_percentile_ratio_curve_constant_signal(self):
        curve = percentile_ratio_curve([5.0] * 100)
        ratios = [ratio for ratio, _ in curve]
        assert all(ratio == pytest.approx(1.0) for ratio in ratios)

    def test_percentile_ratio_curve_bursty_signal(self):
        values = [1.0] * 99 + [100.0]
        curve = dict((n, ratio) for ratio, n in percentile_ratio_curve(values))
        assert curve[100.0] == pytest.approx(100.0)
        assert curve[50.0] == pytest.approx(1.0)

    def test_percentile_ratio_curve_zero_median_rejected(self):
        with pytest.raises(AnalysisError):
            percentile_ratio_curve([0.0] * 10)


class TestHourlySeries:
    def test_counts_per_hour(self):
        series = hourly_series([0.0, 10.0, 3600.0, 7300.0], horizon_s=3 * 3600.0)
        assert series.tolist() == [2.0, 1.0, 1.0]

    def test_weights_summed(self):
        series = hourly_series([0.0, 100.0], weights=[5.0, 7.0], horizon_s=3600.0)
        assert series.tolist() == [12.0]

    def test_empty_input_gives_zeros(self):
        series = hourly_series([], horizon_s=2 * 3600.0)
        assert series.tolist() == [0.0, 0.0]

    def test_negative_times_rejected(self):
        with pytest.raises(AnalysisError):
            hourly_series([-1.0])

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            hourly_series([1.0, 2.0], weights=[1.0])


class TestCorrelationAndMeans:
    def test_perfect_correlation(self):
        assert pearson_correlation([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)

    def test_anti_correlation(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_gives_zero(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AnalysisError):
            pearson_correlation([1, 2], [1, 2, 3])


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
                       min_size=1, max_size=200))
def test_property_cdf_is_monotone_and_normalized(values):
    """CDF fractions are monotone non-decreasing and end at exactly 1."""
    cdf = empirical_cdf(values)
    assert np.all(np.diff(cdf.fractions) >= 0)
    assert np.all(np.diff(cdf.values) >= 0)
    assert cdf.fractions[-1] == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(min_value=0.1, max_value=1e6, allow_nan=False),
                       min_size=2, max_size=200))
def test_property_quantiles_are_order_preserving(values):
    """Higher quantile fractions never map to smaller values."""
    cdf = empirical_cdf(values)
    assert cdf.quantile(0.25) <= cdf.quantile(0.5) <= cdf.quantile(0.9)
