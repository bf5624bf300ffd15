"""Tests for Zipf fitting and the burstiness metric."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    analyze_burstiness,
    burstiness_curve,
    fit_zipf_slope,
    hourly_task_seconds,
)
from repro.core.zipf import rank_frequencies_from_counts
from repro.engine import ColumnarTrace
from repro.errors import AnalysisError
from repro.traces import Job, Trace
from repro.synth import ZipfRank, sine_reference_series


class TestZipfFit:
    def test_exact_power_law_recovered(self):
        ranks = np.arange(1, 101, dtype=float)
        frequencies = 1000.0 * ranks ** (-5.0 / 6.0)
        slope, intercept, r_squared = fit_zipf_slope(ranks, frequencies)
        assert slope == pytest.approx(5.0 / 6.0, rel=1e-6)
        assert r_squared == pytest.approx(1.0, abs=1e-9)

    def test_fit_requires_positive_values(self):
        with pytest.raises(AnalysisError):
            fit_zipf_slope([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(AnalysisError):
            fit_zipf_slope([1.0], [1.0])

    def test_rank_frequencies_counts_accesses(self, analysis):
        paths = ["/a"] * 5 + ["/b"] * 3 + ["/c"] + [None] * 4
        ranks = analysis(path_trace(paths), "input_ranks")
        assert ranks.frequencies.tolist() == [5.0, 3.0, 1.0]
        assert ranks.frequencies.sum() == 9
        assert ranks.n_items == 3

    def test_rank_frequencies_all_none_rejected(self, analysis):
        with pytest.raises(AnalysisError):
            analysis(path_trace([None, None]), "input_ranks")

    def test_uniform_accesses_have_no_slope(self, analysis):
        ranks = analysis(path_trace(["/a", "/b", "/c"]), "input_ranks")
        assert ranks.slope is None

    def test_zipf_samples_recover_slope_roughly(self, analysis):
        # Draw many accesses from a true Zipf rank distribution and check the
        # fitted slope lands near the generating exponent.
        rng = np.random.default_rng(0)
        dist = ZipfRank(2000, 5.0 / 6.0)
        samples = dist.sample(rng, 60000).astype(int)
        paths = ["/f/%d" % rank for rank in samples]
        ranks = analysis(path_trace(paths), "input_ranks")
        assert ranks.slope is not None
        assert 0.55 < ranks.slope < 1.15

    def test_as_points_is_the_figure_2_series(self, analysis):
        ranks = analysis(path_trace(["/a"] * 4 + ["/b"] * 2 + ["/c"]), "input_ranks")
        assert ranks.as_points() == [(1, 4), (2, 2), (3, 1)]

    def test_counts_front_end_matches_the_iterable_one(self, analysis):
        paths = ["/f/%d" % (index % 13 if index % 3 else 0) for index in range(400)]
        from_counts = rank_frequencies_from_counts(
            {path: paths.count(path) for path in set(paths)})
        from_paths = analysis(path_trace(paths), "input_ranks")
        assert from_counts.as_points() == from_paths.as_points()
        assert from_counts.slope == from_paths.slope

    def test_counts_front_end_rejects_empty_counts(self):
        with pytest.raises(AnalysisError, match="no recorded file paths"):
            rank_frequencies_from_counts({})

    def test_too_few_items_have_no_slope(self):
        ranks = rank_frequencies_from_counts({"/a": 9, "/b": 1}, min_items=3)
        assert ranks.slope is None and ranks.r_squared is None


def path_trace(paths):
    return Trace([
        Job(job_id="j%d" % index, submit_time_s=float(index), duration_s=1.0,
            input_bytes=1.0, shuffle_bytes=0.0, output_bytes=1.0,
            map_task_seconds=1.0, reduce_task_seconds=0.0, input_path=path)
        for index, path in enumerate(paths)
    ], name="paths")


class TestColumnRankFrequencies:
    def test_matches_the_iterable_count_on_every_representation(self, analysis):
        paths = ["/hot"] * 30 + ["/warm"] * 7 + ["/f%d" % (index % 9) for index in range(40)]
        paths += [None] * 5
        trace = path_trace(paths)
        expected = rank_frequencies_from_counts(
            {path: paths.count(path) for path in set(paths) if path is not None})
        for source in (trace, ColumnarTrace.from_trace(trace)):
            result = analysis(source, "input_ranks")
            assert result.as_points() == expected.as_points()
            assert result.slope == expected.slope

    def test_unrecorded_column_rejected(self, analysis):
        with pytest.raises(AnalysisError, match="records no column input_path"):
            analysis(path_trace([None, None]), "input_ranks")


class TestBurstiness:
    def test_constant_series_not_bursty(self):
        result = burstiness_curve([10.0] * 200)
        assert result.peak_to_median == pytest.approx(1.0)
        assert result.p90_to_median == pytest.approx(1.0)

    def test_single_spike_is_bursty(self):
        values = [1.0] * 199 + [500.0]
        result = burstiness_curve(values)
        assert result.peak_to_median == pytest.approx(500.0)
        assert result.p90_to_median == pytest.approx(1.0)

    def test_sine_reference_mild_burstiness(self):
        series = sine_reference_series(14 * 24, offset=2.0)
        result = burstiness_curve(series)
        assert 1.0 < result.peak_to_median < 2.0

    def test_drop_zero_hours(self):
        values = [0.0] * 90 + [10.0] * 10
        with pytest.raises(AnalysisError):
            burstiness_curve(values, drop_zero_hours=False)
        result = burstiness_curve(values, drop_zero_hours=True)
        assert result.hours == 10

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            burstiness_curve([])

    def test_analyze_burstiness_on_trace(self, tiny_trace):
        result = analyze_burstiness(tiny_trace)
        assert result.peak_to_median >= 1.0
        series = hourly_task_seconds(tiny_trace)
        assert series.sum() == pytest.approx(
            sum(job.total_task_seconds for job in tiny_trace))

    def test_workload_burstier_than_sine(self, cc_e_trace):
        """Figure 8 shape: real workloads are far burstier than sine patterns."""
        workload = analyze_burstiness(cc_e_trace)
        sine = burstiness_curve(sine_reference_series(14 * 24, offset=2.0))
        assert workload.peak_to_median > 3 * sine.peak_to_median


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(min_value=0.1, max_value=1e6, allow_nan=False),
                       min_size=3, max_size=300))
def test_property_burstiness_curve_monotone(values):
    """Normalized rate is non-decreasing in the percentile, and peak >= median."""
    result = burstiness_curve(values)
    ratios = [ratio for ratio, _ in result.curve]
    assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
    assert result.peak_to_median >= 1.0 - 1e-9
