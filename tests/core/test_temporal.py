"""Tests for the temporal analyses (Figures 7 and 9)."""

import math

import numpy as np
import pytest

from repro.core import (
    dimension_correlations,
    diurnal_strength,
    weekly_view,
)
from repro.errors import AnalysisError
from repro.traces import Job, Trace
from repro.units import DAY, HOUR, WEEK


def periodic_trace(days=14, jobs_per_hour_peak=10):
    """A synthetic trace with a clean daily submission pattern."""
    jobs = []
    job_id = 0
    for hour in range(days * 24):
        count = max(1, int(jobs_per_hour_peak * (0.5 + 0.5 * math.sin(2 * math.pi * hour / 24))))
        for _ in range(count):
            jobs.append(Job(job_id="p%d" % job_id, submit_time_s=hour * 3600.0 + 10.0,
                            duration_s=30.0, input_bytes=1e6, shuffle_bytes=0.0,
                            output_bytes=1e5, map_task_seconds=20.0, reduce_task_seconds=0.0))
            job_id += 1
    return Trace(jobs, name="periodic")


class TestHourlyDimensions:
    def test_series_lengths_and_totals(self, tiny_trace, analysis):
        dims = analysis(tiny_trace, "hourly")
        assert dims.jobs_per_hour.sum() == len(tiny_trace)
        assert dims.bytes_per_hour.sum() == pytest.approx(tiny_trace.bytes_moved())
        assert dims.task_seconds_per_hour.sum() == pytest.approx(
            tiny_trace.total_task_seconds())
        assert dims.n_hours == len(dims.bytes_per_hour)

    def test_empty_trace_rejected(self, analysis):
        with pytest.raises(AnalysisError):
            analysis(Trace([], name="e"), "hourly")


class TestWeeklyView:
    def test_first_week_capped_at_168_hours(self, analysis):
        dims = analysis(periodic_trace(days=14), "hourly")
        week = weekly_view(dims, 0)
        assert week.n_hours == WEEK // HOUR
        assert week.start_hour == 0

    def test_second_week(self, analysis):
        dims = analysis(periodic_trace(days=14), "hourly")
        week = weekly_view(dims, 1)
        assert week.start_hour == 168

    def test_short_trace_returns_partial_week(self, tiny_trace, analysis):
        week = weekly_view(analysis(tiny_trace, "hourly"), 0)
        assert 0 < week.n_hours <= 168

    def test_out_of_range_week_rejected(self, tiny_trace, analysis):
        with pytest.raises(AnalysisError):
            weekly_view(analysis(tiny_trace, "hourly"), 5)
        with pytest.raises(AnalysisError):
            weekly_view(analysis(tiny_trace, "hourly"), -1)


class TestDiurnalStrength:
    def test_periodic_signal_detected(self, analysis):
        dims = analysis(periodic_trace(days=14), "hourly")
        diurnal = diurnal_strength(dims.jobs_per_hour)
        assert diurnal.has_diurnal_pattern
        assert diurnal.diurnal_strength > 0.5
        assert diurnal.dominant_period_hours == pytest.approx(24.0, rel=0.15)

    def test_flat_signal_not_diurnal(self):
        analysis = diurnal_strength(np.ones(24 * 10))
        assert not analysis.has_diurnal_pattern

    def test_white_noise_not_diurnal(self):
        rng = np.random.default_rng(0)
        analysis = diurnal_strength(rng.uniform(0, 1, 24 * 14))
        assert analysis.diurnal_strength < 0.3

    def test_short_series_reports_zero(self):
        analysis = diurnal_strength(np.ones(10))
        assert analysis.diurnal_strength == 0.0
        assert not analysis.has_diurnal_pattern


class TestCorrelations:
    def test_correlation_result_fields(self, cc_e_trace, analysis):
        result = dimension_correlations(analysis(cc_e_trace, "hourly"))
        values = result.as_dict()
        assert set(values) == {"jobs-bytes", "jobs-task-seconds", "bytes-task-seconds"}
        assert all(-1.0 <= value <= 1.0 for value in values.values())

    def test_bytes_compute_strongest_for_generated_workload(self, cc_e_trace, analysis):
        """Figure 9 shape: data size vs compute time is the strongest pair."""
        result = dimension_correlations(analysis(cc_e_trace, "hourly"))
        assert result.strongest_pair() == "bytes-task-seconds"
        assert result.bytes_task_seconds > result.jobs_bytes
        assert result.bytes_task_seconds > result.jobs_task_seconds

    def test_too_few_hours_rejected(self, analysis):
        job = Job(job_id="x", submit_time_s=0, duration_s=1, input_bytes=1,
                  shuffle_bytes=0, output_bytes=1, map_task_seconds=1, reduce_task_seconds=0)
        with pytest.raises(AnalysisError):
            dimension_correlations(analysis(Trace([job], name="one"), "hourly"))
