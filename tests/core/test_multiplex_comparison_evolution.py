"""Tests for workload consolidation, cross-workload comparison, and evolution analysis."""

import numpy as np
import pytest

from repro.core import (
    compare_evolution,
    consolidation_study,
    select_workload_suite,
    workload_distance,
    workload_features,
)
from repro.core.comparison import FEATURE_NAMES
from repro.errors import AnalysisError
from repro.traces import Job, Trace
from repro.units import GB, HOUR, MB, TB


def burst_trace(name, n_hours, jobs_in_burst_hour, base_jobs_per_hour=2, seed=0,
                task_seconds=600.0):
    """A trace with one busy hour and a low baseline, for burstiness checks."""
    rng = np.random.default_rng(seed)
    jobs = []
    counter = 0
    for hour in range(n_hours):
        count = jobs_in_burst_hour if hour == n_hours // 2 else base_jobs_per_hour
        for _ in range(count):
            submit = hour * HOUR + float(rng.uniform(0, HOUR))
            jobs.append(Job(job_id="%s-%d" % (name, counter), submit_time_s=submit,
                            duration_s=60.0, input_bytes=500 * MB, shuffle_bytes=50 * MB,
                            output_bytes=50 * MB, map_task_seconds=task_seconds,
                            reduce_task_seconds=task_seconds / 3, name="select q%d" % counter))
            counter += 1
    return Trace(jobs, name=name, machines=50)


class TestConsolidationStudy:
    def test_multiplexing_desynchronized_bursts_reduces_burstiness(self):
        # Same median load, bursts in different hours: merging smooths the peak.
        sources = [burst_trace("wl-%d" % index, 48, 60, base_jobs_per_hour=3, seed=index)
                   for index in range(4)]
        # Shift each source's burst to a different part of the week.
        shifted = [trace.shifted(0.0) for trace in sources]
        study = consolidation_study(shifted)
        assert study.peak_to_median_reduction > 1.0
        assert study.consolidated_burstiness.peak_to_median < max(
            result.peak_to_median for result in study.source_burstiness.values())

    def test_remains_bursty_flag(self):
        sources = [burst_trace("wl-%d" % index, 48, 200, base_jobs_per_hour=1, seed=index)
                   for index in range(2)]
        study = consolidation_study(sources, bursty_threshold=2.0)
        assert study.remains_bursty is True

    def test_needs_two_sources(self):
        with pytest.raises(AnalysisError):
            consolidation_study([burst_trace("only", 12, 10)])


class TestWorkloadFeatures:
    def test_feature_vector_has_expected_shape_and_ranges(self, tiny_trace):
        features = workload_features(tiny_trace)
        vector = features.vector()
        assert vector.shape == (len(FEATURE_NAMES),)
        assert 0.0 <= features.values["small_job_fraction"] <= 1.0
        assert 0.0 <= features.values["map_only_fraction"] <= 1.0
        assert 0.0 <= features.values["framework_share"] <= 1.0

    def test_unnamed_trace_has_zero_framework_share(self):
        jobs = [Job(job_id="j%d" % index, submit_time_s=index * 600.0, duration_s=30.0,
                    input_bytes=1 * MB, shuffle_bytes=0.0, output_bytes=1 * MB,
                    map_task_seconds=20.0, reduce_task_seconds=0.0)
                for index in range(50)]
        features = workload_features(Trace(jobs, name="unnamed"))
        assert features.values["framework_share"] == 0.0

    def test_empty_trace_rejected(self):
        with pytest.raises(AnalysisError):
            workload_features(Trace([], name="empty"))


class TestDistances:

    def test_workload_distance_zero_to_itself(self, tiny_trace):
        features = workload_features(tiny_trace)
        assert workload_distance(features, features) == pytest.approx(0.0)

    def test_workload_distance_positive_for_different_workloads(self, cc_b_small_trace,
                                                                 fb_2009_small_trace):
        a = workload_features(cc_b_small_trace)
        b = workload_features(fb_2009_small_trace)
        assert workload_distance(a, b, [a, b]) > 0.0


class TestSuiteSelection:
    def _population(self):
        traces = [
            burst_trace("bursty-small", 48, 150, base_jobs_per_hour=1, seed=1),
            burst_trace("steady-small", 48, 4, base_jobs_per_hour=3, seed=2),
            burst_trace("bursty-small-2", 48, 140, base_jobs_per_hour=1, seed=3),
        ]
        # A large-job workload that should stand out from the three above.
        jobs = [Job(job_id="big%d" % index, submit_time_s=index * HOUR, duration_s=4 * HOUR,
                    input_bytes=5 * TB, shuffle_bytes=1 * TB, output_bytes=1 * TB,
                    map_task_seconds=3e6, reduce_task_seconds=1e6)
                for index in range(48)]
        traces.append(Trace(jobs, name="huge-batch", machines=500))
        return [workload_features(trace) for trace in traces]

    def test_selection_covers_the_outlier(self):
        features = self._population()
        suite = select_workload_suite(features, suite_size=2)
        assert len(suite.selected) == 2
        assert "huge-batch" in suite.selected
        assert set(suite.assignment.keys()) == {f.workload for f in features}
        assert all(representative in suite.selected for representative in suite.assignment.values())

    def test_coverage_radius_shrinks_with_suite_size(self):
        features = self._population()
        radii = [select_workload_suite(features, size).coverage_radius
                 for size in (1, 2, 3, 4)]
        assert all(earlier >= later - 1e-9 for earlier, later in zip(radii, radii[1:]))
        assert radii[-1] == pytest.approx(0.0, abs=1e-9)

    def test_explicit_first_representative(self):
        features = self._population()
        suite = select_workload_suite(features, 2, first="steady-small")
        assert suite.selected[0] == "steady-small"

    def test_invalid_arguments_rejected(self):
        features = self._population()
        with pytest.raises(AnalysisError):
            select_workload_suite(features, 0)
        with pytest.raises(AnalysisError):
            select_workload_suite(features, len(features) + 1)
        with pytest.raises(AnalysisError):
            select_workload_suite(features, 2, first="unknown")
        with pytest.raises(AnalysisError):
            select_workload_suite([], 1)


class TestEvolution:
    def _snapshot(self, name, input_scale, output_scale, burst, seed):
        rng = np.random.default_rng(seed)
        jobs = []
        for hour in range(72):
            count = burst if hour % 24 == 12 else 3
            for index in range(count):
                jobs.append(Job(
                    job_id="%s-%d-%d" % (name, hour, index),
                    submit_time_s=hour * HOUR + float(rng.uniform(0, HOUR)),
                    duration_s=45.0,
                    input_bytes=input_scale * float(rng.lognormal(0, 0.3)),
                    shuffle_bytes=input_scale / 10 * float(rng.lognormal(0, 0.3)),
                    output_bytes=output_scale * float(rng.lognormal(0, 0.3)),
                    map_task_seconds=120.0, reduce_task_seconds=40.0))
        return Trace(jobs, name=name, machines=100)

    def test_growth_and_shrinkage_detected(self):
        before = self._snapshot("Y1", input_scale=10 * MB, output_scale=1 * GB, burst=60, seed=1)
        after = self._snapshot("Y2", input_scale=10 * GB, output_scale=10 * MB, burst=12, seed=2)
        report = compare_evolution(before, after)
        assert report.shift("input_bytes").grew
        assert report.shift("input_bytes").orders_of_magnitude == pytest.approx(3.0, abs=0.5)
        assert report.shift("output_bytes").shrank
        assert report.burstiness_reduction > 1.0
        assert report.job_count_growth == pytest.approx(len(after) / len(before))
        assert any("grew" in line for line in report.summary_lines())

    def test_facebook_shape_on_paper_workloads(self, fb_2009_small_trace):
        from repro.traces import load_workload
        fb_2010 = load_workload("FB-2010", seed=7, scale=0.002)
        report = compare_evolution(fb_2009_small_trace, fb_2010)
        # §4.1: input and shuffle medians grow, output median shrinks.
        assert report.shift("input_bytes").grew
        assert report.shift("shuffle_bytes").grew
        assert report.shift("output_bytes").shrank

    def test_unknown_dimension_rejected(self):
        before = self._snapshot("Y1", 10 * MB, 1 * GB, 10, 1)
        report = compare_evolution(before, before)
        with pytest.raises(AnalysisError):
            report.shift("not_a_dimension")

    def test_empty_trace_rejected(self):
        before = self._snapshot("Y1", 10 * MB, 1 * GB, 10, 1)
        with pytest.raises(AnalysisError):
            compare_evolution(before, Trace([], name="empty"))
