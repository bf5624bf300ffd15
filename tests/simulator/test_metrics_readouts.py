"""Read-outs of a replay's metrics: what each summary reports, and where it
refuses to report."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulator.cache import CacheStats
from repro.simulator.metrics import (
    JobOutcome,
    MetricAccumulator,
    SimulationMetrics,
    UtilizationAccumulator,
)

from legacy_replay import observe_utilization


def outcome(job_id, submit, wait=None, completion=None, total_bytes=1e9):
    """A job that started after ``wait`` (never, when ``None``) and finished
    ``completion`` seconds after submission (never, when ``None``)."""
    started = wait is not None
    finished = completion is not None
    return JobOutcome(
        job_id=job_id, submit_time_s=submit,
        start_time_s=submit + wait if started else None,
        finish_time_s=submit + completion if finished else None,
        wait_time_s=wait if started else 0.0,
        completion_time_s=completion, total_bytes=total_bytes, n_tasks=1)


def recorded(outcomes, keep_outcomes=True):
    metrics = SimulationMetrics(total_slots=10, keep_outcomes=keep_outcomes)
    for item in outcomes:
        metrics.jobs_submitted += 1
        metrics.record_job(item)
    metrics.finalize()
    return metrics


MIXED = [
    outcome("done-a", 0.0, wait=1.0, completion=10.0),
    outcome("done-b", 5.0, wait=3.0, completion=30.0),
    outcome("running", 8.0, wait=2.0),
    outcome("queued", 9.0),
]


class TestPerJobReadouts:
    def test_record_job_counts_only_finished_jobs(self):
        metrics = recorded(MIXED)
        assert metrics.jobs_submitted == 4
        assert metrics.finished_jobs == 2
        assert metrics.completion.count == 2
        assert metrics.wait.count == 3

    def test_completion_times_skip_unfinished_jobs(self):
        assert recorded(MIXED).completion_times().tolist() == [10.0, 30.0]

    def test_per_job_arrays_are_empty_without_retained_outcomes(self):
        metrics = recorded(MIXED, keep_outcomes=False)
        assert metrics.outcomes == []
        assert metrics.completion_times().size == 0

    def test_n_jobs_falls_back_to_the_outcome_list(self):
        metrics = SimulationMetrics()
        for item in MIXED:
            metrics.record_job(item)
        assert metrics.jobs_submitted == 0
        assert metrics.n_jobs == len(MIXED)


class TestCompletionSummaries:
    def test_median_is_exact_with_retained_outcomes(self):
        metrics = recorded([outcome(str(i), 0.0, wait=0.0, completion=c)
                            for i, c in enumerate([4.0, 1.0, 100.0, 7.0])])
        assert metrics.median_completion_time() == 5.5

    def test_median_reads_the_sketch_without_outcomes(self):
        completions = np.linspace(10.0, 1000.0, 501)
        metrics = recorded([outcome(str(i), 0.0, wait=0.0, completion=float(c))
                            for i, c in enumerate(completions)], keep_outcomes=False)
        exact = float(np.percentile(completions, 50.0))
        assert metrics.median_completion_time() == pytest.approx(exact, rel=0.08)

    def test_percentiles_are_clamped_to_the_observed_range(self):
        metrics = recorded([outcome(str(i), 0.0, wait=0.0, completion=c)
                            for i, c in enumerate([3.0, 9.0, 27.0])], keep_outcomes=False)
        assert 3.0 <= metrics.percentile_completion_time(0.0)
        assert metrics.percentile_completion_time(100.0) <= 27.0

    @pytest.mark.parametrize("keep_outcomes", [True, False])
    def test_percentile_without_finished_jobs_raises(self, keep_outcomes):
        metrics = recorded(MIXED[2:], keep_outcomes=keep_outcomes)
        with pytest.raises(SimulationError, match="no finished jobs"):
            metrics.percentile_completion_time(50.0)

    def test_mean_wait_time(self):
        assert recorded(MIXED).mean_wait_time() == 2.0

    def test_mean_wait_time_is_zero_when_nothing_started(self):
        assert recorded([outcome("queued", 0.0)]).mean_wait_time() == 0.0


class TestUtilizationSteps:
    def test_sample_exact_steps_drop_zero_length_intervals(self):
        metrics = SimulationMetrics(total_slots=4)
        for now, slots in [(0.0, 1), (10.0, 3), (10.0, 2), (30.0, 0)]:
            observe_utilization(metrics, now, slots)
        metrics.finalize()
        assert metrics.utilization_steps() == [(0.0, 10.0, 1.0), (10.0, 30.0, 2.0)]

    def test_samples_at_one_instant_raise(self):
        metrics = SimulationMetrics(total_slots=4)
        observe_utilization(metrics, 5.0, 1)
        observe_utilization(metrics, 5.0, 2)
        with pytest.raises(SimulationError, match="zero simulated time"):
            metrics.utilization_steps()

    def test_hour_granular_steps_without_retained_samples(self):
        metrics = SimulationMetrics(total_slots=4, keep_outcomes=False)
        observe_utilization(metrics, 0.0, 2)
        observe_utilization(metrics, 7200.0, 0)
        metrics.finalize()
        assert metrics.utilization_samples == []
        assert metrics.utilization_steps() == [(0.0, 3600.0, 2.0),
                                               (3600.0, 7200.0, 2.0)]

    def test_empty_replay_has_no_steps(self):
        with pytest.raises(SimulationError, match="nonzero simulated time"):
            SimulationMetrics(keep_outcomes=False).utilization_steps()


class TestMerge:
    def test_mixed_retention_demotes_to_accumulators(self):
        kept = recorded(MIXED[:2])
        streamed = recorded(MIXED[2:], keep_outcomes=False)
        kept.merge(streamed)
        assert kept.keep_outcomes is False
        assert kept.outcomes == [] and kept.utilization_samples == []
        assert kept.jobs_submitted == 4
        assert kept.wait.count == 3

    def test_cache_statistics_add_up(self):
        left, right = SimulationMetrics(), SimulationMetrics()
        left.cache_stats = CacheStats(hits=2, misses=1, bytes_from_cache=10.0)
        right.cache_stats = CacheStats(hits=1, misses=3, evictions=4,
                                       admissions_rejected=1)
        left.merge(right)
        assert left.cache_stats == CacheStats(hits=3, misses=4, bytes_from_cache=10.0,
                                              evictions=4, admissions_rejected=1)

    def test_cache_statistics_adopted_from_the_other_side(self):
        left, right = SimulationMetrics(), SimulationMetrics()
        right.cache_stats = CacheStats(hits=5)
        left.merge(right)
        assert left.cache_stats.hits == 5
        assert left.cache_stats is not right.cache_stats


class TestAccumulatorReadouts:
    def test_empty_accumulator_reports_nothing(self):
        accumulator = MetricAccumulator()
        assert accumulator.count == 0
        assert accumulator.minimum is None and accumulator.maximum is None
        assert accumulator.mean_value is None
        assert accumulator.percentile(50.0) is None
        assert accumulator.cdf_points() == []

    def test_exact_moments_of_buffered_scalars(self):
        accumulator = MetricAccumulator()
        for value in [2.0, 8.0, 5.0]:
            accumulator.add(value)
        assert accumulator.count == 3
        assert accumulator.total == 15.0
        assert accumulator.mean_value == 5.0
        assert (accumulator.minimum, accumulator.maximum) == (2.0, 8.0)

    def test_cdf_points_rise_to_one(self):
        accumulator = MetricAccumulator()
        accumulator.update(np.array([0.0, 0.0, 1.0, 10.0, 100.0, 1000.0]))
        points = accumulator.cdf_points()
        assert points[0] == (0.0, pytest.approx(2 / 6))
        fractions = [fraction for _value, fraction in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_cdf_points_are_thinned_but_keep_the_last_point(self):
        accumulator = MetricAccumulator()
        accumulator.update(np.logspace(0, 9, 2000))
        points = accumulator.cdf_points(max_points=10)
        assert len(points) <= 11
        assert points[-1][1] == 1.0

    def test_utilization_without_observations(self):
        utilization = UtilizationAccumulator()
        assert utilization.span_s == 0.0
        assert utilization.mean_utilization(10) == 0.0
        assert utilization.hourly_active_slots().tolist() == [0.0]

    def test_mean_utilization_over_the_observed_span(self):
        utilization = UtilizationAccumulator()
        utilization.fold([100.0, 200.0], [4, 0])
        assert utilization.span_s == 100.0
        assert utilization.busy_slot_seconds == 400.0
        assert utilization.mean_utilization(8) == 0.5
        assert utilization.mean_utilization(0) == 0.0
