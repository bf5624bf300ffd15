"""Tests for the tiered-cluster replay."""

import pytest

from repro.errors import SimulationError
from repro.simulator import (
    ClusterConfig,
    TieredClusterConfig,
    TieredReplayer,
    compare_tiered_vs_unified,
)
from repro.traces import Job, Trace
from repro.units import GB, MB, TB


def small_job(index, submit):
    return Job(job_id="small%d" % index, submit_time_s=submit, duration_s=30.0,
               input_bytes=100 * MB, shuffle_bytes=10 * MB, output_bytes=10 * MB,
               map_task_seconds=60.0, reduce_task_seconds=20.0, map_tasks=2, reduce_tasks=1)


def huge_job(index, submit):
    return Job(job_id="huge%d" % index, submit_time_s=submit, duration_s=7200.0,
               input_bytes=5 * TB, shuffle_bytes=1 * TB, output_bytes=100 * GB,
               map_task_seconds=400000.0, reduce_task_seconds=150000.0,
               map_tasks=400, reduce_tasks=100)


@pytest.fixture()
def dichotomy_trace():
    """A head-of-line-blocking scenario: one huge job, then many small ones."""
    jobs = [huge_job(0, 0.0)]
    jobs += [small_job(index, 5.0 + index * 2.0) for index in range(60)]
    return Trace(jobs, name="dichotomy", machines=20)


class TestTieredClusterConfig:
    def test_threshold_validation(self):
        with pytest.raises(SimulationError):
            TieredClusterConfig(small_job_threshold_bytes=0.0)

    def test_unified_equivalent_preserves_node_count(self):
        config = TieredClusterConfig(performance=ClusterConfig(n_nodes=30),
                                     capacity=ClusterConfig(n_nodes=70))
        unified = config.unified_equivalent()
        assert unified.n_nodes == 100
        assert config.total_slots == unified.total_slots


class TestTieredReplayer:
    def test_split_routes_by_size(self, dichotomy_trace):
        replayer = TieredReplayer(TieredClusterConfig(small_job_threshold_bytes=10 * GB))
        parts = replayer.split_trace(dichotomy_trace)
        assert len(parts["performance"]) == 60
        assert len(parts["capacity"]) == 1

    def test_replay_produces_both_tier_metrics(self, dichotomy_trace):
        config = TieredClusterConfig(performance=ClusterConfig(n_nodes=5),
                                     capacity=ClusterConfig(n_nodes=15))
        result = TieredReplayer(config).replay(dichotomy_trace)
        assert result.n_small_jobs == 60 and result.n_large_jobs == 1
        assert result.performance is not None and result.capacity is not None
        assert result.performance.finished_jobs == 60
        assert result.small_job_median_completion() > 0

    def test_all_small_trace_has_empty_capacity_tier(self):
        trace = Trace([small_job(index, index * 5.0) for index in range(20)], name="small-only")
        result = TieredReplayer(TieredClusterConfig(
            performance=ClusterConfig(n_nodes=4), capacity=ClusterConfig(n_nodes=4))).replay(trace)
        assert result.capacity is None
        assert result.n_large_jobs == 0
        assert result.small_job_mean_wait() >= 0.0

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            TieredReplayer().replay(Trace([], name="empty"))


class TestTieredVsUnified:
    def test_split_protects_small_jobs_from_head_of_line_blocking(self, dichotomy_trace):
        # §6.2: under FIFO a single large job blocks hundreds of interactive
        # jobs; the physical split removes that interference.
        config = TieredClusterConfig(performance=ClusterConfig(n_nodes=5),
                                     capacity=ClusterConfig(n_nodes=15))
        comparison = compare_tiered_vs_unified(dichotomy_trace, config)
        assert comparison.small_job_wait_tiered <= comparison.small_job_wait_unified
        assert comparison.small_job_wait_improvement >= 1.0

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            compare_tiered_vs_unified(Trace([], name="empty"))
