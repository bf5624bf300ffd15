"""Streaming replay: bounded-memory equivalence with materialized replay,
and the mergeable metric accumulators it is built on."""

import numpy as np
import pytest

from repro.engine import ChunkedTraceStore
from repro.errors import SimulationError
from repro.simulator import (
    ClusterConfig,
    FairScheduler,
    LruCache,
    MetricAccumulator,
    SimulationMetrics,
    StreamingReplayer,
    UtilizationAccumulator,
    WorkloadReplayer,
    energy_from_metrics,
    replay_store,
)
from repro.simulator.metrics import JobOutcome
from repro.traces import Job, Trace, load_workload
from repro.traces.io import write_trace
from repro.units import GB, HOUR

from legacy_replay import observe_utilization


@pytest.fixture(scope="module")
def trace():
    return load_workload("CC-e", seed=11, scale=0.15)


@pytest.fixture(scope="module")
def store(trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("stores") / "cc-e.store"
    return ChunkedTraceStore.write(directory, trace, chunk_rows=256)


def job(job_id, submit, map_s=60.0, reduce_s=0.0, input_b=1e9):
    return Job(job_id=job_id, submit_time_s=submit, duration_s=map_s + reduce_s,
               input_bytes=input_b, shuffle_bytes=0.0, output_bytes=1e8,
               map_task_seconds=map_s, reduce_task_seconds=reduce_s)


class TestStreamedEqualsMaterialized:
    """The acceptance bar: streamed replay reproduces materialized replay
    exactly — counts, sums, utilization, and sketch bins bit for bit."""

    def test_store_replay_matches_materialized(self, trace, store):
        materialized = WorkloadReplayer().replay(trace)
        streamed = StreamingReplayer().replay_store(store)
        assert streamed.summary() == materialized.summary()
        assert np.array_equal(streamed.completion.sketch.counts,
                              materialized.completion.sketch.counts)
        assert np.array_equal(streamed.wait.sketch.counts,
                              materialized.wait.sketch.counts)
        assert np.array_equal(streamed.hourly_active_slots(),
                              materialized.hourly_active_slots())
        assert streamed.utilization.busy_slot_seconds == \
            materialized.utilization.busy_slot_seconds

    def test_tiny_lookahead_changes_nothing(self, trace, store):
        baseline = StreamingReplayer().replay_store(store)
        tiny = StreamingReplayer(lookahead=1).replay_store(store)
        assert tiny.summary() == baseline.summary()
        assert np.array_equal(tiny.completion.sketch.counts,
                              baseline.completion.sketch.counts)

    def test_replay_path_streams_trace_files(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        write_trace(trace, path)
        streamed = StreamingReplayer().replay_path(str(path))
        materialized = WorkloadReplayer().replay(trace)
        assert streamed.summary() == materialized.summary()

    def test_same_scheduler_and_cache_effects(self, trace, store):
        def build(cls):
            return cls(scheduler=FairScheduler(), cache=LruCache(capacity_bytes=GB))
        materialized = build(WorkloadReplayer).replay(trace)
        streamed = build(StreamingReplayer).replay_store(store)
        assert streamed.summary() == materialized.summary()
        assert streamed.cache_stats.hits == materialized.cache_stats.hits
        assert streamed.cache_stats.misses == materialized.cache_stats.misses

    def test_replay_store_convenience_and_directory_arg(self, store):
        by_handle = replay_store(store)
        by_dir = replay_store(store.directory)
        assert by_handle.summary() == by_dir.summary()


class TestStreamingBehaviour:
    def test_no_outcomes_or_samples_retained(self, store):
        metrics = StreamingReplayer().replay_store(store)
        assert metrics.keep_outcomes is False
        assert metrics.outcomes == []
        assert metrics.utilization_samples == []
        assert metrics.finished_jobs > 0
        assert metrics.n_jobs == metrics.jobs_submitted

    def test_replay_memory_is_flat_in_the_job_count(self, memory_stores, peak_bytes):
        """One chunk and the metric accumulators, never a per-job list: four
        times the jobs over the same horizon peak within 25 % of the smaller
        store (traced allocations, not RSS or wall clock)."""
        StreamingReplayer().replay_store(memory_stores[0])  # one-time allocations
        small, large = (peak_bytes(lambda store=store: StreamingReplayer().replay_store(store))
                        for store in memory_stores)
        assert large <= 1.25 * small

    def test_streaming_percentiles_close_to_exact(self, trace, store):
        exact = WorkloadReplayer().replay(trace)
        streamed = StreamingReplayer().replay_store(store)
        for q in (50.0, 95.0, 99.0):
            approx = streamed.percentile_completion_time(q)
            truth = exact.percentile_completion_time(q)
            # sketch resolution is one part in 10**(1/32) ~ 7.5%
            assert approx == pytest.approx(truth, rel=0.08)

    def test_streaming_hdfs_does_not_retain_implicit_files(self):
        jobs = [job("j%d" % i, float(i)) for i in range(50)]
        replayer = StreamingReplayer()
        replayer.replay_jobs(iter(jobs))
        assert len(replayer.hdfs) == 0

    def test_unsorted_stream_rejected(self):
        jobs = [job("a", 100.0), job("b", 50.0)]
        with pytest.raises(SimulationError, match="arrival-time order"):
            StreamingReplayer().replay_jobs(iter(jobs))

    def test_empty_stream_rejected(self):
        with pytest.raises(SimulationError, match="empty job stream"):
            StreamingReplayer().replay_jobs(iter([]))

    def test_max_jobs_caps_streamed_replay(self, store):
        metrics = StreamingReplayer(max_simulated_jobs=10).replay_store(store)
        assert metrics.jobs_submitted == 10

    def test_energy_from_streaming_metrics(self, store):
        """Energy integration falls back to hour-granular accumulator steps."""
        config = ClusterConfig()
        metrics = StreamingReplayer(cluster_config=config).replay_store(store)
        report = energy_from_metrics(metrics, config)
        assert report.energy_joules > 0
        assert 0.0 <= report.mean_utilization <= 1.0


def outcome(job_id, submit, wait, completion, total_bytes=1e9):
    return JobOutcome(job_id=job_id, submit_time_s=submit, start_time_s=submit + wait,
                      finish_time_s=submit + completion, wait_time_s=wait,
                      completion_time_s=completion, total_bytes=total_bytes, n_tasks=1)


class TestMetricAccumulatorMerge:
    """Merge equivalence: folding a partition of the stream and merging is
    exact for counts/extremes/sketch bins (and for dyadic-rational sums)."""

    def test_merge_equals_serial_fold(self):
        # Dyadic rationals with bounded magnitude: float addition is exact,
        # so even the float sums must match the serial fold bit for bit.
        values = (np.arange(10_000, dtype=float) % 4096) / 8.0
        serial = MetricAccumulator()
        serial.update(values)
        parts = [MetricAccumulator() for _ in range(4)]
        for index, part in enumerate(parts):
            part.update(values[index * 2500:(index + 1) * 2500])
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        assert merged.count == serial.count == 10_000
        assert merged.total == serial.total
        assert merged.minimum == serial.minimum
        assert merged.maximum == serial.maximum
        assert np.array_equal(merged.sketch.counts, serial.sketch.counts)
        assert merged.sketch.zero_count == serial.sketch.zero_count

    def test_scalar_adds_equal_batch_update(self):
        values = np.linspace(0.0, 500.0, 9000)
        one_by_one = MetricAccumulator()
        for value in values:
            one_by_one.add(float(value))
        batched = MetricAccumulator()
        batched.update(values)
        assert one_by_one.count == batched.count
        assert np.array_equal(one_by_one.sketch.counts, batched.sketch.counts)
        assert one_by_one.minimum == batched.minimum
        assert one_by_one.maximum == batched.maximum

    def test_percentile_clamped_to_observed_range(self):
        acc = MetricAccumulator()
        acc.update(np.array([10.0, 20.0, 30.0]))
        assert 10.0 <= acc.percentile(50.0) <= 30.0
        assert acc.percentile(0.0) == 10.0
        assert acc.percentile(100.0) == 30.0


class TestSimulationMetricsMerge:
    def test_streamed_shard_merge_equals_materialized_whole(self):
        """Satellite acceptance: merging per-shard streamed metrics equals a
        single materialized replay's accumulators, exactly."""
        # Dyadic times/waits keep every float sum exact under regrouping.
        outcomes = [outcome("j%d" % i, float(i), (i % 8) / 4.0, 16.0 + (i % 32) / 2.0)
                    for i in range(1000)]
        whole = SimulationMetrics(total_slots=600, keep_outcomes=True)
        for entry in outcomes:
            whole.record_submission()
            whole.record_job(entry)
        shards = [SimulationMetrics(total_slots=600, keep_outcomes=False)
                  for _ in range(3)]
        for index, entry in enumerate(outcomes):
            shards[index % 3].record_submission()
            shards[index % 3].record_job(entry)
        merged = shards[0]
        merged.merge(shards[1])
        merged.merge(shards[2])
        assert merged.jobs_submitted == whole.jobs_submitted
        assert merged.finished_jobs == whole.finished_jobs
        assert merged.wait.total == whole.wait.total
        assert merged.completion.total == whole.completion.total
        assert np.array_equal(merged.completion.sketch.counts,
                              whole.completion.sketch.counts)
        assert np.array_equal(merged.wait.sketch.counts, whole.wait.sketch.counts)
        assert merged.mean_wait_time() == whole.mean_wait_time()
        assert merged.completion.mean_value == whole.completion.mean_value

    def test_mixed_retention_merge_demotes_and_clears_lists(self):
        """Merging a streaming shard into a materialized one must not leave a
        partial outcome/sample list behind — summaries would silently cover
        only one side."""
        keeping = SimulationMetrics(total_slots=600, keep_outcomes=True)
        keeping.record_submission()
        keeping.record_job(outcome("a", 0.0, 1.0, 10.0))
        observe_utilization(keeping, 0.0, 3)
        observe_utilization(keeping, HOUR, 0)
        streaming = SimulationMetrics(total_slots=600, keep_outcomes=False)
        streaming.record_submission()
        streaming.record_job(outcome("b", HOUR, 2.0, 20.0))
        keeping.merge(streaming)
        assert keeping.keep_outcomes is False
        assert keeping.outcomes == []
        assert keeping.utilization_samples == []
        # Summaries still cover both jobs via the accumulators, and
        # utilization_steps() falls back to the merged hourly bins instead of
        # trusting the stale (half-coverage) sample list.
        assert keeping.wait.count == 2
        assert keeping.utilization_steps()[0][2] == pytest.approx(3.0)

    def test_merge_combines_cache_stats_and_utilization(self):
        left = SimulationMetrics(total_slots=10)
        right = SimulationMetrics(total_slots=10)
        observe_utilization(left, 0.0, 5)
        observe_utilization(left, HOUR, 5)
        observe_utilization(right, HOUR, 2)
        observe_utilization(right, 2 * HOUR, 2)
        from repro.simulator import CacheStats
        left.cache_stats = CacheStats(hits=3, misses=1)
        right.cache_stats = CacheStats(hits=1, misses=5)
        left.merge(right)
        assert left.cache_stats.hits == 4 and left.cache_stats.misses == 6
        assert left.utilization.busy_slot_seconds == 7 * HOUR
        hourly = left.hourly_active_slots()
        assert hourly[0] == 5.0 and hourly[1] == 2.0


class TestUtilizationAccumulator:
    def test_hour_splitting_matches_step_integral(self):
        acc = UtilizationAccumulator()
        acc.observe(0.0, 4)
        acc.observe(1.5 * HOUR, 2)      # 4 slots for 1.5 h
        acc.observe(3.0 * HOUR, 0)      # 2 slots for 1.5 h
        assert acc.busy_slot_seconds == 4 * 1.5 * HOUR + 2 * 1.5 * HOUR
        hourly = acc.hourly_active_slots()
        assert hourly.tolist() == [4.0, 3.0, 2.0]
        assert acc.mean_utilization(total_slots=4) == pytest.approx(0.75)

    def test_out_of_order_observation_rejected(self):
        acc = UtilizationAccumulator()
        acc.observe(100.0, 1)
        with pytest.raises(SimulationError):
            acc.observe(50.0, 1)

    def test_idle_tail_extends_hourly_bins(self):
        acc = UtilizationAccumulator()
        acc.observe(0.0, 3)
        acc.observe(HOUR, 0)
        acc.observe(3 * HOUR, 0)
        assert len(acc.hourly_slot_seconds) == 3
        assert acc.hourly_active_slots().tolist() == [3.0, 0.0, 0.0]
