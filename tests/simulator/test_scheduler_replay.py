"""Tests for the schedulers and the workload replayer."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.simulator import (
    CapacityScheduler,
    ClusterConfig,
    FairScheduler,
    FifoScheduler,
    LruCache,
    SizeThresholdCache,
    WorkloadReplayer,
    replay,
)
from repro.simulator.replay import _PreparedJob
from repro.traces import Job, Trace
from repro.units import GB, MB

import legacy_scheduler
from legacy_tasks import split_job


def make_job(job_id, submit, map_seconds, reduce_seconds=0.0, maps=None, reduces=None,
             input_bytes=1 * MB, input_path=None, output_path=None, output_bytes=1 * MB):
    return Job(job_id=job_id, submit_time_s=submit, duration_s=map_seconds + reduce_seconds,
               input_bytes=input_bytes, shuffle_bytes=0.0 if reduce_seconds == 0 else 1 * MB,
               output_bytes=output_bytes, map_task_seconds=map_seconds,
               reduce_task_seconds=reduce_seconds, map_tasks=maps, reduce_tasks=reduces,
               input_path=input_path, output_path=output_path)


class TestFifoScheduler:
    def test_strict_submission_order(self):
        scheduler = legacy_scheduler.FifoScheduler()
        job_a = split_job(make_job("a", 0.0, 60.0, maps=2))
        job_b = split_job(make_job("b", 1.0, 60.0, maps=2))
        scheduler.add_job(job_a)
        scheduler.add_job(job_b)
        picked, _ = scheduler.next_task("map", 2.0)
        assert picked.job_id == "a"
        picked, _ = scheduler.next_task("map", 2.0)
        assert picked.job_id == "a"
        picked, _ = scheduler.next_task("map", 2.0)
        assert picked.job_id == "b"

    def test_reduce_waits_for_map_barrier(self):
        scheduler = legacy_scheduler.FifoScheduler()
        sim_job = split_job(make_job("a", 0.0, 30.0, reduce_seconds=30.0, maps=1, reduces=1))
        scheduler.add_job(sim_job)
        assert scheduler.next_task("reduce", 0.0) is None
        _, map_task = scheduler.next_task("map", 0.0)
        sim_job.maps_remaining -= 1
        picked, _ = scheduler.next_task("reduce", 30.0)
        assert picked.job_id == "a"

    def test_pending_jobs_and_finish(self):
        scheduler = legacy_scheduler.FifoScheduler()
        sim_job = split_job(make_job("a", 0.0, 30.0, maps=1))
        scheduler.add_job(sim_job)
        assert scheduler.pending_jobs() == 1
        scheduler.next_task("map", 0.0)
        assert scheduler.pending_jobs() == 0
        scheduler.job_finished(sim_job)
        assert scheduler.next_task("map", 1.0) is None


class TestFairScheduler:
    def test_slot_goes_to_job_with_fewest_running_tasks(self):
        scheduler = legacy_scheduler.FairScheduler()
        job_a = split_job(make_job("a", 0.0, 300.0, maps=10))
        job_b = split_job(make_job("b", 1.0, 300.0, maps=10))
        scheduler.add_job(job_a)
        scheduler.add_job(job_b)
        first, _ = scheduler.next_task("map", 2.0)
        second, _ = scheduler.next_task("map", 2.0)
        assert {first.job_id, second.job_id} == {"a", "b"}


class TestCapacityScheduler:
    def test_small_jobs_go_to_interactive_pool(self):
        scheduler = legacy_scheduler.CapacityScheduler(total_map_slots=10, total_reduce_slots=4,
                                                       interactive_share=0.5,
                                                       small_job_threshold_bytes=10 * GB)
        small = split_job(make_job("small", 0.0, 30.0, maps=1, input_bytes=1 * MB))
        big = split_job(make_job("big", 0.0, 3000.0, maps=10, input_bytes=100 * GB))
        scheduler.add_job(big)
        scheduler.add_job(small)
        # Both pools are below their limits; the emptier pool (either) serves
        # first, and both jobs eventually get tasks scheduled.
        picked_ids = set()
        for _ in range(4):
            picked = scheduler.next_task("map", 1.0)
            assert picked is not None
            picked_ids.add(picked[0].job_id)
        assert "small" in picked_ids and "big" in picked_ids

    def test_invalid_parameters(self):
        with pytest.raises(SchedulingError):
            CapacityScheduler(total_map_slots=0, total_reduce_slots=1)
        with pytest.raises(SchedulingError):
            CapacityScheduler(total_map_slots=1, total_reduce_slots=1, interactive_share=1.5)


class TestReplayer:
    def simple_trace(self):
        jobs = [
            make_job("a", 0.0, 60.0, maps=2, input_path="/in/a", output_path="/out/a"),
            make_job("b", 10.0, 120.0, reduce_seconds=60.0, maps=4, reduces=2,
                     input_path="/in/b", output_path="/out/b"),
            make_job("c", 20.0, 30.0, maps=1, input_path="/in/a", output_path="/out/c"),
        ]
        return Trace(jobs, name="sim-test", machines=2)

    def test_all_jobs_finish(self):
        metrics = replay(self.simple_trace(), ClusterConfig(n_nodes=2))
        assert metrics.finished_jobs == 3
        assert len(metrics.outcomes) == 3
        assert all(outcome.completion_time_s is not None for outcome in metrics.outcomes)

    def test_completion_time_at_least_critical_path(self):
        metrics = replay(self.simple_trace(), ClusterConfig(n_nodes=2))
        outcome_b = next(outcome for outcome in metrics.outcomes if outcome.job_id == "b")
        # Job b has 120 s of map work over 4 tasks (30 s each) and 60 s of
        # reduce work over 2 tasks; with ample slots the critical path is
        # one map wave plus one reduce wave = 60 s.
        assert outcome_b.completion_time_s >= 60.0

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            replay(Trace([], name="e"))

    def test_slot_contention_creates_waits(self):
        # One node with one map slot and many simultaneous jobs: later jobs wait.
        jobs = [make_job("j%d" % index, 0.0, 60.0, maps=1) for index in range(5)]
        config = ClusterConfig(n_nodes=1, map_slots_per_node=1, reduce_slots_per_node=1)
        metrics = replay(Trace(jobs, name="contention"), config)
        assert metrics.finished_jobs == 5
        assert metrics.mean_wait_time() > 0.0
        assert max(outcome.wait_time_s for outcome in metrics.outcomes) >= 4 * 60.0

    def test_utilization_between_zero_and_one(self):
        metrics = replay(self.simple_trace(), ClusterConfig(n_nodes=2))
        assert 0.0 <= metrics.mean_utilization() <= 1.0
        assert metrics.hourly_active_slots().size >= 1

    def test_cache_sees_input_accesses(self):
        cache = LruCache(capacity_bytes=1 * GB)
        replayer = WorkloadReplayer(cluster_config=ClusterConfig(n_nodes=2), cache=cache)
        metrics = replayer.replay(self.simple_trace())
        # Jobs a and c read the same path: the second read is a hit.
        assert metrics.cache_stats.accesses == 3
        assert metrics.cache_stats.hits == 1

    def test_max_simulated_jobs_caps_replay(self):
        replayer = WorkloadReplayer(cluster_config=ClusterConfig(n_nodes=2),
                                    max_simulated_jobs=2)
        metrics = replayer.replay(self.simple_trace())
        assert len(metrics.outcomes) == 2

    def test_fair_scheduler_reduces_small_job_wait(self):
        """Section 6.2 motivation: under FIFO a large job head-of-line blocks
        small jobs; fair sharing lets small jobs through."""
        jobs = [make_job("huge", 0.0, 20000.0, maps=100, input_bytes=1e12)]
        jobs += [make_job("small%d" % index, 10.0 + index, 30.0, maps=1)
                 for index in range(20)]
        trace = Trace(jobs, name="hol")
        config = ClusterConfig(n_nodes=2, map_slots_per_node=4, reduce_slots_per_node=2)
        fifo_metrics = replay(trace, config, scheduler=FifoScheduler())
        fair_metrics = replay(trace, config, scheduler=FairScheduler())
        def small_mean_wait(metrics):
            waits = [outcome.wait_time_s for outcome in metrics.outcomes
                     if outcome.job_id.startswith("small")]
            return sum(waits) / len(waits)
        assert small_mean_wait(fair_metrics) < small_mean_wait(fifo_metrics)

    def test_size_threshold_cache_on_generated_workload(self, cc_b_small_trace):
        """Integration: replaying a generated workload with the paper's cache
        policy produces hits (re-accessed small files) without exceeding capacity."""
        cache = SizeThresholdCache(capacity_bytes=50 * GB, size_threshold_bytes=4 * GB)
        replayer = WorkloadReplayer(cluster_config=ClusterConfig(n_nodes=20),
                                    cache=cache, max_simulated_jobs=800)
        metrics = replayer.replay(cc_b_small_trace)
        assert metrics.cache_stats.accesses == 800
        assert metrics.cache_stats.hit_rate > 0.0
        assert 0.0 < replayer.cache.used_bytes <= 50 * GB


# ---------------------------------------------------------------------------
# the engine's ready queues: one pick per freed slot
# ---------------------------------------------------------------------------
def admitted(queues, job_id, order, maps=1, reduces=0, total_bytes=1 * MB):
    """A replay record for ``queues``, admitted ``order``-th."""
    record = _PreparedJob(job_id, float(order), maps, 30.0, reduces, 30.0,
                          None, 0.0, None, 0.0, total_bytes)
    record.order = order
    queues.admit(record)
    return record


class TestReadyQueues:
    def test_fifo_picks_in_admission_order(self):
        queues = FifoScheduler()._queues()
        admitted(queues, "a", 0, maps=2)
        admitted(queues, "b", 1, maps=2)
        assert [queues.pick("map").job_id for _ in range(4)] == ["a", "a", "b", "b"]
        assert queues.pick("map") is None

    def test_fifo_reduces_wait_for_the_map_barrier(self):
        queues = FifoScheduler()._queues()
        record = admitted(queues, "a", 0, maps=1, reduces=1)
        assert queues.pick("reduce") is None
        assert queues.pick("map") is record
        record.maps_remaining -= 1
        queues.reduce_ready(record)
        assert queues.pick("reduce") is record

    def test_fair_picks_fewest_running_then_admission_order(self):
        queues = FairScheduler()._queues()
        first = admitted(queues, "a", 0, maps=10)
        second = admitted(queues, "b", 1, maps=10)
        assert [queues.pick("map").job_id for _ in range(4)] == ["a", "b", "a", "b"]
        # Two tasks of "a" complete: it runs fewer tasks than "b" now.
        queues.released(first, "map")
        queues.released(first, "map")
        assert (first.running, second.running) == (0, 2)
        assert [queues.pick("map").job_id for _ in range(3)] == ["a", "a", "a"]

    def test_fair_drops_jobs_with_nothing_queued(self):
        queues = FairScheduler()._queues()
        only = admitted(queues, "a", 0, maps=1)
        admitted(queues, "b", 1, maps=2)
        assert queues.pick("map") is only
        queues.released(only, "map")  # "a" now runs nothing, queues nothing
        assert [queues.pick("map").job_id for _ in range(2)] == ["b", "b"]
        assert queues.pick("map") is None

    def test_capacity_routes_by_size_and_lends_idle_capacity(self):
        scheduler = CapacityScheduler(total_map_slots=4, total_reduce_slots=2,
                                      interactive_share=0.5,
                                      small_job_threshold_bytes=10 * GB)
        queues = scheduler._queues()
        big = admitted(queues, "big", 0, maps=10, total_bytes=100 * GB)
        small = admitted(queues, "small", 1, maps=1, total_bytes=1 * MB)
        assert (big.pool, small.pool) == (1, 0)
        # Both pools are empty: interactive first, then batch (now the
        # emptier one), then batch borrows the idle interactive share.
        assert [queues.pick("map").job_id for _ in range(4)] == \
            ["small", "big", "big", "big"]
        assert queues.running["map"] == [1, 3]
        queues.released(small, "map")
        assert queues.running["map"] == [0, 3]

    def test_a_scheduler_holds_no_replay_state(self):
        jobs = [make_job("j%d" % index, float(index), 600.0, reduce_seconds=60.0,
                         maps=8, reduces=2) for index in range(12)]
        config = ClusterConfig(n_nodes=1, map_slots_per_node=4, reduce_slots_per_node=2)
        for scheduler in (FifoScheduler(), FairScheduler(),
                          CapacityScheduler(config.total_map_slots,
                                            config.total_reduce_slots)):
            replayer = WorkloadReplayer(cluster_config=config, scheduler=scheduler)
            first = replayer.replay(Trace(jobs, name="twice")).digest()
            again = WorkloadReplayer(cluster_config=config,
                                     scheduler=scheduler).replay(Trace(jobs, name="twice"))
            assert again.digest() == first
