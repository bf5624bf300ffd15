"""Tests for the legacy replay loop's event queue and per-node slot model,
and for task splitting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simulator import ClusterConfig, split_job
from repro.simulator.tasks import MAX_TASKS_PER_STAGE
from repro.traces import Job

from legacy_cluster import Cluster
from legacy_events import EventQueue


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(10.0, lambda: fired.append("b"))
        queue.schedule(5.0, lambda: fired.append("a"))
        queue.schedule(20.0, lambda: fired.append("c"))
        queue.run()
        assert fired == ["a", "b", "c"]
        assert queue.now == 20.0
        assert queue.processed_events == 3

    def test_tie_break_by_priority_then_insertion(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append("low"), priority=1)
        queue.schedule(1.0, lambda: fired.append("high"), priority=0)
        queue.schedule(1.0, lambda: fired.append("low2"), priority=1)
        queue.run()
        assert fired == ["high", "low", "low2"]

    def test_cancelled_event_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        queue.schedule(2.0, lambda: fired.append("y"))
        queue.run()
        assert fired == ["y"]

    def test_schedule_in_past_rejected(self):
        queue = EventQueue()
        queue.schedule(5.0, lambda: queue.schedule(1.0, lambda: None))
        with pytest.raises(SimulationError):
            queue.run()

    def test_schedule_after_and_run_until(self):
        queue = EventQueue()
        fired = []
        queue.schedule_after(1.0, lambda: fired.append(1))
        queue.schedule_after(10.0, lambda: fired.append(2))
        queue.run(until_s=5.0)
        assert fired == [1]
        assert queue.now == 5.0
        queue.run()
        assert fired == [1, 2]

    def test_events_scheduled_during_run(self):
        queue = EventQueue()
        fired = []
        def chain():
            fired.append(queue.now)
            if queue.now < 3.0:
                queue.schedule_after(1.0, chain)
        queue.schedule(1.0, chain)
        queue.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule_after(-1.0, lambda: None)


class TestClusterConfig:
    def test_totals(self):
        config = ClusterConfig(n_nodes=10, map_slots_per_node=4, reduce_slots_per_node=2)
        assert config.total_map_slots == 40
        assert config.total_reduce_slots == 20
        assert config.total_slots == 60

    def test_invalid_configs(self):
        with pytest.raises(SimulationError):
            ClusterConfig(n_nodes=0)
        with pytest.raises(SimulationError):
            ClusterConfig(map_slots_per_node=0)
        with pytest.raises(SimulationError):
            ClusterConfig(disk_bandwidth_bps=0)


class TestCluster:
    def test_acquire_release_accounting(self):
        cluster = Cluster(ClusterConfig(n_nodes=2, map_slots_per_node=2, reduce_slots_per_node=1))
        assert cluster.free_slots("map") == 4
        nodes = [cluster.acquire_slot("map") for _ in range(4)]
        assert all(node is not None for node in nodes)
        assert cluster.free_slots("map") == 0
        assert cluster.acquire_slot("map") is None
        assert cluster.utilization() == pytest.approx(4 / 6)
        cluster.release_slot(nodes[0], "map")
        assert cluster.free_slots("map") == 1

    def test_placement_spreads_across_nodes(self):
        cluster = Cluster(ClusterConfig(n_nodes=4, map_slots_per_node=2, reduce_slots_per_node=1))
        first = cluster.acquire_slot("map")
        second = cluster.acquire_slot("map")
        assert first.node_id != second.node_id

    def test_release_unacquired_rejected(self):
        cluster = Cluster(ClusterConfig(n_nodes=1))
        node = cluster.nodes[0]
        with pytest.raises(SimulationError):
            cluster.release_slot(node, "map")

    def test_unknown_kind_rejected(self):
        cluster = Cluster(ClusterConfig(n_nodes=1))
        with pytest.raises(SimulationError):
            cluster.free_slots("gpu")


class TestSplitJob:
    def make_job(self, **overrides):
        base = dict(job_id="j", submit_time_s=5.0, duration_s=60.0, input_bytes=1e9,
                    shuffle_bytes=1e8, output_bytes=1e7, map_task_seconds=600.0,
                    reduce_task_seconds=120.0, map_tasks=20, reduce_tasks=4)
        base.update(overrides)
        return Job(**base)

    def test_respects_recorded_task_counts(self):
        sim_job = split_job(self.make_job())
        assert len(sim_job.map_tasks) == 20
        assert len(sim_job.reduce_tasks) == 4
        assert sum(task.duration_s for task in sim_job.map_tasks) == pytest.approx(600.0)
        assert sum(task.duration_s for task in sim_job.reduce_tasks) == pytest.approx(120.0)

    def test_default_granularity_without_counts(self):
        sim_job = split_job(self.make_job(map_tasks=None, reduce_tasks=None,
                                          map_task_seconds=300.0, reduce_task_seconds=0.0))
        assert len(sim_job.map_tasks) == 10  # 300 s at 30 s per task
        assert sim_job.reduce_tasks == []

    def test_task_cap_preserves_total_time(self):
        sim_job = split_job(self.make_job(map_tasks=100000, map_task_seconds=1e6))
        assert len(sim_job.map_tasks) == MAX_TASKS_PER_STAGE
        assert sum(task.duration_s for task in sim_job.map_tasks) == pytest.approx(1e6)

    def test_zero_compute_job_gets_placeholder_task(self):
        sim_job = split_job(self.make_job(map_task_seconds=0.0, reduce_task_seconds=0.0,
                                          map_tasks=0, reduce_tasks=0))
        assert len(sim_job.map_tasks) == 1
        assert sim_job.reduce_tasks == []

    def test_progress_bookkeeping(self):
        sim_job = split_job(self.make_job())
        assert sim_job.maps_remaining == 20
        assert not sim_job.map_stage_done
        assert not sim_job.done
        assert sim_job.submit_time_s == 5.0
        assert sim_job.wait_time_s == 0.0
        sim_job.start_time_s = 8.0
        assert sim_job.wait_time_s == pytest.approx(3.0)


@settings(max_examples=20, deadline=None)
@given(map_seconds=st.floats(min_value=0, max_value=1e7, allow_nan=False),
       reduce_seconds=st.floats(min_value=0, max_value=1e7, allow_nan=False))
def test_property_split_preserves_total_task_time(map_seconds, reduce_seconds):
    """Splitting never loses or invents task time (within float tolerance)."""
    job = Job(job_id="p", submit_time_s=0.0, duration_s=10.0, input_bytes=1.0,
              shuffle_bytes=0.0, output_bytes=1.0, map_task_seconds=map_seconds,
              reduce_task_seconds=reduce_seconds)
    sim_job = split_job(job)
    total = (sum(task.duration_s for task in sim_job.map_tasks)
             + sum(task.duration_s for task in sim_job.reduce_tasks))
    expected = map_seconds + reduce_seconds
    if expected == 0:
        assert total == pytest.approx(1.0)  # placeholder task
    else:
        assert total == pytest.approx(expected, rel=1e-9)
