"""Tests for straggler injection, speculative execution, and impact analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simulator import (
    ClusterConfig,
    SpeculativeExecutionModel,
    StragglerImpact,
    StragglerInjectionStats,
    StragglerInjector,
    StragglerModel,
    WorkloadReplayer,
    straggler_impact,
)
from repro.traces import Job, Trace
from repro.units import GB, MB

from legacy_tasks import split_job, straggler_task_transform


def make_job(job_id="j1", maps=8, reduces=4, map_seconds=240.0, reduce_seconds=120.0,
             input_bytes=1 * GB, submit=0.0):
    return Job(
        job_id=job_id, submit_time_s=submit, duration_s=60.0,
        input_bytes=float(input_bytes), shuffle_bytes=float(input_bytes) / 4,
        output_bytes=float(input_bytes) / 10, map_task_seconds=map_seconds,
        reduce_task_seconds=reduce_seconds, map_tasks=maps, reduce_tasks=reduces,
        input_path="/data/%s" % job_id,
    )


class TestStragglerModel:
    def test_invalid_probability_rejected(self):
        with pytest.raises(SimulationError):
            StragglerModel(probability=1.5)
        with pytest.raises(SimulationError):
            StragglerModel(probability=-0.1)

    def test_slowdown_below_one_rejected(self):
        with pytest.raises(SimulationError):
            StragglerModel(slowdown_factor=0.5)

    def test_speculation_validation(self):
        with pytest.raises(SimulationError):
            SpeculativeExecutionModel(min_comparable_tasks=1)
        with pytest.raises(SimulationError):
            SpeculativeExecutionModel(rescue_cap_factor=0.9)
        with pytest.raises(SimulationError):
            SpeculativeExecutionModel(relaunch_overhead_s=-1.0)


class TestStragglerInjection:
    def test_zero_probability_changes_nothing(self):
        sim_job = split_job(make_job())
        original = [task.duration_s for task in sim_job.map_tasks + sim_job.reduce_tasks]
        transform = straggler_task_transform(StragglerModel(probability=0.0, seed=1))
        transform(sim_job)
        assert [task.duration_s for task in sim_job.map_tasks + sim_job.reduce_tasks] == original
        assert transform.stats.stragglers_injected == 0

    def test_probability_one_slows_every_task(self):
        sim_job = split_job(make_job())
        original = [task.duration_s for task in sim_job.map_tasks]
        transform = straggler_task_transform(
            StragglerModel(probability=1.0, slowdown_factor=3.0, seed=1), speculation=None)
        transform(sim_job)
        assert all(task.duration_s == pytest.approx(3.0 * before)
                   for task, before in zip(sim_job.map_tasks, original))
        assert transform.stats.stragglers_injected / transform.stats.tasks_seen == pytest.approx(1.0)
        assert transform.stats.jobs_affected == 1

    def test_injection_is_deterministic_given_seed(self):
        durations = []
        for _ in range(2):
            sim_job = split_job(make_job())
            transform = straggler_task_transform(
                StragglerModel(probability=0.3, slowdown_factor=4.0, seed=42))
            transform(sim_job)
            durations.append([task.duration_s for task in sim_job.map_tasks])
        assert durations[0] == durations[1]

    def test_speculation_caps_detectable_stragglers(self):
        sim_job = split_job(make_job(maps=16, reduces=0, map_seconds=480.0, reduce_seconds=0.0))
        normal = sim_job.map_tasks[0].duration_s
        speculation = SpeculativeExecutionModel(min_comparable_tasks=4,
                                                rescue_cap_factor=1.5,
                                                relaunch_overhead_s=0.0)
        transform = straggler_task_transform(
            StragglerModel(probability=1.0, slowdown_factor=10.0, seed=0), speculation)
        transform(sim_job)
        assert all(task.duration_s <= 1.5 * normal + 1e-9 for task in sim_job.map_tasks)
        assert transform.stats.stragglers_rescued == len(sim_job.map_tasks)

    def test_single_task_job_cannot_be_rescued(self):
        # The §6.2 argument: one task has no siblings to compare against.
        sim_job = split_job(make_job(maps=1, reduces=0, map_seconds=30.0, reduce_seconds=0.0))
        speculation = SpeculativeExecutionModel(min_comparable_tasks=4)
        transform = straggler_task_transform(
            StragglerModel(probability=1.0, slowdown_factor=10.0, seed=0), speculation)
        transform(sim_job)
        assert sim_job.map_tasks[0].duration_s == pytest.approx(300.0)
        assert transform.stats.stragglers_rescued == 0
        assert transform.stats.stragglers_undetectable == 1

    def test_rescue_never_slower_than_straggling(self):
        # With a huge overhead the "rescue" would be slower; it must not be applied.
        sim_job = split_job(make_job(maps=8, reduces=0, map_seconds=80.0, reduce_seconds=0.0))
        speculation = SpeculativeExecutionModel(min_comparable_tasks=2,
                                                rescue_cap_factor=1.0,
                                                relaunch_overhead_s=1e6)
        transform = straggler_task_transform(
            StragglerModel(probability=1.0, slowdown_factor=2.0, seed=0), speculation)
        transform(sim_job)
        assert all(task.duration_s == pytest.approx(20.0) for task in sim_job.map_tasks)

    @given(probability=st.floats(min_value=0.0, max_value=1.0),
           slowdown=st.floats(min_value=1.0, max_value=20.0))
    @settings(max_examples=25, deadline=None)
    def test_durations_never_shrink_without_speculation(self, probability, slowdown):
        sim_job = split_job(make_job(maps=6, reduces=3))
        before = [task.duration_s for task in sim_job.map_tasks + sim_job.reduce_tasks]
        transform = straggler_task_transform(
            StragglerModel(probability=probability, slowdown_factor=slowdown, seed=3))
        transform(sim_job)
        after = [task.duration_s for task in sim_job.map_tasks + sim_job.reduce_tasks]
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(before, after))


class TestInjectorMatchesTransform:
    """The replay engine's injector draws, per batch of jobs, exactly the
    per-task durations and stats the original task transform produced one
    task at a time."""

    def jobs(self):
        return [make_job("j%d" % i, maps=1 + (i * 7) % 13, reduces=(i * 5) % 4,
                         map_seconds=30.0 + 17.0 * i, reduce_seconds=11.0 * i)
                for i in range(40)]

    @pytest.mark.parametrize("speculation", [
        None, SpeculativeExecutionModel(), SpeculativeExecutionModel(enabled=False),
        SpeculativeExecutionModel(min_comparable_tasks=2, relaunch_overhead_s=1e3)])
    def test_same_durations_and_stats(self, speculation):
        model = StragglerModel(probability=0.3, slowdown_factor=4.0, seed=9)
        jobs = self.jobs()
        transform = straggler_task_transform(model, speculation)
        expected = []
        for job in jobs:
            sim_job = split_job(job)
            transform(sim_job)
            expected.append(([task.duration_s for task in sim_job.map_tasks],
                             [task.duration_s for task in sim_job.reduce_tasks]))
        injector = StragglerInjector(model, speculation)
        stages = [(split_job(job).map_tasks, split_job(job).reduce_tasks) for job in jobs]
        n_map = np.array([len(maps) for maps, _ in stages])
        n_reduce = np.array([len(reduces) for _, reduces in stages])
        map_duration = np.array([maps[0].duration_s if maps else 0.0 for maps, _ in stages])
        reduce_duration = np.array([reduces[0].duration_s if reduces else 0.0
                                    for _, reduces in stages])
        job_ids = np.array([job.job_id for job in jobs], dtype=object)
        # Two batches: the stream carries over from one draw to the next.
        slow = injector.draw(job_ids[:15], n_map[:15], map_duration[:15],
                             n_reduce[:15], reduce_duration[:15])
        later = injector.draw(job_ids[15:], n_map[15:], map_duration[15:],
                              n_reduce[15:], reduce_duration[15:])
        slow.update({(row + 15, kind): durations for (row, kind), durations in later.items()})
        drawn = [(slow.get((row, "map"), [map_duration[row]] * n_map[row]),
                  slow.get((row, "reduce"), [reduce_duration[row]] * n_reduce[row]))
                 for row in range(len(jobs))]
        assert drawn == expected
        assert slow, "no straggler was drawn"
        for name in ("tasks_seen", "stragglers_injected", "stragglers_rescued",
                     "stragglers_undetectable", "jobs_affected"):
            assert getattr(injector.stats, name) == getattr(transform.stats, name), name


class TestStragglerImpact:
    def _replay_pair(self, trace, probability):
        config = ClusterConfig(n_nodes=10)
        baseline = WorkloadReplayer(cluster_config=config).replay(trace)
        stats = StragglerInjectionStats()
        stragglers = StragglerInjector(
            StragglerModel(probability=probability, slowdown_factor=5.0, seed=2),
            SpeculativeExecutionModel(), stats)
        perturbed = WorkloadReplayer(cluster_config=config, stragglers=stragglers).replay(trace)
        return baseline, perturbed, stats

    def test_impact_of_injection_is_nonnegative(self):
        jobs = [make_job("small%d" % i, maps=1, reduces=0, map_seconds=30.0,
                         reduce_seconds=0.0, input_bytes=50 * MB, submit=i * 10.0)
                for i in range(20)]
        jobs += [make_job("large%d" % i, maps=60, reduces=20, map_seconds=3600.0,
                          reduce_seconds=1200.0, input_bytes=200 * GB, submit=i * 40.0)
                 for i in range(5)]
        trace = Trace(jobs, name="mixed", machines=10)
        baseline, perturbed, stats = self._replay_pair(trace, probability=0.5)
        impact = straggler_impact(baseline, perturbed, small_job_threshold_bytes=10 * GB)
        assert stats.stragglers_injected > 0
        assert impact.mean_slowdown_small >= 1.0 - 1e-9
        assert impact.mean_slowdown_large >= 1.0 - 1e-9
        assert 0.0 <= impact.fraction_small_affected <= 1.0

    def test_no_injection_means_no_slowdown(self):
        jobs = [make_job("j%d" % i, submit=i * 30.0) for i in range(10)]
        trace = Trace(jobs, name="clean", machines=10)
        baseline, perturbed, _ = self._replay_pair(trace, probability=0.0)
        impact = straggler_impact(baseline, perturbed)
        assert impact.mean_slowdown_small == pytest.approx(1.0)
        assert impact.fraction_small_affected == 0.0

    def test_disjoint_runs_rejected(self):
        trace_a = Trace([make_job("a")], name="a")
        trace_b = Trace([make_job("b")], name="b")
        config = ClusterConfig(n_nodes=5)
        metrics_a = WorkloadReplayer(cluster_config=config).replay(trace_a)
        metrics_b = WorkloadReplayer(cluster_config=config).replay(trace_b)
        with pytest.raises(SimulationError):
            straggler_impact(metrics_a, metrics_b)
