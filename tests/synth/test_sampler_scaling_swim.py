"""Tests for empirical sampling, scale-down operations, and the SWIM synthesizer."""

import numpy as np
import pytest

from repro.errors import ScalingError, SynthesisError
from repro.synth import (
    ScalePlan,
    SwimSynthesizer,
    TraceSampler,
    scale_cluster,
    stratified_sample,
)
from repro.traces import Job, Trace
from repro.units import GB, HOUR


def build_trace(n_small=90, n_big=10):
    jobs = []
    for index in range(n_small):
        jobs.append(Job(job_id="s%d" % index, submit_time_s=index * 60.0, duration_s=30.0,
                        input_bytes=1e6, shuffle_bytes=0.0, output_bytes=1e5,
                        map_task_seconds=20.0, reduce_task_seconds=0.0,
                        cluster_label="Small jobs", input_path="/in/s%d" % (index % 7)))
    for index in range(n_big):
        jobs.append(Job(job_id="b%d" % index, submit_time_s=index * 600.0, duration_s=1800.0,
                        input_bytes=1e12, shuffle_bytes=5e11, output_bytes=1e11,
                        map_task_seconds=5e4, reduce_task_seconds=2e4,
                        cluster_label="Huge", input_path="/in/b%d" % index))
    return Trace(jobs, name="mix", machines=100)


class TestStratifiedSample:
    def test_preserves_strata_shares(self):
        trace = build_trace()
        sampled = stratified_sample(trace, 50, np.random.default_rng(0))
        labels = [job.cluster_label for job in sampled]
        assert len(sampled) == 50
        assert 0.8 <= labels.count("Small jobs") / 50 <= 0.95
        assert labels.count("Huge") >= 1

    def test_every_stratum_survives_tiny_samples(self):
        sampled = stratified_sample(build_trace(), 2, np.random.default_rng(0))
        assert {job.cluster_label for job in sampled} == {"Small jobs", "Huge"}

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(SynthesisError):
            stratified_sample(Trace([], name="e"), 5, np.random.default_rng(0))
        with pytest.raises(SynthesisError):
            stratified_sample(build_trace(), 0, np.random.default_rng(0))


class TestTraceSampler:
    def test_sample_counts_and_horizon(self):
        sampler = TraceSampler(build_trace(), seed=1)
        synthetic = sampler.sample(200, horizon_s=2 * HOUR)
        assert len(synthetic) == 200
        assert synthetic.submit_times().max() < 2 * HOUR
        assert synthetic.jobs[0].job_id.startswith("synth_")

    def test_deterministic(self):
        a = TraceSampler(build_trace(), seed=3).sample(50, HOUR)
        b = TraceSampler(build_trace(), seed=3).sample(50, HOUR)
        assert [job.to_dict() for job in a] == [job.to_dict() for job in b]

    def test_rejects_empty_source_and_bad_horizon(self):
        with pytest.raises(SynthesisError):
            TraceSampler(Trace([], name="e"))
        with pytest.raises(SynthesisError):
            TraceSampler(build_trace()).sample(10, 0.0)


class TestScaleCluster:
    def test_data_scaled_by_machine_ratio(self):
        trace = build_trace()
        scaled, plan = scale_cluster(trace, source_machines=100, target_machines=10)
        assert plan.factor == pytest.approx(0.1)
        assert scaled.machines == 10
        assert scaled.bytes_moved() == pytest.approx(0.1 * trace.bytes_moved(), rel=1e-6)
        # Durations and submit times are untouched.
        assert scaled.submit_times().tolist() == trace.submit_times().tolist()

    def test_invalid_machines(self):
        with pytest.raises(ScalingError):
            scale_cluster(build_trace(), 0, 10)

    @pytest.mark.parametrize("source,target", [(10, 0), (-5, 10)])
    def test_nonpositive_machine_counts_rejected(self, source, target):
        with pytest.raises(ScalingError, match="must be positive"):
            scale_cluster(build_trace(), source, target)

    def test_task_counts_scaled_and_map_tasks_kept_positive(self):
        trace = Trace([
            Job(job_id="j", submit_time_s=0.0, duration_s=60.0, input_bytes=1e9,
                shuffle_bytes=1e8, output_bytes=1e7, map_task_seconds=100.0,
                reduce_task_seconds=50.0, map_tasks=3, reduce_tasks=4),
        ], name="one", machines=100)
        scaled, _plan = scale_cluster(trace, source_machines=100, target_machines=10)
        job = scaled.jobs[0]
        assert (job.map_tasks, job.reduce_tasks) == (1, 0)
        assert job.map_task_seconds == pytest.approx(10.0)
        assert job.reduce_task_seconds == pytest.approx(5.0)
        assert job.duration_s == 60.0

    def test_unrecorded_dimensions_stay_unrecorded(self):
        trace = Trace([
            Job(job_id="j", submit_time_s=0.0, duration_s=60.0, input_bytes=1e9,
                shuffle_bytes=None, output_bytes=None, map_task_seconds=None,
                reduce_task_seconds=None),
        ], name="sparse", machines=50)
        job = scale_cluster(trace, 50, 100)[0].jobs[0]
        assert job.input_bytes == pytest.approx(2e9)
        assert job.shuffle_bytes is None and job.output_bytes is None
        assert job.map_task_seconds is None and job.map_tasks is None

    def test_plan_records_the_cluster_step(self):
        trace = build_trace()
        scaled, plan = scale_cluster(trace, source_machines=100, target_machines=400)
        assert scaled.name == "mix-x400nodes"
        assert (plan.method, plan.factor) == ("cluster", 4.0)
        assert plan.source_jobs == plan.result_jobs == len(trace)
        assert "from 100 to 400 machines" in plan.notes


class TestSwimSynthesizer:
    def test_plan_contents(self):
        source = build_trace(n_small=500, n_big=20)
        plan = SwimSynthesizer(source, seed=0).synthesize(
            n_jobs=300, horizon_s=2 * HOUR, target_machines=10)
        assert len(plan.trace) == 300
        assert plan.target_machines == 10
        assert plan.layout.n_files > 0
        assert plan.layout.total_bytes > 0
        assert len(plan.scale_plans) == 2  # load resample + cluster scaling
        assert "Synthetic workload" in plan.describe()

    def test_small_job_share_preserved(self):
        source = build_trace(n_small=950, n_big=50)
        plan = SwimSynthesizer(source, seed=1).synthesize(n_jobs=400, horizon_s=HOUR)
        source_share = np.mean([job.total_bytes <= 10 * GB for job in source])
        synth_share = np.mean([job.total_bytes <= 10 * GB for job in plan.trace])
        assert abs(source_share - synth_share) < 0.1

    def test_no_cluster_scaling_when_target_matches(self):
        plan = SwimSynthesizer(build_trace(), seed=0).synthesize(
            n_jobs=50, horizon_s=HOUR, target_machines=100)
        assert len(plan.scale_plans) == 1

    def test_requires_known_source_machines(self):
        trace = build_trace()
        trace.machines = None
        with pytest.raises(SynthesisError):
            SwimSynthesizer(trace)

    def test_invalid_arguments(self):
        synthesizer = SwimSynthesizer(build_trace(), seed=0)
        with pytest.raises(SynthesisError):
            synthesizer.synthesize(n_jobs=0, horizon_s=HOUR)
        with pytest.raises(SynthesisError):
            synthesizer.synthesize(n_jobs=10, horizon_s=0.0)
        with pytest.raises(SynthesisError):
            SwimSynthesizer(Trace([], name="e"))


class TestScalePlan:
    def test_describe_mentions_method_and_counts(self):
        plan = ScalePlan(source_name="x", method="load", factor=0.5,
                         source_jobs=100, result_jobs=50, notes="test")
        text = plan.describe()
        assert "load" in text and "100" in text and "50" in text
