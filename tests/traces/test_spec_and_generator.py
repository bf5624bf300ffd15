"""Tests for workload specs, the registry, and spec-driven trace generation."""

import numpy as np
import pytest

from repro.errors import SpecError
from repro.traces import (
    AccessSpec,
    ArrivalSpec,
    CC_B,
    FB_2009,
    FB_2010,
    JobClassSpec,
    NameMixEntry,
    PAPER_WORKLOAD_NAMES,
    SpecTraceGenerator,
    WorkloadSpec,
    generate_trace,
    get_spec,
    load_workload,
)
from repro.units import GB, HOUR, MB, TB


class TestJobClassSpec:
    def test_from_table_row_parses_units(self):
        row = JobClassSpec.from_table_row("Aggregate", 31, "4.7 TB", "374 MB", "24 MB",
                                          "9 min", 876786, 705)
        assert row.input_bytes == pytest.approx(4.7 * TB)
        assert row.shuffle_bytes == pytest.approx(374 * MB)
        assert row.duration_s == pytest.approx(9 * 60)

    def test_compound_duration(self):
        row = JobClassSpec.from_table_row("x", 1, "1 MB", "0", "1 MB", "4 hrs 30 min", 10, 0)
        assert row.duration_s == pytest.approx(4.5 * 3600)

    def test_map_only_detection(self):
        row = JobClassSpec.from_table_row("x", 1, "1 MB", "0", "1 MB", "1 min", 10, 0)
        assert row.is_map_only

    def test_invalid_count_rejected(self):
        with pytest.raises(SpecError):
            JobClassSpec.from_table_row("x", 0, "1 MB", "0", "1 MB", "1 min", 10, 0)


class TestWorkloadSpecs:
    def test_all_paper_specs_present(self):
        specs = [get_spec(name) for name in PAPER_WORKLOAD_NAMES]
        assert [spec.name for spec in specs] == list(PAPER_WORKLOAD_NAMES)

    def test_paper_job_counts_match_table1(self):
        # Table 1 job counts are the sums of the Table 2 class populations.
        expected = {"CC-a": 5759, "CC-b": 22974, "CC-c": 21030, "CC-d": 13283,
                    "CC-e": 10790, "FB-2009": 1129193, "FB-2010": 1169184}
        for spec in map(get_spec, PAPER_WORKLOAD_NAMES):
            assert spec.total_jobs == expected[spec.name]

    def test_missing_dimensions_encoded(self):
        assert not FB_2010.has_names
        assert not FB_2009.has_input_paths
        assert not get_spec("CC-a").has_input_paths

    def test_scaled_counts_keep_every_class(self):
        counts = FB_2009.scaled_counts(0.001)
        assert len(counts) == len(FB_2009.job_classes)
        assert all(count >= 1 for count in counts)

    def test_scaled_counts_invalid_scale(self):
        with pytest.raises(SpecError):
            FB_2009.scaled_counts(0.0)

    def test_name_mix_weights_are_normalized(self):
        entries, weights = CC_B.name_mix_weights()
        assert entries == list(CC_B.name_mix)
        assert sum(weights) == pytest.approx(1.0)
        total = sum(entry.weight for entry in entries)
        assert weights == pytest.approx([entry.weight / total for entry in entries])

    def test_name_mix_weights_empty_without_names(self):
        assert FB_2010.has_names is False
        assert FB_2010.name_mix_weights() == ([], [])

    def test_spec_requires_name_mix_when_named(self):
        with pytest.raises(SpecError):
            WorkloadSpec(name="x", machines=1, trace_length_s=HOUR,
                         job_classes=(JobClassSpec("c", 1, 1, 0, 1, 1, 1, 0),),
                         name_mix=(), has_names=True)

    def test_arrival_and_access_validation(self):
        with pytest.raises(SpecError):
            ArrivalSpec(diurnal_amplitude=2.0)
        with pytest.raises(SpecError):
            AccessSpec(zipf_slope=-1.0)
        with pytest.raises(SpecError):
            NameMixEntry("", "hive", 0.5)


class TestRegistry:
    def test_get_spec_unknown_raises(self):
        with pytest.raises(SpecError):
            get_spec("nope")


class TestGeneration:
    def test_deterministic_given_seed(self):
        a = generate_trace(CC_B, seed=5, scale=0.05)
        b = generate_trace(CC_B, seed=5, scale=0.05)
        assert [job.to_dict() for job in a] == [job.to_dict() for job in b]

    def test_different_seeds_differ(self):
        a = generate_trace(CC_B, seed=1, scale=0.05)
        b = generate_trace(CC_B, seed=2, scale=0.05)
        assert [job.job_id for job in a] == [job.job_id for job in b]
        assert a.bytes_moved() != b.bytes_moved()

    def test_job_count_matches_scaled_spec(self):
        trace = generate_trace(CC_B, seed=0, scale=0.1)
        assert len(trace) == sum(CC_B.scaled_counts(0.1))

    def test_submit_times_within_horizon_and_sorted(self):
        trace = generate_trace(CC_B, seed=0, scale=0.05)
        times = trace.submit_times()
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0
        assert times.max() < CC_B.trace_length_s

    def test_time_scale_compresses_horizon(self):
        trace = generate_trace(CC_B, seed=0, scale=0.05, time_scale=0.25)
        assert trace.submit_times().max() < 0.25 * CC_B.trace_length_s + 1

    def test_invalid_scale_rejected(self):
        with pytest.raises(SpecError):
            SpecTraceGenerator(CC_B, scale=-1)
        with pytest.raises(SpecError):
            SpecTraceGenerator(CC_B, time_scale=0)

    def test_missing_dimensions_respected(self):
        fb2009 = generate_trace(FB_2009, seed=0, scale=0.0005)
        assert all(job.input_path is None for job in fb2009)
        assert all(job.output_path is None for job in fb2009)
        assert all(job.name is not None for job in fb2009)
        fb2010 = generate_trace(FB_2010, seed=0, scale=0.0005)
        assert all(job.name is None for job in fb2010)
        assert all(job.input_path is not None for job in fb2010)
        assert all(job.output_path is None for job in fb2010)

    def test_cluster_labels_follow_spec_classes(self):
        trace = generate_trace(CC_B, seed=0, scale=0.05)
        labels = {job.cluster_label for job in trace}
        assert labels == {job_class.label for job_class in CC_B.job_classes}

    def test_map_only_classes_stay_map_only(self):
        trace = generate_trace(CC_B, seed=0, scale=0.05)
        for job in trace:
            if job.cluster_label == "Small jobs":
                assert job.shuffle_bytes == 0.0
                assert job.reduce_task_seconds == 0.0

    def test_bytes_moved_within_factor_of_spec_expectation(self):
        trace = generate_trace(CC_B, seed=0, scale=1.0)
        expected = sum(job_class.count * (job_class.input_bytes + job_class.shuffle_bytes
                                          + job_class.output_bytes)
                       for job_class in CC_B.job_classes)
        assert 0.2 * expected < trace.bytes_moved() < 5.0 * expected

    def test_names_drawn_from_mix(self):
        trace = generate_trace(CC_B, seed=0, scale=0.05)
        allowed = {entry.first_word for entry in CC_B.name_mix}
        observed = {job.first_word for job in trace}
        assert observed <= allowed

    def test_load_workload_default_scales(self):
        trace = load_workload("FB-2009", seed=0, scale=0.001)
        assert 900 < len(trace) < 1500
