"""Tests for trace anonymization and aggregated-metrics export."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError, SchemaError, TraceFormatError
from repro.traces import (
    AggregatedMetrics,
    Anonymizer,
    Job,
    Trace,
    aggregate_trace,
    anonymize_trace,
)
from repro.units import GB, MB


class TestAnonymizer:
    def test_tokens_are_deterministic_and_salted(self):
        first = Anonymizer(salt="alpha")
        second = Anonymizer(salt="alpha")
        other_salt = Anonymizer(salt="beta")
        assert first.token("/data/users") == second.token("/data/users")
        assert first.token("/data/users") != other_salt.token("/data/users")

    def test_different_strings_get_different_tokens(self):
        anonymizer = Anonymizer()
        assert anonymizer.token("/a") != anonymizer.token("/b")

    def test_path_preserves_directory_depth(self):
        anonymizer = Anonymizer(preserve_directories=True)
        hashed = anonymizer.path("/warehouse/daily/part-0001")
        assert hashed.count("/") == 3
        assert "warehouse" not in hashed

    def test_flat_path_mode(self):
        anonymizer = Anonymizer(preserve_directories=False)
        hashed = anonymizer.path("/warehouse/daily/part-0001")
        assert hashed.count("/") == 1

    def test_none_passes_through(self):
        anonymizer = Anonymizer()
        assert anonymizer.path(None) is None
        assert anonymizer.name(None) is None

    def test_name_keeps_first_word_by_default(self):
        anonymizer = Anonymizer()
        hashed = anonymizer.name("insert overwrite table users_daily")
        assert hashed.startswith("insert ")
        assert "users_daily" not in hashed

    def test_name_fully_hashed_when_requested(self):
        anonymizer = Anonymizer()
        hashed = anonymizer.name("insert overwrite table users_daily", keep_first_word=False)
        assert not hashed.startswith("insert")

    def test_validation(self):
        with pytest.raises(SchemaError):
            Anonymizer(salt="")
        with pytest.raises(SchemaError):
            Anonymizer(token_length=2)

    @given(st.text(min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_token_is_stable_and_fixed_length(self, value):
        anonymizer = Anonymizer(token_length=12)
        token = anonymizer.token(value)
        assert token == anonymizer.token(value)
        assert len(token) == 12


class TestAnonymizeTrace:
    def test_numeric_dimensions_and_structure_preserved(self, tiny_trace):
        anonymized = anonymize_trace(tiny_trace, Anonymizer(salt="s"), hash_job_ids=True)
        assert len(anonymized) == len(tiny_trace)
        assert [job.input_bytes for job in anonymized] == [job.input_bytes for job in tiny_trace]
        assert [job.submit_time_s for job in anonymized] == [job.submit_time_s for job in tiny_trace]
        assert all(job.job_id.startswith("job_") for job in anonymized)

    def test_reaccess_structure_survives(self, tiny_trace):
        # /data/a is read by three jobs in the tiny trace; the anonymized trace
        # must keep those three reads pointing at one (hashed) path.
        anonymized = anonymize_trace(tiny_trace)
        original_counts = {}
        for job in tiny_trace:
            original_counts[job.input_path] = original_counts.get(job.input_path, 0) + 1
        hashed_counts = {}
        for job in anonymized:
            hashed_counts[job.input_path] = hashed_counts.get(job.input_path, 0) + 1
        assert sorted(original_counts.values()) == sorted(hashed_counts.values())
        assert "/data/a" not in hashed_counts

    def test_original_paths_do_not_leak(self, tiny_trace):
        anonymized = anonymize_trace(tiny_trace)
        for job in anonymized:
            assert job.input_path is None or "data" not in job.input_path
            assert job.output_path is None or "out" not in job.output_path

    def test_first_word_analysis_still_works(self, tiny_trace, analysis):
        anonymized = anonymize_trace(tiny_trace)
        naming = analysis(anonymized, "naming")
        assert dict(naming.by_jobs.shares).get("select", 0.0) > 0

    def test_first_word_can_be_hidden(self, tiny_trace):
        anonymized = anonymize_trace(tiny_trace, keep_first_word=False)
        assert all(not (job.name or "").startswith("select") for job in anonymized)


class TestAggregateTrace:
    def test_scalar_totals_match_trace_summary(self, tiny_trace):
        aggregate = aggregate_trace(tiny_trace)
        summary = tiny_trace.summary()
        assert aggregate.n_jobs == len(tiny_trace)
        assert aggregate.bytes_moved == pytest.approx(summary.bytes_moved)
        assert aggregate.total_task_seconds == pytest.approx(summary.total_task_seconds)
        assert aggregate.machines == 10

    def test_histograms_count_every_job(self, tiny_trace):
        aggregate = aggregate_trace(tiny_trace)
        for dimension, counts in aggregate.size_histograms.items():
            assert sum(counts) == len(tiny_trace), dimension
        assert sum(aggregate.duration_histogram) == len(tiny_trace)

    def test_hourly_series_cover_trace_span(self, tiny_trace):
        aggregate = aggregate_trace(tiny_trace)
        assert sum(aggregate.hourly_jobs) == len(tiny_trace)
        assert len(aggregate.hourly_jobs) == len(aggregate.hourly_bytes)
        assert len(aggregate.hourly_jobs) == len(aggregate.hourly_task_seconds)

    def test_first_word_counts(self, tiny_trace):
        aggregate = aggregate_trace(tiny_trace)
        assert aggregate.first_word_counts["select"] == 2
        assert aggregate.first_word_counts["insert"] == 1

    def test_no_per_job_records_in_export(self, tiny_trace):
        text = aggregate_trace(tiny_trace).to_json()
        assert "/data/a" not in text
        assert "j1" not in json.loads(text).get("first_word_counts", {})

    def test_empty_trace_rejected(self):
        with pytest.raises(AnalysisError):
            aggregate_trace(Trace([], name="empty"))

    def test_json_round_trip(self, tiny_trace):
        aggregate = aggregate_trace(tiny_trace)
        round_tripped = AggregatedMetrics.from_json(aggregate.to_json(indent=2))
        assert round_tripped.to_dict() == aggregate.to_dict()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(TraceFormatError):
            AggregatedMetrics.from_json("not json at all {")
        with pytest.raises(TraceFormatError):
            AggregatedMetrics.from_json(json.dumps({"workload": "x"}))

    def test_median_size_estimate_within_half_decade(self, cc_b_small_trace):
        import numpy as np
        aggregate = aggregate_trace(cc_b_small_trace)
        true_median = float(np.median(cc_b_small_trace.dimension("input_bytes")))
        estimate = aggregate.median_size("input_bytes")
        if true_median > 0 and estimate > 0:
            assert abs(np.log10(estimate) - np.log10(true_median)) <= 0.6

    def test_median_size_unknown_dimension_rejected(self, tiny_trace):
        with pytest.raises(AnalysisError):
            aggregate_trace(tiny_trace).median_size("nope")

    def test_peak_to_median_positive_for_bursty_series(self, cc_b_small_trace):
        aggregate = aggregate_trace(cc_b_small_trace)
        assert aggregate.peak_to_median_task_seconds() >= 1.0


class TestOffsitePipeline:
    def test_anonymize_then_aggregate_pipeline(self, tiny_trace):
        # The §8 pipeline: anonymize on-site, aggregate, ship JSON offsite.
        anonymized = anonymize_trace(tiny_trace, Anonymizer(salt="site-secret"))
        aggregate = aggregate_trace(anonymized, workload_name="site-A")
        payload = aggregate.to_json()
        received = AggregatedMetrics.from_json(payload)
        assert received.workload == "site-A"
        assert received.n_jobs == len(tiny_trace)
        assert "/data/a" not in payload
