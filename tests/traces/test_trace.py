"""Unit tests for the Trace container."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.traces import Job, Trace


def job_at(t, job_id, **overrides):
    base = dict(job_id=job_id, submit_time_s=t, duration_s=10.0, input_bytes=100.0,
                shuffle_bytes=10.0, output_bytes=1.0, map_task_seconds=5.0,
                reduce_task_seconds=1.0)
    base.update(overrides)
    return Job(**base)


@pytest.fixture()
def trace():
    return Trace([job_at(30, "c"), job_at(10, "a"), job_at(20, "b")], name="t", machines=5)


class TestContainer:
    def test_jobs_sorted_by_submit_time(self, trace):
        assert [job.job_id for job in trace] == ["a", "b", "c"]

    def test_len_and_indexing(self, trace):
        assert len(trace) == 3
        assert trace[0].job_id == "a"

    def test_slice_returns_trace(self, trace):
        sliced = trace[:2]
        assert isinstance(sliced, Trace)
        assert len(sliced) == 2
        assert sliced.name == "t"

    def test_empty_trace(self):
        empty = Trace([], name="empty")
        assert empty.is_empty()
        assert empty.duration_s() == 0.0
        assert empty.summary().n_jobs == 0


class TestAccessors:
    def test_submit_times(self, trace):
        assert trace.submit_times().tolist() == [10.0, 20.0, 30.0]

    def test_dimension_array(self, trace):
        assert trace.dimension("input_bytes").tolist() == [100.0, 100.0, 100.0]

    def test_dimension_unknown_raises(self, trace):
        with pytest.raises(AnalysisError):
            trace.dimension("not_a_dimension")

    def test_feature_matrix_shape(self, trace):
        assert trace.feature_matrix().shape == (3, 6)

    def test_feature_matrix_empty(self):
        assert Trace([], name="e").feature_matrix().shape == (0, 6)


class TestColumnCache:
    def test_repeat_extraction_returns_cached_array(self, trace):
        first = trace.dimension("input_bytes")
        second = trace.dimension("input_bytes")
        assert first is second  # no re-walk of the job list

    def test_cached_arrays_are_read_only(self, trace):
        values = trace.dimension("input_bytes")
        with pytest.raises(ValueError):
            values[0] = 999.0

    def test_submit_times_uses_cache(self, trace):
        assert trace.submit_times() is trace.submit_times()

    def test_feature_matrix_is_fresh_and_writable(self, trace):
        matrix = trace.feature_matrix()
        matrix[0, 0] = -1.0  # callers may standardize in place
        assert trace.feature_matrix()[0, 0] != -1.0

    def test_derived_traces_have_independent_caches(self, trace):
        cached = trace.dimension("input_bytes")
        filtered = trace.filter(lambda job: job.submit_time_s >= 20)
        assert filtered.dimension("input_bytes").shape == (2,)
        assert trace.dimension("input_bytes") is cached

    def test_to_columnar_matches_dimensions(self, trace):
        columnar = trace.to_columnar()
        for dim in ("input_bytes", "submit_time_s", "total_bytes"):
            np.testing.assert_allclose(columnar.dimension(dim), trace.dimension(dim))


class TestFilters:
    def test_filter_predicate(self, trace):
        filtered = trace.filter(lambda job: job.submit_time_s >= 20)
        assert len(filtered) == 2

    def test_merge_sorts_and_keeps_jobs(self, trace):
        other = Trace([job_at(15, "z")], name="o")
        merged = trace.merge(other)
        assert [job.job_id for job in merged] == ["a", "z", "b", "c"]

    def test_shifted_moves_submit_times(self, trace):
        shifted = trace.shifted(100.0)
        assert shifted.submit_times().tolist() == [110.0, 120.0, 130.0]
        # The original trace is untouched.
        assert trace.submit_times().tolist() == [10.0, 20.0, 30.0]


class TestSummary:
    def test_summary_fields(self, trace):
        summary = trace.summary()
        assert summary.n_jobs == 3
        assert summary.machines == 5
        assert summary.start_s == 10.0
        assert summary.end_s == 40.0  # last submit 30 + duration 10
        assert summary.length_s == 30.0
        assert summary.bytes_moved == pytest.approx(3 * 111.0)
        assert summary.total_task_seconds == pytest.approx(3 * 6.0)

    def test_bytes_moved_matches_sum(self, trace):
        assert trace.bytes_moved() == pytest.approx(sum(job.total_bytes for job in trace))

    def test_summary_as_row_strings(self, trace):
        row = trace.summary().as_row()
        assert row[0] == "t"
        assert all(isinstance(cell, str) for cell in row)
