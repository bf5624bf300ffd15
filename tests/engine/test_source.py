"""Tests for TraceSource — the uniform wrapper over trace representations."""

import numpy as np
import pytest

from repro.engine import ChunkedTraceStore, ColumnarTrace, Query, TraceSource
from repro.errors import AnalysisError
from repro.traces import Job, Trace


@pytest.fixture(scope="module")
def store(tmp_path_factory, _module_trace):
    directory = tmp_path_factory.mktemp("source") / "trace.store"
    return ChunkedTraceStore.write(directory, _module_trace, chunk_rows=7,
                                   name=_module_trace.name)


@pytest.fixture(scope="module")
def _module_trace():
    jobs = [
        Job(job_id="s%03d" % index, submit_time_s=180.0 * index, duration_s=60.0,
            input_bytes=1e6 * (index + 1), shuffle_bytes=0.0 if index % 3 else 5e5,
            output_bytes=2e5, map_task_seconds=30.0, reduce_task_seconds=0.0,
            input_path="/in/%d" % (index % 5), name="select q%d" % index)
        for index in range(50)
    ]
    return Trace(jobs, name="src-test", machines=12)


class TestWrap:
    def test_wrap_each_representation(self, _module_trace, store):
        for backing in (_module_trace, _module_trace.to_columnar(), store):
            source = TraceSource.wrap(backing)
            assert len(source) == 50
            assert source.name == "src-test"
        assert TraceSource.wrap(store).machines == 12
        assert TraceSource.wrap(_module_trace).machines == 12

    def test_wrap_is_idempotent(self, _module_trace):
        source = TraceSource.wrap(_module_trace)
        assert TraceSource.wrap(source) is source

    def test_streaming_flag(self, _module_trace, store):
        assert not TraceSource.wrap(_module_trace).is_streaming
        assert not TraceSource.wrap(_module_trace.to_columnar()).is_streaming
        assert TraceSource.wrap(store).is_streaming

    def test_rejects_unknown_types(self):
        with pytest.raises(AnalysisError):
            TraceSource.wrap([1, 2, 3])

    def test_materialize_is_identity_for_traces(self, _module_trace):
        assert TraceSource.wrap(_module_trace).materialize() is _module_trace


class TestScans:
    def test_iter_chunks_prunes_columns(self, store):
        source = TraceSource.wrap(store)
        blocks = list(source.iter_chunks(columns=["input_bytes"]))
        assert len(blocks) == store.n_chunks
        assert all(set(block.columns) == {"input_bytes"} for block in blocks)

    def test_dimension_concatenates_chunks(self, _module_trace, store):
        exact = TraceSource.wrap(_module_trace).dimension("input_bytes")
        streamed = TraceSource.wrap(store).dimension("input_bytes")
        assert np.array_equal(exact, streamed)

    def test_query_matches_across_representations(self, _module_trace, store):
        query = Query().filter("input_bytes", ">", 2e7).count("n")
        for backing in (_module_trace, store):
            result = TraceSource.wrap(backing).query(query)
            assert result.aggregates["n"] == sum(
                1 for job in _module_trace if job.input_bytes > 2e7)

    def test_has_column(self, store):
        source = TraceSource.wrap(store)
        assert source.has_column("input_bytes")
        assert source.has_column("total_bytes")        # derived
        assert source.has_column("submit_hour")        # derived
        assert not source.has_column("output_path")    # never recorded


class TestGather:
    def test_gather_matches_direct_indexing(self, _module_trace, store, gather_rows):
        indices = [0, 3, 7, 31, 49]
        expected = [_module_trace.jobs[index].input_bytes for index in indices]
        for backing in (_module_trace, store):
            gathered = gather_rows(backing, indices)
            assert isinstance(gathered, ColumnarTrace)
            assert gathered.dimension("input_bytes").tolist() == expected

    def test_gather_rejects_unsorted(self, store, gather_rows):
        with pytest.raises(AnalysisError):
            gather_rows(store, [5, 2])

    def test_gather_rejects_out_of_range(self, store, gather_rows):
        with pytest.raises(AnalysisError):
            gather_rows(store, [0, 500])


class TestSummaries:
    def test_summary_matches_trace_summary(self, _module_trace, store, analysis):
        exact = _module_trace.summary()
        for backing in (_module_trace.to_columnar(), store):
            summary = analysis(backing, "summary")
            assert summary.n_jobs == exact.n_jobs
            assert summary.length_s == pytest.approx(exact.length_s)
            assert summary.bytes_moved == pytest.approx(exact.bytes_moved)
            assert summary.total_task_seconds == pytest.approx(exact.total_task_seconds)

    def test_time_bounds(self, _module_trace, store):
        for backing in (_module_trace, store):
            start, end = TraceSource.wrap(backing).time_bounds()
            assert start == 0.0
            assert end == pytest.approx(49 * 180.0 + 60.0)

    def test_hourly_groups_counts(self, _module_trace, store):
        for backing in (_module_trace, store):
            groups = TraceSource.wrap(backing).hourly_groups(
                n=("count", "submit_time_s"))
            total = sum(values["n"] for values in groups.values())
            assert total == len(_module_trace)
            assert set(groups) == {int(job.submit_time_s // 3600) for job in _module_trace}

    def test_feature_batches_stack_to_feature_matrix(self, _module_trace, store):
        exact = _module_trace.feature_matrix()
        for backing in (_module_trace, store):
            source = TraceSource.wrap(backing)
            stacked = np.vstack(list(source.feature_batches()))
            assert np.array_equal(stacked, exact)
            assert np.array_equal(source.feature_matrix(), exact)


class TestSortedGuard:
    @pytest.fixture()
    def unsorted_store(self, tmp_path):
        jobs = [
            Job(job_id="u%d" % index, submit_time_s=float(submit), duration_s=10.0,
                input_bytes=1e6, shuffle_bytes=0.0, output_bytes=1e5,
                map_task_seconds=5.0, reduce_task_seconds=0.0,
                input_path="/p/%d" % (index % 3))
            for index, submit in enumerate([500.0, 100.0, 900.0, 50.0])
        ]
        return ChunkedTraceStore.write(tmp_path / "unsorted.store", iter(jobs),
                                       chunk_rows=2)

    def test_reaccess_analyses_reject_unsorted_store(self, unsorted_store, analysis):
        with pytest.raises(AnalysisError, match="not sorted"):
            analysis(unsorted_store, "reaccess_intervals")
        with pytest.raises(AnalysisError, match="not sorted"):
            analysis(unsorted_store, "reaccess_fractions")


class TestDerivedSubmitHour:
    def test_block_level_submit_hour(self, _module_trace):
        block = _module_trace.to_columnar().block
        hours = block.column("submit_hour")
        assert np.array_equal(hours, np.floor(block.column("submit_time_s") / 3600.0))

    def test_store_expands_submit_hour_to_submit_time(self, store):
        blocks = list(store.iter_chunks(columns=["submit_hour"]))
        assert all("submit_time_s" in block.columns for block in blocks)
        assert all(block.has_column("submit_hour") for block in blocks)
