"""Unit tests for the shared-scan pipeline (engine/pipeline.py)."""

import numpy as np
import pytest

from repro.engine import (
    ChunkConsumer,
    ChunkedTraceStore,
    ParallelExecutor,
    ScanPipeline,
    SummaryConsumer,
    fold_consumer,
)
from repro.errors import AnalysisError
from repro.traces import Job, Trace


def _jobs(n, dt=10.0):
    for index in range(n):
        yield Job(job_id="j%05d" % index, submit_time_s=index * dt, duration_s=30.0,
                  input_bytes=float(index + 1), shuffle_bytes=0.0, output_bytes=1.0,
                  map_task_seconds=5.0, reduce_task_seconds=0.0,
                  input_path="/p/%d" % (index % 7), output_path="/o/%d" % (index % 3))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pipeline") / "jobs.store"
    return ChunkedTraceStore.write(directory, _jobs(1000), chunk_rows=100)


class SumInputBytes(ChunkConsumer):
    """Toy consumer: sum of input_bytes plus a row count."""

    columns = ("input_bytes",)

    def __init__(self, name="sum_bytes"):
        self.name = name

    def make_state(self):
        return {"total": 0.0, "rows": 0}

    def fold(self, state, chunk):
        state["total"] += float(np.nansum(chunk.column("input_bytes")))
        state["rows"] += chunk.n_rows
        return state

    def merge(self, a, b):
        a["total"] += b["total"]
        a["rows"] += b["rows"]
        return a


class FirstRowTimes(ChunkConsumer):
    """Ordered consumer recording each chunk's first submit time in order."""

    ordered = True
    columns = ("submit_time_s",)

    def __init__(self, name="first_rows"):
        self.name = name

    def make_state(self):
        return []

    def fold(self, state, chunk):
        state.append(float(chunk.column("submit_time_s")[0]))
        return state


class Exploding(ChunkConsumer):
    columns = ("input_bytes",)

    def __init__(self, name="exploding"):
        self.name = name

    def make_state(self):
        return None

    def fold(self, state, chunk):
        raise AnalysisError("boom")


class TestSerialPipeline:
    def test_multiple_consumers_one_scan(self, store):
        pipeline = ScanPipeline(store)
        pipeline.add(SumInputBytes())
        pipeline.add(SummaryConsumer(trace_name=store.name))
        result = pipeline.run()
        assert result.chunks_scanned == store.n_chunks
        assert result.rows_scanned == 1000
        assert result.value("sum_bytes")["total"] == sum(range(1, 1001))
        assert result.value("summary").n_jobs == 1000

    def test_column_union(self, store):
        pipeline = ScanPipeline(store)
        pipeline.add(SumInputBytes())
        pipeline.add(FirstRowTimes())
        assert set(pipeline.columns()) == {"input_bytes", "submit_time_s"}

    def test_all_columns_consumer_forces_full_decode(self, store):
        class EveryColumn(SumInputBytes):
            columns = None

        pipeline = ScanPipeline(store)
        pipeline.add(SumInputBytes())
        pipeline.add(EveryColumn(name="every"))
        assert pipeline.columns() is None  # one consumer wants every stored column

    def test_duplicate_names_rejected(self, store):
        pipeline = ScanPipeline(store)
        pipeline.add(SumInputBytes())
        with pytest.raises(AnalysisError):
            pipeline.add(SumInputBytes())

    def test_missing_column_isolated(self, store):
        class NeedsMissing(ChunkConsumer):
            columns = ("no_such_column",)
            name = "missing"

            def make_state(self):
                return None

            def fold(self, state, chunk):
                return state

        pipeline = ScanPipeline(store)
        pipeline.add(SumInputBytes())
        pipeline.add(NeedsMissing())
        result = pipeline.run()
        assert result.value("sum_bytes")["rows"] == 1000
        with pytest.raises(AnalysisError, match="no_such_column"):
            result.value("missing")

    def test_fold_error_isolated(self, store):
        pipeline = ScanPipeline(store)
        pipeline.add(Exploding())
        pipeline.add(SumInputBytes())
        result = pipeline.run()
        assert result.value("sum_bytes")["rows"] == 1000
        with pytest.raises(AnalysisError, match="boom"):
            result.value("exploding")

    def test_ordered_consumer_sees_chunks_in_order(self, store):
        pipeline = ScanPipeline(store)
        pipeline.add(FirstRowTimes())
        times = pipeline.run().value("first_rows")
        assert times == sorted(times)
        assert len(times) == store.n_chunks

    def test_unsorted_store_fails_ordered_only(self, tmp_path):
        jobs = list(_jobs(50))
        jobs.reverse()  # decreasing submit times
        directory = tmp_path / "unsorted.store"
        ChunkedTraceStore.write(directory, iter(jobs), chunk_rows=10)
        pipeline = ScanPipeline(ChunkedTraceStore(directory))
        pipeline.add(FirstRowTimes())
        pipeline.add(SumInputBytes())
        result = pipeline.run()
        assert result.value("sum_bytes")["rows"] == 50
        with pytest.raises(AnalysisError, match="not sorted by submit time"):
            result.value("first_rows")

    def test_materialized_source(self, store):
        trace = store.to_trace()
        serial = fold_consumer(trace, SumInputBytes())
        assert serial["total"] == sum(range(1, 1001))


class TestParallelPipeline:
    def test_parallel_matches_serial(self, store):
        def build(executor):
            pipeline = ScanPipeline(store, executor=executor)
            pipeline.add(SumInputBytes())
            pipeline.add(SummaryConsumer(trace_name=store.name))
            pipeline.add(FirstRowTimes())
            return pipeline.run()

        serial = build(None)
        parallel = build(ParallelExecutor(processes=3))
        assert parallel.value("sum_bytes") == serial.value("sum_bytes")
        assert parallel.value("summary") == serial.value("summary")
        assert parallel.value("first_rows") == serial.value("first_rows")
        assert parallel.chunks_scanned == store.n_chunks

    def test_parallel_error_isolated(self, store):
        pipeline = ScanPipeline(store, executor=ParallelExecutor(processes=2))
        pipeline.add(Exploding())
        pipeline.add(SumInputBytes())
        result = pipeline.run()
        assert result.value("sum_bytes")["total"] == sum(range(1, 1001))
        with pytest.raises(AnalysisError, match="boom"):
            result.value("exploding")


class TestWorkerStoreReuse:
    def test_get_worker_store_caches_and_reopens(self, store, tmp_path):
        from repro.engine import get_worker_store

        first = get_worker_store(store.directory)
        assert get_worker_store() is first
        assert get_worker_store(store.directory) is first
        other_dir = tmp_path / "other.store"
        ChunkedTraceStore.write(other_dir, _jobs(10), chunk_rows=5)
        other = get_worker_store(str(other_dir))
        assert other is not first
        assert other.directory == str(other_dir)
