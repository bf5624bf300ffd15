"""Property-style round-trip tests: Trace <-> ColumnarTrace <-> chunked store."""

import numpy as np
import pytest

from repro.engine import ChunkedTraceStore, ColumnarTrace
from repro.errors import AnalysisError, TraceFormatError
from repro.traces import Job, Trace, iter_jsonl, load_workload, write_jsonl


def random_trace(seed, n_jobs=257, name="rt", machines=7):
    """A trace exercising every optional-field combination the schema allows."""
    rng = np.random.default_rng(seed)
    jobs = []
    for index in range(n_jobs):
        has_reduce = rng.random() < 0.6
        jobs.append(Job(
            job_id="job_%05d" % index,
            submit_time_s=float(rng.uniform(0, 86400)),
            duration_s=float(rng.lognormal(4, 2)),
            input_bytes=float(rng.lognormal(18, 4)),
            shuffle_bytes=float(rng.lognormal(15, 4)) if has_reduce else 0.0,
            output_bytes=float(rng.lognormal(14, 4)),
            map_task_seconds=float(rng.lognormal(5, 2)),
            reduce_task_seconds=float(rng.lognormal(4, 2)) if has_reduce else 0.0,
            map_tasks=int(rng.integers(1, 500)) if rng.random() < 0.8 else None,
            reduce_tasks=int(rng.integers(0, 100)) if rng.random() < 0.8 else None,
            name="wordcount step%d" % index if rng.random() < 0.5 else None,
            framework=str(rng.choice(["hive", "pig", "oozie", "native"]))
            if rng.random() < 0.7 else None,
            input_path="/data/part-%d" % rng.integers(0, 40) if rng.random() < 0.5 else None,
            output_path="/out/part-%d" % rng.integers(0, 40) if rng.random() < 0.3 else None,
            workload="RT" if rng.random() < 0.5 else None,
            cluster_label="c%d" % rng.integers(0, 5) if rng.random() < 0.2 else None,
        ))
    return Trace(jobs, name=name, machines=machines)


def assert_traces_equal(actual, expected):
    assert len(actual) == len(expected)
    assert actual.name == expected.name
    assert actual.machines == expected.machines
    for job_a, job_b in zip(actual.jobs, expected.jobs):
        assert job_a.to_dict() == job_b.to_dict()


class TestInMemoryRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_to_columnar_to_trace(self, seed):
        trace = random_trace(seed)
        assert_traces_equal(trace.to_columnar().to_trace(), trace)

    def test_empty_trace(self):
        trace = Trace([], name="empty", machines=None)
        columnar = trace.to_columnar()
        assert len(columnar) == 0 and columnar.is_empty()
        assert_traces_equal(columnar.to_trace(), trace)

    def test_columnar_accessors_match_trace(self):
        trace = random_trace(3)
        columnar = trace.to_columnar()
        for dim in ("input_bytes", "shuffle_bytes", "duration_s", "submit_time_s",
                    "total_bytes", "total_task_seconds"):
            np.testing.assert_allclose(columnar.dimension(dim), trace.dimension(dim))
        np.testing.assert_allclose(columnar.feature_matrix(), trace.feature_matrix())
        assert columnar.bytes_moved() == pytest.approx(trace.bytes_moved())
        assert columnar.total_task_seconds() == pytest.approx(trace.total_task_seconds())
        assert columnar.duration_s() == pytest.approx(trace.duration_s())

    def test_unknown_dimension_raises(self):
        with pytest.raises(AnalysisError):
            random_trace(0, n_jobs=3).to_columnar().dimension("nope")

    def test_direct_construction_sorts_by_submit_time(self):
        """The documented dict constructor must establish the sort invariant."""
        columnar = ColumnarTrace({
            "submit_time_s": [100.0, 0.0, 50.0],
            "duration_s": [1.0, 2.0, 3.0],
            "input_bytes": [10.0, 20.0, 30.0],
            "shuffle_bytes": [0.0, 0.0, 0.0],
            "output_bytes": [0.0, 0.0, 0.0],
            "map_task_seconds": [1.0, 1.0, 1.0],
            "reduce_task_seconds": [0.0, 0.0, 0.0],
            "job_id": ["late", "early", "mid"],
        })
        assert list(columnar.columns["job_id"]) == ["early", "mid", "late"]
        assert columnar.duration_s() == pytest.approx(101.0)  # 0 .. 100+1

    def test_from_jobs_sorts_by_submit_time(self):
        jobs = [
            Job(job_id="late", submit_time_s=100.0, duration_s=1.0, input_bytes=1.0,
                shuffle_bytes=0.0, output_bytes=1.0, map_task_seconds=1.0,
                reduce_task_seconds=0.0),
            Job(job_id="early", submit_time_s=5.0, duration_s=1.0, input_bytes=1.0,
                shuffle_bytes=0.0, output_bytes=1.0, map_task_seconds=1.0,
                reduce_task_seconds=0.0),
        ]
        columnar = ColumnarTrace.from_jobs(jobs)
        assert list(columnar.columns["job_id"]) == ["early", "late"]


class TestStoreRoundTrip:
    @pytest.mark.parametrize("chunk_rows", [10, 64, 10000])
    def test_disk_round_trip(self, tmp_path, chunk_rows):
        trace = random_trace(4)
        store = ChunkedTraceStore.write(tmp_path / "store", trace, chunk_rows=chunk_rows)
        assert store.n_jobs == len(trace)
        expected_chunks = max(1, -(-len(trace) // chunk_rows))
        assert store.n_chunks == expected_chunks
        assert_traces_equal(store.to_trace(), trace)

    def test_streamed_jobs_round_trip(self, tmp_path):
        """Write from a lazy file reader: no Trace is ever materialized."""
        trace = random_trace(5, n_jobs=83)
        path = tmp_path / "trace.jsonl.gz"
        write_jsonl(trace, path)
        store = ChunkedTraceStore.write(tmp_path / "store", iter_jsonl(path),
                                        chunk_rows=16, name=trace.name,
                                        machines=trace.machines)
        assert store.n_chunks == 6
        assert_traces_equal(store.to_trace(), trace)

    def test_load_columnar_matches_direct_conversion(self, tmp_path):
        trace = random_trace(6)
        store = ChunkedTraceStore.write(tmp_path / "store", trace, chunk_rows=50)
        from_store = store.load_columnar()
        direct = trace.to_columnar()
        assert set(from_store.columns) == set(direct.columns)
        for column in direct.columns:
            if from_store.columns[column].dtype.kind == "U":
                np.testing.assert_array_equal(from_store.columns[column],
                                              direct.columns[column])
            else:
                np.testing.assert_allclose(from_store.columns[column],
                                           direct.columns[column])

    def test_empty_store_round_trip(self, tmp_path):
        store = ChunkedTraceStore.write(tmp_path / "store", Trace([], name="empty"))
        assert store.n_jobs == 0
        assert store.to_trace().is_empty()

    def test_workload_trace_round_trip(self, tmp_path):
        trace = load_workload("CC-e", seed=2, scale=0.05)
        store = ChunkedTraceStore.write(tmp_path / "store", trace, chunk_rows=200)
        assert_traces_equal(store.to_trace(), trace)

    def test_open_missing_store_raises(self, tmp_path):
        with pytest.raises(TraceFormatError):
            ChunkedTraceStore(tmp_path / "nope")

    def test_unknown_column_raises(self, tmp_path):
        store = ChunkedTraceStore.write(tmp_path / "store", random_trace(7, n_jobs=10))
        with pytest.raises(TraceFormatError):
            list(store.iter_chunks(columns=["no_such_column"]))

    def test_column_pruned_read(self, tmp_path):
        store = ChunkedTraceStore.write(tmp_path / "store", random_trace(8, n_jobs=30),
                                        chunk_rows=10)
        block = store.read_chunk(0, columns=["input_bytes"])
        assert set(block.columns) == {"input_bytes"}
        derived = store.read_chunk(0, columns=["total_bytes"])
        assert set(derived.columns) == {"input_bytes", "shuffle_bytes", "output_bytes"}
        assert derived.column("total_bytes").shape == (10,)
