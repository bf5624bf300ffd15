"""Unit tests for trace serialization (CSV, JSONL, gzip) and the log parser."""

import gzip

import pytest

import inspect

from repro.errors import TraceFormatError
from repro.traces.io import parse_json_lines
from repro.traces import (
    Job,
    Trace,
    format_job_line,
    iter_csv,
    iter_jsonl,
    iter_trace,
    parse_history_lines,
    parse_job_line,
    read_csv,
    read_history_log,
    read_jsonl,
    read_trace,
    write_csv,
    write_jsonl,
    write_trace,
)


def sample_trace():
    jobs = [
        Job(job_id="a", submit_time_s=0.0, duration_s=10.0, input_bytes=100.0,
            shuffle_bytes=0.0, output_bytes=5.0, map_task_seconds=20.0,
            reduce_task_seconds=0.0, map_tasks=2, reduce_tasks=0,
            name="select things", input_path="/in/a", output_path="/out/a"),
        Job(job_id="b", submit_time_s=5.0, duration_s=20.0, input_bytes=1e9,
            shuffle_bytes=2e8, output_bytes=1e7, map_task_seconds=300.0,
            reduce_task_seconds=100.0),
    ]
    return Trace(jobs, name="sample", machines=3)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = sample_trace()
        write_csv(trace, path)
        loaded = read_csv(path, name="sample", machines=3)
        assert len(loaded) == 2
        assert loaded.jobs[0].to_dict() == trace.jobs[0].to_dict()
        assert loaded.jobs[1].name is None

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv.gz"
        write_csv(sample_trace(), path)
        with gzip.open(path, "rt") as handle:
            assert "job_id" in handle.readline()
        assert len(read_csv(path)) == 2

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,trace\n1,2,3\n")
        with pytest.raises(TraceFormatError):
            read_csv(path)

    def test_non_numeric_column_raises(self, tmp_path):
        path = tmp_path / "bad2.csv"
        write_csv(sample_trace(), path)
        text = path.read_text().replace("1000000000.0", "a-lot", 1)
        path.write_text(text)
        with pytest.raises(TraceFormatError):
            read_csv(path)


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace = sample_trace()
        write_jsonl(trace, path)
        loaded = read_jsonl(path)
        assert [job.job_id for job in loaded] == ["a", "b"]
        assert loaded.jobs[0].input_path == "/in/a"

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"job_id": "x"\n')
        with pytest.raises(TraceFormatError):
            read_jsonl(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(sample_trace(), path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_jsonl(path)) == 2


class TestFormatDispatch:
    @pytest.mark.parametrize("filename", ["t.csv", "t.jsonl", "t.csv.gz", "t.jsonl.gz"])
    def test_write_read_by_extension(self, tmp_path, filename):
        path = tmp_path / filename
        write_trace(sample_trace(), path)
        assert len(read_trace(path)) == 2

    def test_unknown_extension_raises(self, tmp_path):
        with pytest.raises(TraceFormatError):
            write_trace(sample_trace(), tmp_path / "trace.parquet")
        with pytest.raises(TraceFormatError):
            read_trace(tmp_path / "trace.parquet")


class TestLazyReaders:
    """The readers stream rows via generators instead of loading whole files."""

    def test_iterators_are_generators(self):
        assert inspect.isgeneratorfunction(iter_csv)
        assert inspect.isgeneratorfunction(iter_jsonl)

    @pytest.mark.parametrize("filename", ["t.csv", "t.jsonl", "t.csv.gz", "t.jsonl.gz"])
    def test_iter_trace_streams_all_formats(self, tmp_path, filename):
        path = tmp_path / filename
        write_trace(sample_trace(), path)
        jobs = iter_trace(path)
        first = next(jobs)
        assert first.job_id == "a"
        assert [job.job_id for job in jobs] == ["b"]

    def test_iter_is_lazy_about_malformed_tails(self, tmp_path):
        """A bad row past the cut-off is never parsed when streaming stops early."""
        path = tmp_path / "trace.jsonl"
        write_jsonl(sample_trace(), path)
        path.write_text(path.read_text() + "{not json\n")
        jobs = iter_jsonl(path)
        assert next(jobs).job_id == "a"
        assert next(jobs).job_id == "b"
        with pytest.raises(TraceFormatError):
            next(jobs)

    def test_gzip_jsonl_round_trip_regression(self, tmp_path):
        """Full-fidelity gzip round trip through the streaming readers."""
        path = tmp_path / "trace.jsonl.gz"
        trace = sample_trace()
        write_jsonl(trace, path)
        with gzip.open(path, "rt") as handle:
            assert handle.readline().startswith("{")
        loaded = read_jsonl(path, name="sample", machines=3)
        assert [job.to_dict() for job in loaded] == [job.to_dict() for job in trace]
        streamed = list(iter_jsonl(path))
        assert [job.to_dict() for job in streamed] == [job.to_dict() for job in trace]

    def test_gzip_csv_round_trip_regression(self, tmp_path):
        path = tmp_path / "trace.csv.gz"
        trace = sample_trace()
        write_csv(trace, path)
        loaded = read_csv(path, name="sample", machines=3)
        assert [job.to_dict() for job in loaded] == [job.to_dict() for job in trace]

    def test_iter_trace_unknown_extension_raises(self, tmp_path):
        with pytest.raises(TraceFormatError):
            iter_trace(tmp_path / "trace.parquet")

    @pytest.mark.parametrize("filename", ["t.csv", "t.jsonl", "t.csv.gz", "t.jsonl.gz"])
    def test_iter_trace_also_streams_column_blocks(self, tmp_path, filename):
        """The store writer's view of the same file: columns, no Job per row."""
        path = tmp_path / filename
        write_trace(sample_trace(), path)
        (block,) = iter_trace(path).blocks(chunk_rows=10)
        assert list(block.column("job_id")) == ["a", "b"]
        assert list(block.column("input_bytes")) == [100.0, 1e9]
        assert block.column("map_tasks")[0] == 2 and block.column("map_tasks")[1] != \
            block.column("map_tasks")[1]  # not recorded -> NaN
        assert list(block.column("name")) == ["select things", ""]
        assert [b.n_rows for b in iter_trace(path).blocks(chunk_rows=1)] == [1, 1]

    @pytest.mark.parametrize("line", ["42", "null", "[1, 2]", '"text"'])
    def test_non_object_json_line_is_a_format_error(self, tmp_path, line):
        path = tmp_path / "trace.jsonl"
        write_jsonl(sample_trace(), path)
        path.write_text(path.read_text() + "\n" + line + "\n")
        message = "%s line 4: record must be a JSON object" % path
        with pytest.raises(TraceFormatError, match=message):
            list(iter_jsonl(path))
        with pytest.raises(TraceFormatError, match=message):
            list(iter_trace(path).blocks(chunk_rows=10))

    def test_lines_that_only_parse_joined_are_rejected(self, tmp_path,
                                                       compensating_jsonl):
        """Joined with commas these four lines read as four records."""
        path = tmp_path / "trace.jsonl"
        path.write_text(compensating_jsonl)
        message = "%s line 2: not valid JSON: Extra data" % path
        with pytest.raises(TraceFormatError, match=message):
            list(iter_trace(path).blocks(chunk_rows=10))
        with pytest.raises(TraceFormatError, match=message):
            list(iter_jsonl(path))

    @pytest.mark.parametrize("lines, bad_line", [
        (['{}', '{}, {}', '[1', '2]'], 2),      # two values, then one split value
        (['{}', '[1', '2]', '{}, {}'], 2),      # the two values on the last line
        (['{}', '{}', '{}, {}'], 3),            # one value too many, at the end
        (['{}, {}, {}', '[1', '2]'], 1),        # as many values as lines, shifted
        (['{"a": "}', '{", "b": 1}', '{}'], 1),  # a string closed on the next line
    ])
    def test_each_line_must_be_one_value(self, lines, bad_line):
        with pytest.raises(TraceFormatError, match="^t line %d: not valid JSON" % bad_line):
            parse_json_lines(lines, "t line ")

    def test_bad_task_count_names_its_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(sample_trace(), path)
        path.write_text(path.read_text().replace('"map_tasks": 2', '"map_tasks": "x"'))
        message = "%s line 1: job a: field map_tasks must be a non-negative integer" % path
        with pytest.raises(TraceFormatError, match=message):
            read_jsonl(path)
        with pytest.raises(TraceFormatError, match=message):
            list(iter_trace(path).blocks(chunk_rows=10))


class TestHadoopLogParser:
    def test_parse_single_line(self):
        line = ('Job JOBID="job_1" SUBMIT_TIME="1000" FINISH_TIME="61000" '
                'HDFS_BYTES_READ="1024" MAP_OUTPUT_BYTES="10" HDFS_BYTES_WRITTEN="5" '
                'MAP_SLOT_SECONDS="30" REDUCE_SLOT_SECONDS="4" TOTAL_MAPS="2" '
                'TOTAL_REDUCES="1" JOBNAME="insert into x" INPUT_DIR="/a" OUTPUT_DIR="/b"')
        fields = parse_job_line(line)
        assert fields["JOBID"] == "job_1"
        assert fields["JOBNAME"] == "insert into x"

    def test_non_job_line_raises(self):
        with pytest.raises(TraceFormatError):
            parse_job_line('Task TASKID="t1"')

    def test_missing_required_key_raises(self):
        with pytest.raises(TraceFormatError):
            parse_job_line('Job JOBID="x" SUBMIT_TIME="1"')

    def test_parse_history_lines_builds_trace(self):
        lines = [
            "# comment",
            'Task TASKID="ignored"',
            'Job JOBID="j1" SUBMIT_TIME="5000" FINISH_TIME="15000" HDFS_BYTES_READ="100"',
            'Job JOBID="j2" SUBMIT_TIME="10000" FINISH_TIME="20000" HDFS_BYTES_READ="200" '
            'MAP_SLOT_SECONDS="9"',
        ]
        trace = parse_history_lines(lines, name="h")
        assert len(trace) == 2
        # Times are re-based to the earliest submission, in seconds.
        assert trace.jobs[0].submit_time_s == 0.0
        assert trace.jobs[1].submit_time_s == 5.0
        assert trace.jobs[0].duration_s == 10.0

    def test_format_then_parse_round_trip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "history.log"
        path.write_text("\n".join(format_job_line(job) for job in trace) + "\n")
        loaded = read_history_log(path, name="sample")
        assert len(loaded) == 2
        assert loaded.jobs[1].input_bytes == pytest.approx(1e9)
        assert loaded.jobs[0].name == "select things"

    def test_empty_log_gives_empty_trace(self):
        assert parse_history_lines([]).is_empty()
