"""The block path of ingest: records decode straight into columns.

``decode_records`` must accept exactly what ``Job.from_dict`` accepts and
build exactly the columns ``_append_job`` would have built, so a store written
from a trace file (block path) is byte-for-byte the store written from the
same jobs as ``Job`` objects (row path) — for every file format, chunk size
and decode-batch size.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ChunkedTraceStore, append_store
from repro.engine.columnar import (
    ALL_COLUMNS,
    _append_job,
    _buffers_to_arrays,
    record_blocks,
)
from repro.engine.store import MANIFEST_NAME
from repro.errors import SchemaError, TraceFormatError
from repro.traces import Job, Trace, io as trace_io, iter_trace, write_trace


# ---------------------------------------------------------------------------
# differential: decoder vs Job.from_dict + _append_job
# ---------------------------------------------------------------------------
def row_path(records):
    buffers = {column: [] for column in ALL_COLUMNS}
    for record in records:
        _append_job(buffers, Job.from_dict(record))
    return _buffers_to_arrays(buffers)


def block_path(records, locate=None):
    blocks = list(record_blocks([(records, locate)], chunk_rows=len(records) + 1))
    assert len(blocks) == 1
    return blocks[0].columns


def outcome(function, records):
    try:
        arrays = function(records)
    except Exception as exc:  # the *same* failure is the point, whatever it is
        return type(exc), str(exc)
    return {name: (array.dtype.str, array.tobytes()) for name, array in arrays.items()}


sizes = st.one_of(
    st.floats(min_value=0, max_value=1e15), st.integers(0, 10**12),
    st.sampled_from([None, 0, -0.0, -1, -2.5, float("nan"), float("inf"),
                     "12.5", "x", "", True, False, [1], 10**400]))
counts = st.one_of(
    st.integers(0, 5000),
    st.sampled_from([None, -1, 3.0, 2.5, float("nan"), float("inf"), "7", "x",
                     True, [1], 10**400]))
strings = st.one_of(st.none(), st.text(max_size=6), st.sampled_from(["", 0, 7, False]))
job_ids = st.one_of(st.text(min_size=1, max_size=8),
                    st.sampled_from(["", None, 0, 7, 2.5, True]))

NUMERIC = ("submit_time_s", "duration_s", "input_bytes", "shuffle_bytes",
           "output_bytes", "map_task_seconds", "reduce_task_seconds")
OPTIONAL_STRINGS = ("name", "framework", "input_path", "output_path", "workload",
                    "cluster_label")


@st.composite
def plain_records(draw):
    """What the library's own writers emit: the decoder's column-at-a-time path."""
    record = {"job_id": draw(st.text(min_size=1, max_size=8))}
    for name in NUMERIC:
        record[name] = draw(st.one_of(st.floats(min_value=0, max_value=1e15),
                                      st.integers(0, 10**12)))
    record["submit_time_s"] = draw(st.floats(-1e6, 1e9))
    for name in ("map_tasks", "reduce_tasks"):
        if draw(st.booleans()):
            record[name] = draw(st.one_of(st.none(), st.integers(0, 5000)))
    for name in OPTIONAL_STRINGS:
        if draw(st.booleans()):
            record[name] = draw(st.one_of(st.none(), st.text(max_size=6)))
    if draw(st.booleans()):
        record["added_in_a_newer_version"] = draw(st.integers())
    return record


@st.composite
def wild_records(draw):
    """Anything a client can send: one or two fields of a plain record go wrong."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([42, None, [1, 2], "text", 2.5, True]))
    record = draw(plain_records())
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(("job_id", "map_tasks", "reduce_tasks")
                                     + NUMERIC + OPTIONAL_STRINGS))
        if draw(st.integers(0, 5)) == 0:
            record.pop(field, None)
        elif field == "job_id":
            record[field] = draw(job_ids)
        elif field in NUMERIC:
            record[field] = draw(sizes)
        elif field in OPTIONAL_STRINGS:
            record[field] = draw(strings)
        else:
            record[field] = draw(counts)
    return record


class TestDecoderMatchesRowPath:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(plain_records(), max_size=12))
    def test_plain_records_give_identical_arrays(self, records):
        expected = outcome(row_path, records)
        assert isinstance(expected, dict)  # the row path accepts them all
        assert outcome(block_path, records) == expected

    @settings(max_examples=600, deadline=None)
    @given(st.lists(wild_records(), max_size=8))
    def test_same_arrays_or_same_error(self, records):
        expected = outcome(row_path, records)
        assert outcome(block_path, records) == expected
        if not isinstance(expected, dict):  # no bare ValueError/TypeError/AttributeError
            assert expected[0] in (SchemaError, TraceFormatError)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(wild_records(), min_size=1, max_size=8))
    def test_errors_are_located_at_the_first_bad_record(self, records):
        def first_bad():
            for index, record in enumerate(records):
                try:
                    Job.from_dict(record)
                except (SchemaError, TraceFormatError) as exc:
                    return index, exc
            return None

        bad = first_bad()
        located = outcome(lambda rs: block_path(
            rs, lambda index, exc: TraceFormatError("record %d: %s" % (index, exc))),
            records)
        if bad is None:
            assert located == outcome(row_path, records)
        else:
            assert located == (TraceFormatError, "record %d: %s" % bad)

    def test_typed_errors_from_the_row_path(self):
        base = {"job_id": "j", "submit_time_s": 0, "duration_s": 1, "input_bytes": 1,
                "shuffle_bytes": 0, "output_bytes": 0, "map_task_seconds": 1,
                "reduce_task_seconds": 0}
        for bad in ("x", float("nan"), float("inf"), [1], 2.5, -1):
            with pytest.raises(SchemaError, match="map_tasks must be a non-negative"):
                block_path([dict(base, map_tasks=bad)])
        with pytest.raises(SchemaError, match="input_bytes must be numeric"):
            block_path([dict(base, input_bytes=10**400)])
        for junk in (42, None, [1, 2]):
            with pytest.raises(TraceFormatError, match="record must be a JSON object"):
                block_path([base, junk])


# ---------------------------------------------------------------------------
# whole stores: every reader feeds the same decoder
# ---------------------------------------------------------------------------
def make_jobs(count, first=0, name=None):
    return [Job(job_id="j%05d" % index, submit_time_s=3.5 * index,
                duration_s=30.0 + index % 7, input_bytes=1e6 * (index + 1),
                shuffle_bytes=0.0 if index % 3 else 2e5, output_bytes=1e3,
                map_task_seconds=20.0, reduce_task_seconds=0.0,
                map_tasks=index % 5 if index % 4 else None,
                name=name and "%s %d" % (name, index % 9),
                input_path="/in/%d" % (index % 11))
            for index in range(first, first + count)]


def store_files(directory):
    """Every file of a store as bytes (the manifest minus its random uid)."""
    files = {}
    for file_name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, file_name), "rb") as handle:
            data = handle.read()
        if file_name == MANIFEST_NAME:
            manifest = json.loads(data)
            manifest.pop("store_uid")
            data = json.dumps(manifest, sort_keys=True).encode()
        files[file_name] = data
    return files


@pytest.fixture(params=[7, trace_io.BATCH_RECORDS], ids=["batch7", "batch8192"])
def batch_records(request, monkeypatch):
    """Decode batches smaller and larger than a chunk: neither may show on disk."""
    monkeypatch.setattr(trace_io, "BATCH_RECORDS", request.param)
    return request.param


class TestStoresAreByteIdentical:
    @pytest.mark.parametrize("count", [0, 32, 33, 150])
    def test_every_source_writes_the_same_bytes(self, tmp_path, batch_records, count):
        jobs = make_jobs(count, name="select")
        expected = store_files(ChunkedTraceStore.write(
            tmp_path / "from-jobs", list(jobs), chunk_rows=32).directory)
        assert len([f for f in expected if "job_id" in f]) == max(1, -(-count // 32))
        for file_name in ("t.jsonl", "t.jsonl.gz", "t.csv", "t.csv.gz"):
            write_trace(Trace(jobs), tmp_path / file_name)
            store = ChunkedTraceStore.write(
                tmp_path / (file_name + ".store"), iter_trace(tmp_path / file_name),
                chunk_rows=32)
            assert store.n_jobs == count
            assert store_files(store.directory) == expected, file_name

    def test_blank_lines_are_skipped(self, tmp_path, batch_records):
        jobs = make_jobs(40)
        write_trace(Trace(jobs), tmp_path / "t.jsonl")
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        spaced = "\n\n" + "\n   \n".join(lines) + "\n\n\n"
        (tmp_path / "spaced.jsonl").write_text(spaced)
        plain = ChunkedTraceStore.write(tmp_path / "a", iter_trace(tmp_path / "t.jsonl"),
                                        chunk_rows=16)
        gaps = ChunkedTraceStore.write(tmp_path / "b", iter_trace(tmp_path / "spaced.jsonl"),
                                       chunk_rows=16)
        assert store_files(gaps.directory) == store_files(plain.directory)

    def test_string_column_first_seen_in_a_later_chunk(self, tmp_path, batch_records):
        """``name`` is absent from the first chunks: they are backfilled, as before."""
        jobs = make_jobs(70) + make_jobs(30, first=70, name="insert")
        write_trace(Trace(jobs), tmp_path / "t.jsonl")
        from_file = ChunkedTraceStore.write(tmp_path / "file", iter_trace(tmp_path / "t.jsonl"),
                                            chunk_rows=32)
        from_jobs = ChunkedTraceStore.write(tmp_path / "jobs", list(jobs), chunk_rows=32)
        assert "name" in from_file.columns
        assert store_files(from_file.directory) == store_files(from_jobs.directory)
        assert [job.name for job in from_file.iter_jobs()] == [job.name for job in jobs]

    def test_append_from_a_file_matches_append_of_jobs(self, tmp_path, batch_records):
        base, extra = make_jobs(50), make_jobs(45, first=50, name="late")
        write_trace(Trace(extra), tmp_path / "extra.csv.gz")
        for directory in ("file", "jobs"):
            ChunkedTraceStore.write(tmp_path / directory, list(base), chunk_rows=32)
        by_file = append_store(tmp_path / "file", iter_trace(tmp_path / "extra.csv.gz"))
        by_jobs = append_store(tmp_path / "jobs", list(extra))
        assert by_file.n_jobs == 95 and by_file.manifest_sequence == 1
        assert store_files(by_file.directory) == store_files(by_jobs.directory)


class TestErrorsNameTheLine:
    def write_lines(self, path, jobs, replace):
        write_trace(Trace(jobs), path)
        lines = path.read_text().splitlines()
        for number, text in replace.items():
            lines[number - 1] = text
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("bad_line, message", [
        ("{broken", "line 41: not valid JSON"),
        ("42", "line 41: record must be a JSON object, got int"),
        ('{"job_id": "only"}', "line 41: job record missing required fields"),
        ('{"a": 1}, {"b": 2}', "line 41: not valid JSON"),
    ])
    def test_jsonl_error_in_the_second_chunk(self, tmp_path, batch_records,
                                             bad_line, message):
        path = tmp_path / "t.jsonl"
        # line 3 is blank: line numbers count lines of the file, not records
        self.write_lines(path, make_jobs(60), {3: "", 41: bad_line})
        with pytest.raises(TraceFormatError) as excinfo:
            ChunkedTraceStore.write(tmp_path / "store", iter_trace(path), chunk_rows=32)
        assert "%s %s" % (path, message) in str(excinfo.value)
        assert not os.path.exists(tmp_path / "store" / MANIFEST_NAME)
        # the row path names the same line with the same words
        with pytest.raises(TraceFormatError) as row_error:
            list(iter_trace(path))
        assert str(row_error.value) == str(excinfo.value)

    def test_a_percent_sign_in_the_path_survives_the_message(self, tmp_path):
        directory = tmp_path / "100%d"
        directory.mkdir()
        path = directory / "t.jsonl"
        self.write_lines(path, make_jobs(3), {2: "{broken"})
        with pytest.raises(TraceFormatError) as excinfo:
            list(iter_trace(path).blocks(chunk_rows=8))
        assert str(excinfo.value).startswith("%s line 2: not valid JSON" % path)

    def test_csv_error_in_the_second_chunk(self, tmp_path, batch_records):
        path = tmp_path / "t.csv"
        jobs = make_jobs(60)
        write_trace(Trace(jobs), path)
        lines = path.read_text().splitlines()
        lines[40] = lines[40].replace("1000.0", "-1000.0")  # line 41: output_bytes
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError) as excinfo:
            ChunkedTraceStore.write(tmp_path / "store", iter_trace(path), chunk_rows=32)
        assert "%s line 41: job j00039: field output_bytes must be non-negative" % path \
            in str(excinfo.value)
        assert not os.path.exists(tmp_path / "store" / MANIFEST_NAME)
        with pytest.raises(TraceFormatError) as row_error:
            list(iter_trace(path))
        assert str(row_error.value) == str(excinfo.value)

    def test_failed_append_leaves_the_manifest_alone(self, tmp_path, batch_records):
        store = ChunkedTraceStore.write(tmp_path / "store", make_jobs(10), chunk_rows=8)
        before = store_files(store.directory)[MANIFEST_NAME]
        path = tmp_path / "more.jsonl"
        self.write_lines(path, make_jobs(30, first=10), {20: "null"})
        with pytest.raises(TraceFormatError, match="line 20: record must be a JSON object"):
            append_store(store.directory, iter_trace(path))
        assert store_files(store.directory)[MANIFEST_NAME] == before


class TestFailedAppendLeavesNothingBehind:
    """An append that raises before the manifest swap unlinks what it wrote:
    the directory is the one it found, and no later append can read a value
    that was never committed for its rows."""

    def orphans(self, count, first):
        jobs = make_jobs(count, first=first)
        for index, job in enumerate(jobs):
            job.input_path = "/orphan/%d" % index
        return jobs

    def test_bad_line_after_chunks_were_written(self, tmp_path, batch_records):
        from repro.engine import Query, execute

        store = ChunkedTraceStore.write(tmp_path / "store", make_jobs(4), chunk_rows=4)
        before = store_files(store.directory)
        path = tmp_path / "bad.jsonl"
        TestErrorsNameTheLine().write_lines(path, self.orphans(40, first=4),
                                            {30: "{broken"})
        with pytest.raises(TraceFormatError, match="line 30: not valid JSON"):
            append_store(store.directory, iter_trace(path), chunk_rows=4)
        assert store_files(store.directory) == before
        unrecorded = make_jobs(4, first=4)
        for job in unrecorded:
            job.input_path = None
        grown = append_store(store.directory, unrecorded)
        assert grown.read_chunk(1, columns=["input_path"]).column("input_path").tolist() \
            == ["", "", "", ""]
        query = Query().filter("input_path", "==", "/orphan/0").count()
        assert execute(grown, query).aggregates["count"] == 0

    @pytest.mark.parametrize("fails_at", ["dictionary.json", MANIFEST_NAME])
    def test_failure_in_a_durable_save(self, tmp_path, monkeypatch, fails_at):
        """The rename of the dictionary (or of the manifest itself) fails: the
        chunk files *and* the temporaries of the save are gone again."""
        store = ChunkedTraceStore.write(tmp_path / "store", make_jobs(40, name="select"),
                                        chunk_rows=32)
        assert store.string_encodings["name"] == "dict"
        before = store_files(store.directory)
        real_replace = os.replace

        def full_disk(source, target):
            if os.path.basename(target) == fails_at:
                raise OSError(28, "No space left on device")
            real_replace(source, target)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", full_disk)
            with pytest.raises(OSError, match="No space left"):
                append_store(store.directory, make_jobs(40, first=40, name="insert"))
        after = store_files(store.directory)
        if fails_at == MANIFEST_NAME:
            # the grown dictionary was committed first: extra codes, harmless
            assert len(after.pop("dictionary.json")) > len(before.pop("dictionary.json"))
        assert after == before
        grown = append_store(store.directory, make_jobs(40, first=40, name="insert"))
        assert [job.name for job in grown.iter_jobs()] == [
            job.name for job in make_jobs(40, name="select")
            + make_jobs(40, first=40, name="insert")]

    def test_failed_write_deletes_nothing(self, tmp_path, batch_records):
        """A reused directory's committed manifest may still name the files a
        failed *write* overwrote; only appends clean up."""
        store = ChunkedTraceStore.write(tmp_path / "store", make_jobs(64), chunk_rows=8)
        listing = sorted(os.listdir(store.directory))
        path = tmp_path / "bad.jsonl"
        TestErrorsNameTheLine().write_lines(path, make_jobs(64), {60: "{broken"})
        with pytest.raises(TraceFormatError, match="line 60"):
            ChunkedTraceStore.write(store.directory, iter_trace(path), chunk_rows=8)
        assert sorted(os.listdir(store.directory)) == listing
        assert ChunkedTraceStore(store.directory).n_jobs == 64


class TestFailedWriteNeverAnswersWithItsData:
    """A write that raises leaves a directory that opens to the store it found,
    byte for byte, or does not open at all; a directory it created is gone."""

    def bad_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        TestErrorsNameTheLine().write_lines(path, make_jobs(64, first=100, name="insert"),
                                            {60: "{broken"})
        return path

    def test_bad_line_after_chunks_were_written(self, tmp_path, batch_records):
        old_jobs = make_jobs(16, name="select")
        store = ChunkedTraceStore.write(tmp_path / "store", old_jobs, chunk_rows=8)
        before = store_files(store.directory)
        with pytest.raises(TraceFormatError, match="line 60"):
            ChunkedTraceStore.write(store.directory, iter_trace(self.bad_file(tmp_path)),
                                    chunk_rows=8)
        assert store_files(store.directory) == before
        assert [(job.job_id, job.name) for job in ChunkedTraceStore(store.directory).iter_jobs()] \
            == [(job.job_id, job.name) for job in old_jobs]

    def test_bad_line_into_a_fresh_path(self, tmp_path, batch_records):
        with pytest.raises(TraceFormatError, match="line 60"):
            ChunkedTraceStore.write(tmp_path / "fresh.store", iter_trace(self.bad_file(tmp_path)),
                                    chunk_rows=8)
        assert not (tmp_path / "fresh.store").exists()

    @pytest.mark.parametrize("fails_at", ["dictionary.json", MANIFEST_NAME])
    def test_failure_in_a_durable_save(self, tmp_path, monkeypatch, fails_at):
        """Failing after the old manifest went: the directory no longer opens,
        and none of the write's files remain."""
        store = ChunkedTraceStore.write(tmp_path / "store", make_jobs(16, name="select"),
                                        chunk_rows=8)
        old_files = set(os.listdir(store.directory))
        real_replace = os.replace

        def full_disk(source, target):
            if os.path.basename(target) == fails_at:
                raise OSError(28, "No space left on device")
            real_replace(source, target)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", full_disk)
            with pytest.raises(OSError, match="No space left"):
                ChunkedTraceStore.write(store.directory, make_jobs(16, first=100, name="insert"),
                                        chunk_rows=8)
        with pytest.raises(TraceFormatError, match="no manifest"):
            ChunkedTraceStore(store.directory)
        assert set(os.listdir(store.directory)) < old_files

    def test_rewrite_unlinks_the_old_chunk_files(self, tmp_path):
        directory = tmp_path / "store"
        ChunkedTraceStore.write(directory, make_jobs(64), chunk_rows=8)
        store = ChunkedTraceStore.write(directory, make_jobs(8, first=100), chunk_rows=8)
        with open(os.path.join(store.directory, MANIFEST_NAME)) as handle:
            (chunk,) = [entry["file"] for entry in json.load(handle)["chunks"]]
        assert sorted(os.listdir(store.directory)) == sorted(
            [MANIFEST_NAME, "dictionary.json"]
            + ["%s.%s.bin" % (chunk, column) for column in store.columns])
