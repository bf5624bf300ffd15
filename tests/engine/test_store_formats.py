"""Store layout, zone-map skipping, and typed errors on damaged metadata."""

import json
import os

import numpy as np
import pytest

from repro.engine import (
    ChunkedTraceStore,
    Predicate,
    TraceSource,
    build_indexes,
    execute,
    Query,
)
from repro.engine.codecs import DICTIONARY_NAME
from repro.engine.store import MANIFEST_NAME
from repro.errors import TraceFormatError
from repro.traces import Job, Trace, load_workload


def _jobs(n):
    for index in range(n):
        yield Job(job_id="f%05d" % index, submit_time_s=index * 100.0, duration_s=40.0,
                  input_bytes=1e6 * (index + 1), shuffle_bytes=0.0, output_bytes=1e3,
                  map_task_seconds=9.0, reduce_task_seconds=0.0,
                  name="select row %d" % index,
                  input_path="/in/%d" % (index % 11), output_path="/out/%d" % (index % 5))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    base = tmp_path_factory.mktemp("layout")
    return ChunkedTraceStore.write(base / "s.store", _jobs(500), chunk_rows=64)


class TestStoreLayout:
    def test_default_write_is_v3(self, tmp_path):
        store = ChunkedTraceStore.write(tmp_path / "s", _jobs(10), chunk_rows=4)
        assert store.info()["format_version"] == 3
        files = os.listdir(tmp_path / "s")
        assert any(name.endswith(".submit_time_s.bin") for name in files)
        assert not any(name.endswith((".npy", ".npz")) for name in files)

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_unsupported_version_rejected(self, tmp_path, version):
        with pytest.raises(TraceFormatError, match="format v%d" % version):
            ChunkedTraceStore.write(tmp_path / "s", _jobs(4), format_version=version)
        assert not os.path.exists(tmp_path / "s" / MANIFEST_NAME)

    def test_empty_store_roundtrip(self, tmp_path):
        ChunkedTraceStore.write(tmp_path / "empty", iter([]), chunk_rows=8)
        reopened = ChunkedTraceStore(tmp_path / "empty")
        assert reopened.n_jobs == 0
        assert list(reopened.iter_jobs()) == []

    def test_backfills_late_columns(self, tmp_path):
        """A string column first seen mid-stream is padded into earlier chunks."""
        jobs = [Job(job_id="a", submit_time_s=0.0, duration_s=1.0, input_bytes=1.0,
                    shuffle_bytes=0.0, output_bytes=1.0, map_task_seconds=1.0,
                    reduce_task_seconds=0.0),
                Job(job_id="b", submit_time_s=1.0, duration_s=1.0, input_bytes=1.0,
                    shuffle_bytes=0.0, output_bytes=1.0, map_task_seconds=1.0,
                    reduce_task_seconds=0.0, name="late name")]
        store = ChunkedTraceStore.write(tmp_path / "late", iter(jobs), chunk_rows=1)
        assert "name" in store.columns
        first = store.read_chunk(0, columns=["name"])
        assert first.column("name")[0] == ""
        second = store.read_chunk(1, columns=["name"])
        assert second.column("name")[0] == "late name"


class TestZoneMapSkippingThroughTraceSource:
    def test_submit_hour_predicate_skips_chunks(self, store, monkeypatch):
        """Derived submit_hour predicates prune chunks via submit_time_s zones."""
        reads = []
        original = ChunkedTraceStore.read_chunk

        def counting(self, index, columns=None):
            reads.append(index)
            return original(self, index, columns=columns)

        monkeypatch.setattr(ChunkedTraceStore, "read_chunk", counting)
        source = TraceSource.wrap(store)
        # 500 jobs, 100 s apart: hours 0..13; keep the first two hours only.
        blocks = list(source.iter_chunks(columns=["submit_time_s"],
                                         predicates=[Predicate("submit_hour", "<", 2.0)]))
        rows = sum(block.n_rows for block in blocks)
        assert rows == 72  # submit < 7200 s -> indices 0..71
        assert 0 < len(reads) < store.n_chunks  # later chunks were never read

    def test_submit_hour_zone_derived(self, store):
        zone = store.chunk_zone(0, "submit_hour")
        time_zone = store.chunk_zone(0, "submit_time_s")
        assert zone == [np.floor(time_zone[0] / 3600.0),
                        np.floor(time_zone[1] / 3600.0)]

    def test_predicate_rows_match_unfiltered_scan(self, store):
        source = TraceSource.wrap(store)
        predicate = Predicate("input_bytes", ">=", 4.9e8)
        filtered = np.concatenate([
            block.column("input_bytes")
            for block in source.iter_chunks(columns=["input_bytes"],
                                            predicates=[predicate])])
        full = np.concatenate([
            block.column("input_bytes")
            for block in source.iter_chunks(columns=["input_bytes"])])
        assert np.array_equal(filtered, full[full >= 4.9e8])

    def test_materialized_source_applies_row_filter(self, store):
        source = TraceSource.wrap(store.load_columnar())
        predicate = Predicate("submit_hour", "<", 1.0)
        rows = sum(block.n_rows
                   for block in source.iter_chunks(columns=["submit_time_s"],
                                                   predicates=[predicate]))
        assert rows == 36  # submit < 3600 s


class TestConvertCli:
    def test_convert_writes_v3_and_has_no_format_flag(self, tmp_path):
        from repro.cli import main
        from repro.traces.io import write_trace

        trace = Trace(list(_jobs(30)), name="cli")
        path = tmp_path / "trace.jsonl"
        write_trace(trace, str(path))
        directory = tmp_path / "out.store"
        assert main(["engine", "convert", "--trace", str(path),
                     "--output", str(directory)]) == 0
        assert ChunkedTraceStore(directory).info()["format_version"] == 3
        assert main(["engine", "info", "--store", str(directory)]) == 0
        with pytest.raises(SystemExit):
            main(["engine", "convert", "--trace", str(path),
                  "--output", str(tmp_path / "v2.store"), "--format", "v2"])


def _rewrite_json(path, edit):
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(edit(document), handle)


def _without(key):
    def edit(document):
        del document[key]
        return document
    return edit


def _chunk_without_file(manifest):
    del manifest["chunks"][0]["file"]
    return manifest


class TestDamagedMetadata:
    """Metadata that parses but has the wrong shape is a typed error, never a
    bare ``AttributeError``/``KeyError`` from deep inside the constructor."""

    @pytest.mark.parametrize("file_name, edit", [
        (MANIFEST_NAME, lambda manifest: [manifest]),
        (MANIFEST_NAME, _without("chunks")),
        (MANIFEST_NAME, _without("columns")),
        (MANIFEST_NAME, _chunk_without_file),
        (DICTIONARY_NAME, lambda dictionary: [dictionary]),
    ], ids=["manifest-is-a-list", "no-chunks", "no-columns", "chunk-without-file",
            "dictionary-is-a-list"])
    def test_open_raises_typed_error(self, tmp_path, file_name, edit):
        directory = tmp_path / "s"
        ChunkedTraceStore.write(directory, _jobs(20), chunk_rows=8)
        _rewrite_json(directory / file_name, edit)
        with pytest.raises(TraceFormatError):
            ChunkedTraceStore(directory)

    def test_manifest_row_count_is_checked_on_read(self, tmp_path):
        """A chunk whose manifest ``rows`` disagree with its columns must not
        be scanned or indexed as if it held the manifest's count."""
        directory = tmp_path / "cc-e.store"
        store = ChunkedTraceStore.write(directory, load_workload("CC-e", seed=7, scale=0.02),
                                        chunk_rows=64)
        rows = store.chunk_rows()[0]
        store.read_chunk(0, admit=True)  # chunk 0 now sits in the decoded-block cache

        def add_seven(manifest):
            manifest["chunks"][0]["rows"] += 7
            return manifest

        _rewrite_json(directory / MANIFEST_NAME, add_seven)
        damaged = ChunkedTraceStore(directory)
        assert damaged.n_jobs == store.n_jobs + 7  # the manifest alone still opens
        message = "holds %d rows but the manifest says %d" % (rows, rows + 7)
        with pytest.raises(TraceFormatError, match=message):
            damaged.read_chunk(0, columns=["input_bytes"])  # a cache hit
        with pytest.raises(TraceFormatError, match=message):
            execute(damaged, Query().aggregate(total=("sum", "input_bytes")),
                    use_planner=False)
        with pytest.raises(TraceFormatError, match=message):
            build_indexes(damaged)
