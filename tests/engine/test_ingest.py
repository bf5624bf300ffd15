"""Append-mode (``engine ingest``) edge cases.

The store appender must keep every manifest invariant coherent across an
append: zone maps on the new chunks, the column union (backfilled both ways),
the ``sorted_by_submit_time`` flag across the append boundary, and the
crash-safe atomic manifest swap with its ``manifest_sequence`` bump.
"""

import json
import os

import numpy as np
import pytest

from repro.engine import ChunkedTraceStore, append_store
from repro.engine.store import MANIFEST_NAME
from repro.errors import AnalysisError, TraceFormatError
from repro.traces import Job, Trace


def make_jobs(lo, hi, t0=0.0, step=5.0, name=None, input_path=True):
    jobs = []
    for index in range(lo, hi):
        jobs.append(Job(
            job_id="a%05d" % index, submit_time_s=t0 + (index - lo) * step,
            duration_s=30.0, input_bytes=1e6 * (index + 1), shuffle_bytes=0.0,
            output_bytes=1e3, map_task_seconds=20.0, reduce_task_seconds=0.0,
            name=name, input_path="/p/%d" % (index % 7) if input_path else None))
    return jobs


@pytest.fixture()
def base_store(tmp_path):
    directory = tmp_path / "base.store"
    store = ChunkedTraceStore.write(directory, Trace(make_jobs(0, 100), name="t"),
                                    chunk_rows=32)
    return store


class TestAppendBasics:
    def test_rows_and_chunks_extend(self, base_store):
        before_chunks = base_store.n_chunks
        store = append_store(base_store.directory,
                             Trace(make_jobs(100, 150, t0=1000.0), name="t"))
        assert store.n_jobs == 150
        assert store.n_chunks > before_chunks
        times = np.concatenate([
            np.asarray(block.column("submit_time_s"))
            for block in store.iter_chunks(columns=["submit_time_s"])])
        assert times.size == 150
        assert np.all(times[:-1] <= times[1:])

    def test_matches_oneshot_store(self, base_store, tmp_path):
        appended = append_store(base_store.directory,
                                Trace(make_jobs(100, 150, t0=1000.0), name="t"))
        oneshot = ChunkedTraceStore.write(
            tmp_path / "oneshot.store",
            Trace(make_jobs(0, 100) + make_jobs(100, 150, t0=1000.0), name="t"),
            chunk_rows=32)
        for column in ("submit_time_s", "input_bytes", "job_id"):
            mine = np.concatenate([np.asarray(b.column(column))
                                   for b in appended.iter_chunks(columns=[column])])
            reference = np.concatenate([np.asarray(b.column(column))
                                        for b in oneshot.iter_chunks(columns=[column])])
            assert np.array_equal(mine, reference), column

    def test_appended_chunks_have_zone_maps(self, base_store):
        store = append_store(base_store.directory,
                             Trace(make_jobs(100, 150, t0=1000.0), name="t"))
        for index in range(base_store.n_chunks, store.n_chunks):
            zone = store.chunk_zone(index, "submit_time_s")
            assert zone is not None
            assert zone[0] >= 1000.0

    def test_empty_append_is_noop(self, base_store):
        sequence = base_store.manifest_sequence
        store = append_store(base_store.directory, [])
        assert store.n_jobs == 100
        assert store.manifest_sequence == sequence

    def test_default_chunk_rows_come_from_manifest(self, base_store):
        store = append_store(base_store.directory,
                             Trace(make_jobs(100, 200, t0=1000.0), name="t"))
        # base was written with chunk_rows=32, so 100 appended jobs split 32/32/32/4
        assert store.chunk_rows()[base_store.n_chunks:] == [32, 32, 32, 4]


class TestSortedFlagCoherence:
    def test_in_order_append_keeps_sorted(self, base_store):
        assert base_store.sorted_by_submit_time
        store = append_store(base_store.directory,
                             Trace(make_jobs(100, 120, t0=10000.0), name="t"))
        assert store.sorted_by_submit_time

    def test_interleaving_append_clears_sorted(self, base_store):
        # base covers [0, 495]; these land inside it
        store = append_store(base_store.directory,
                             Trace(make_jobs(100, 110, t0=3.0), name="t"))
        assert not store.sorted_by_submit_time

    def test_internally_unsorted_iterable_clears_sorted(self, base_store):
        jobs = make_jobs(100, 110, t0=10000.0)
        jobs.reverse()  # raw iterable: no Trace re-sorting
        store = append_store(base_store.directory, iter(jobs))
        assert not store.sorted_by_submit_time

    def test_ordered_analysis_raises_after_unsorted_append(self, base_store, analysis):
        store = append_store(base_store.directory,
                             Trace(make_jobs(100, 110, t0=3.0), name="t"))
        with pytest.raises(AnalysisError, match="not sorted"):
            analysis(store, "reaccess_intervals")


class TestColumnUnion:
    def test_new_column_backfills_old_chunks(self, base_store):
        assert "name" not in base_store.columns
        store = append_store(base_store.directory,
                             Trace(make_jobs(100, 120, t0=10000.0,
                                             name="insert fresh"), name="t"))
        assert "name" in store.columns
        first = store.read_chunk(0, columns=["name"])
        assert np.all(np.asarray(first.column("name")) == "")
        last = store.read_chunk(store.n_chunks - 1, columns=["name"])
        assert np.all(np.asarray(last.column("name")) == "insert fresh")

    def test_missing_column_fills_new_chunks(self, tmp_path):
        directory = tmp_path / "named.store"
        ChunkedTraceStore.write(directory,
                                Trace(make_jobs(0, 50, name="select base"), name="t"),
                                chunk_rows=16)
        store = append_store(directory,
                             Trace(make_jobs(50, 70, t0=10000.0), name="t"))
        last = store.read_chunk(store.n_chunks - 1, columns=["name"])
        assert np.all(np.asarray(last.column("name")) == "")


class TestManifestSafety:
    def test_sequence_bumps_and_no_temp_file_left(self, base_store):
        assert base_store.manifest_sequence == 0
        store = append_store(base_store.directory,
                             Trace(make_jobs(100, 110, t0=10000.0), name="t"))
        assert store.manifest_sequence == 1
        store = append_store(base_store.directory,
                             Trace(make_jobs(110, 120, t0=20000.0), name="t"))
        assert store.manifest_sequence == 2
        assert not os.path.exists(
            os.path.join(store.directory, MANIFEST_NAME + ".tmp"))

    def test_manifest_readable_json_after_append(self, base_store):
        store = append_store(base_store.directory,
                             Trace(make_jobs(100, 110, t0=10000.0), name="t"))
        with open(os.path.join(store.directory, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["manifest_sequence"] == 1
        assert manifest["n_jobs"] == 110
        assert len(manifest["chunks"]) == store.n_chunks

    def test_store_uid_minted_and_preserved_across_appends(self, base_store):
        uid = base_store.store_uid
        assert uid
        store = append_store(base_store.directory,
                             Trace(make_jobs(100, 110, t0=10000.0), name="t"))
        assert store.store_uid == uid

    def test_zero_chunk_rows_rejected(self, base_store):
        with pytest.raises(TraceFormatError, match="positive"):
            ChunkedTraceStore.open_append(base_store.directory).append(
                Trace(make_jobs(100, 110, t0=10000.0), name="t"), chunk_rows=0)


class TestStoreToStoreConvert:
    def test_store_to_store_roundtrip_preserves_rows_and_flag(self, base_store, tmp_path):
        copy = ChunkedTraceStore.write(tmp_path / "copy", base_store)
        assert copy.sorted_by_submit_time == base_store.sorted_by_submit_time
        back = ChunkedTraceStore.write(tmp_path / "back", copy)
        for column in ("submit_time_s", "input_bytes", "job_id"):
            mine = np.concatenate([np.asarray(b.column(column))
                                   for b in back.iter_chunks(columns=[column])])
            reference = np.concatenate([np.asarray(b.column(column))
                                        for b in base_store.iter_chunks(columns=[column])])
            assert np.array_equal(mine, reference), column

    def test_convert_onto_itself_rejected(self, base_store):
        with pytest.raises(TraceFormatError, match="onto itself"):
            ChunkedTraceStore.write(base_store.directory, base_store)


class TestColumnSizes:
    def test_sizes_cover_every_column(self, base_store):
        sizes = base_store.column_sizes()
        raw_sizes = base_store.column_raw_sizes()
        assert sorted(sizes) == sorted(raw_sizes) == sorted(base_store.columns)
        assert all(size > 0 for size in sizes.values())
        # compressed blocks must not exceed the uncompressed columns in total
        assert sum(sizes.values()) <= sum(raw_sizes.values())


class TestIngestCli:
    def test_engine_ingest_cli(self, tmp_path, capsys):
        from repro.cli import main
        from repro.traces.io import write_trace

        directory = tmp_path / "cli.store"
        ChunkedTraceStore.write(directory, Trace(make_jobs(0, 40), name="t"),
                                chunk_rows=16)
        fresh = tmp_path / "fresh.jsonl"
        write_trace(Trace(make_jobs(40, 60, t0=10000.0), name="t"), fresh)
        assert main(["engine", "ingest", "--store", str(directory),
                     "--trace", str(fresh)]) == 0
        out = capsys.readouterr().out
        assert "appended 20 jobs" in out
        assert ChunkedTraceStore(directory).n_jobs == 60

    def test_engine_info_sizes_cli(self, base_store, capsys):
        from repro.cli import main

        assert main(["engine", "info", "--store", base_store.directory,
                     "--sizes"]) == 0
        out = capsys.readouterr().out
        assert "per-column on-disk bytes" in out
        assert "submit_time_s" in out


def path_jobs(lo, hi, prefix, name=None):
    """Jobs ``lo..hi``; ``prefix`` None leaves ``input_path`` unrecorded."""
    return [Job(job_id="a%05d" % index, submit_time_s=5.0 * index, duration_s=30.0,
                input_bytes=1e6 * (index + 1), shuffle_bytes=0.0, output_bytes=1e3,
                map_task_seconds=20.0, reduce_task_seconds=0.0, name=name,
                input_path=prefix and "%s/%d" % (prefix, index - lo))
            for index in range(lo, hi)]


def chunk_column(store, index, column):
    return store.read_chunk(index, columns=[column]).column(column).tolist()


class TestReusedDirectory:
    """Which columns a chunk has comes from the manifest and from what the
    call wrote — a file an earlier store left at that name is not data."""

    def test_rewrite_fills_over_a_stale_column_file(self, tmp_path):
        directory = tmp_path / "reused.store"
        ChunkedTraceStore.write(directory, path_jobs(0, 4, "/old"), chunk_rows=4)
        store = ChunkedTraceStore.write(
            directory, path_jobs(0, 4, None) + path_jobs(4, 8, "/new"), chunk_rows=4)
        assert chunk_column(store, 0, "input_path") == ["", "", "", ""]
        assert chunk_column(store, 1, "input_path") == ["/new/%d" % i for i in range(4)]

    def test_append_fills_over_a_stale_column_file(self, tmp_path):
        """Chunk 1 of an earlier, longer store is still lying in the directory."""
        directory = tmp_path / "reused.store"
        ChunkedTraceStore.write(directory, path_jobs(0, 8, "/old"), chunk_rows=4)
        ChunkedTraceStore.write(directory, path_jobs(0, 4, "/kept"), chunk_rows=4)
        store = append_store(directory, path_jobs(4, 8, None))
        assert chunk_column(store, 0, "input_path") == ["/kept/%d" % i for i in range(4)]
        assert chunk_column(store, 1, "input_path") == ["", "", "", ""]


def named_chunk_jobs(chunk, rows=16):
    """One chunk's worth of jobs; chunks 2 and 5 record no names, and every
    named chunk brings a value the chunks before it did not have."""
    name = None if chunk in (2, 5) else "w"
    jobs = path_jobs(chunk * rows, (chunk + 1) * rows, "/in", name=name)
    if name:
        for offset, job in enumerate(jobs):
            job.name = "w%d" % (offset % 5 + chunk)
    return jobs


def directory_bytes(directory):
    """Every file but the manifest as bytes, and the manifest minus what a
    write and a write + append must differ in."""
    files = {}
    for file_name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, file_name), "rb") as handle:
            files[file_name] = handle.read()
    manifest = json.loads(files.pop(MANIFEST_NAME))
    manifest.pop("store_uid")
    manifest.pop("manifest_sequence")
    return files, manifest


class TestWriteEqualsWriteThenAppend:
    """The standing guard on the one commit sequence: started from nothing or
    from an open store, the same chunks make the same bytes."""

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_same_chunks_same_bytes(self, tmp_path, k):
        chunks = [named_chunk_jobs(chunk) for chunk in range(8)]
        whole = ChunkedTraceStore.write(
            tmp_path / "whole", [job for chunk in chunks for job in chunk], chunk_rows=16)
        ChunkedTraceStore.write(
            tmp_path / "grown", [job for chunk in chunks[:k] for job in chunk], chunk_rows=16)
        grown = append_store(tmp_path / "grown",
                             [job for chunk in chunks[k:] for job in chunk])
        assert grown.n_chunks == whole.n_chunks == 8
        assert grown.manifest_sequence == 1 and whole.manifest_sequence == 0
        assert whole.string_encodings["name"] == "dict"
        whole_files, whole_manifest = directory_bytes(whole.directory)
        grown_files, grown_manifest = directory_bytes(grown.directory)
        assert sorted(grown_files) == sorted(whole_files)
        for file_name in whole_files:
            assert grown_files[file_name] == whole_files[file_name], file_name
        assert grown_manifest == whole_manifest

    def test_inline_padding_corner_is_pinned_by_values(self, tmp_path):
        """The one byte-order corner of the merge (see ``_commit_chunks``): a
        append pads a chunk that lacks a dictionary column *before* a later
        chunk of the same call brings new values, so the ``""`` code may come
        earlier than it used to.  Decoded values are what is promised."""
        chunks = [named_chunk_jobs(chunk) for chunk in range(4)]  # chunk 2: no names
        ChunkedTraceStore.write(tmp_path / "store", chunks[0], chunk_rows=16)
        store = append_store(tmp_path / "store",
                             [job for chunk in chunks[1:] for job in chunk])
        expected = [job.name or "" for chunk in chunks for job in chunk]
        decoded = [name for index in range(store.n_chunks)
                   for name in chunk_column(store, index, "name")]
        assert decoded == expected
        table = store.string_table("name")
        assert sorted(table.values) == sorted(set(expected))
        assert len(table.values) == len(set(table.values))
