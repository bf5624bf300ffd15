"""Feed tailing: offsets, partial lines, malformed input, daemon integration."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.engine import ChunkedTraceStore
from repro.service import FeedTailer, ServiceClient, ServiceThread


def _feed_line(job) -> bytes:
    return (json.dumps(job.to_dict()) + "\n").encode("utf-8")


class TestFeedTailer:
    def _tailer(self, tmp_path, catalog_dir):
        feed = tmp_path / "feed.jsonl"
        feed.touch()
        state = tmp_path / "state"
        state.mkdir()
        return FeedTailer("fb", str(feed), os.path.join(catalog_dir, "fb"),
                          str(state)), feed

    def test_appends_complete_lines_and_persists_offset(self, tmp_path,
                                                        catalog_dir,
                                                        cc_service_trace):
        tailer, feed = self._tailer(tmp_path, catalog_dir)
        store_dir = os.path.join(catalog_dir, "fb")
        n_before = len(ChunkedTraceStore(store_dir))
        jobs = cc_service_trace.jobs[:3]
        with open(feed, "ab") as handle:
            for job in jobs:
                handle.write(_feed_line(job))
        assert tailer.poll() == 3
        assert len(ChunkedTraceStore(store_dir)) == n_before + 3
        assert tailer.poll() == 0  # nothing new
        # A restarted tailer resumes from the persisted offset.
        resumed = FeedTailer("fb", str(feed), store_dir,
                             os.path.dirname(tailer.offset_path))
        assert resumed.offset == tailer.offset
        assert resumed.poll() == 0

    def test_partial_trailing_line_waits_for_its_newline(self, tmp_path,
                                                         catalog_dir,
                                                         cc_service_trace):
        tailer, feed = self._tailer(tmp_path, catalog_dir)
        complete = _feed_line(cc_service_trace.jobs[0])
        partial = _feed_line(cc_service_trace.jobs[1])
        with open(feed, "ab") as handle:
            handle.write(complete + partial[:10])  # producer mid-write
        assert tailer.poll() == 1
        offset_after_first = tailer.offset
        assert offset_after_first == len(complete)
        with open(feed, "ab") as handle:
            handle.write(partial[10:])
        assert tailer.poll() == 1
        assert tailer.offset == len(complete) + len(partial)

    def test_malformed_line_recorded_not_consumed(self, tmp_path, catalog_dir):
        tailer, feed = self._tailer(tmp_path, catalog_dir)
        with open(feed, "ab") as handle:
            handle.write(b"{broken json\n")
        assert tailer.poll() == 0
        assert "not valid JSON" in tailer.last_error
        assert tailer.offset == 0  # nothing consumed; retried next poll
        status = tailer.status()
        assert status["store"] == "fb" and status["polls"] == 1

    @pytest.mark.parametrize("line, reason", [
        (b"42\n", "record must be a JSON object"),
        (b'{"job_id": "j", "map_tasks": "x"}\n', "missing required fields"),
    ])
    def test_bad_record_recorded_not_consumed(self, tmp_path, catalog_dir,
                                              cc_service_trace, line, reason):
        """A non-object line used to escape poll() as AttributeError."""
        tailer, feed = self._tailer(tmp_path, catalog_dir)
        good = json.dumps(cc_service_trace.jobs[0].to_dict()).encode() + b"\n"
        with open(feed, "ab") as handle:
            handle.write(good + line)
        assert tailer.poll() == 0
        assert "line 2" in tailer.last_error and reason in tailer.last_error
        assert tailer.offset == 0 and tailer.appended_jobs == 0

    def test_lines_that_only_parse_joined_are_rejected(self, tmp_path, catalog_dir,
                                                       compensating_jsonl):
        """Joined with commas the poll would have appended four jobs."""
        tailer, feed = self._tailer(tmp_path, catalog_dir)
        feed.write_text(compensating_jsonl)
        assert tailer.poll() == 0
        assert "line 2: not valid JSON: Extra data" in tailer.last_error
        assert tailer.offset == 0 and tailer.appended_jobs == 0

    def test_missing_feed_file_is_not_an_error(self, tmp_path, catalog_dir):
        tailer = FeedTailer("fb", str(tmp_path / "never-created.jsonl"),
                            os.path.join(catalog_dir, "fb"), str(tmp_path))
        assert tailer.poll() == 0
        assert tailer.last_error is None

    def test_invalid_utf8_recorded_not_fatal(self, tmp_path, catalog_dir):
        tailer, feed = self._tailer(tmp_path, catalog_dir)
        with open(feed, "ab") as handle:
            handle.write(b"\xff\xfe not utf-8 \xff\n")
        assert tailer.poll() == 0
        assert "UTF-8" in tailer.last_error
        assert tailer.offset == 0  # nothing consumed

    def test_append_runs_under_the_shared_lock(self, tmp_path, catalog_dir,
                                               cc_service_trace):
        """The daemon's append I/O lock must cover feed-tailer appends too —
        otherwise a tailed store receiving POST /append races the manifest
        swap and silently loses one append."""
        import threading

        class RecordingLock:
            def __init__(self):
                self.entered = 0
                self._lock = threading.Lock()

            def __enter__(self):
                self.entered += 1
                return self._lock.__enter__()

            def __exit__(self, *exc_info):
                return self._lock.__exit__(*exc_info)

        feed = tmp_path / "feed.jsonl"
        feed.touch()
        state = tmp_path / "state"
        state.mkdir()
        lock = RecordingLock()
        tailer = FeedTailer("fb", str(feed), os.path.join(catalog_dir, "fb"),
                            str(state), append_lock=lock)
        with open(feed, "ab") as handle:
            handle.write(_feed_line(cc_service_trace.jobs[0]))
        assert tailer.poll() == 1
        assert lock.entered == 1


class TestDaemonFeedLoop:
    def test_feed_appends_reach_the_store_and_invalidate(self, catalog_dir,
                                                         tmp_path,
                                                         cc_service_trace):
        feed = tmp_path / "fb-feed.jsonl"
        feed.touch()
        with open(os.devnull, "w") as sink:
            with ServiceThread(catalog_dir, batch_window_s=0.02,
                               poll_interval_s=0.05,
                               feeds={"fb": str(feed)},
                               log_stream=sink) as thread:
                # Daemon-driven appends (endpoint + tailer) share one lock.
                assert thread.service.tailers[0].append_lock \
                    is thread.service._append_io_lock
                client = ServiceClient(port=thread.port)
                n_before = client.get("/v1/stores/fb").json()["n_jobs"]
                assert client.query("fb", agg=["count"]).cache == "miss"
                assert client.query("fb", agg=["count"]).cache == "hit"
                with open(feed, "ab") as handle:
                    for job in cc_service_trace.jobs[:5]:
                        handle.write(_feed_line(job))
                deadline = time.time() + 15
                while time.time() < deadline:
                    feeds = client.get("/v1/feeds").json()["feeds"]
                    if feeds[0]["appended_jobs"] == 5:
                        break
                    time.sleep(0.05)
                assert feeds[0]["appended_jobs"] == 5
                fresh = client.query("fb", agg=["count"])
                assert fresh.cache == "miss"  # tailer append invalidated fb
                info = client.get("/v1/stores/fb").json()
                assert info["n_jobs"] == n_before + 5
                assert info["manifest_sequence"] == 1

    def test_feed_loop_survives_invalid_utf8(self, catalog_dir, tmp_path,
                                             cc_service_trace):
        """A feed line with invalid UTF-8 must not kill the feed task — the
        error is reported via /v1/feeds and tailing resumes once the
        producer fixes the feed."""
        feed = tmp_path / "fb-feed.jsonl"
        feed.write_bytes(b"\xff\xfe broken \xff\n")
        with open(os.devnull, "w") as sink:
            with ServiceThread(catalog_dir, batch_window_s=0.02,
                               poll_interval_s=0.05,
                               feeds={"fb": str(feed)},
                               log_stream=sink) as thread:
                client = ServiceClient(port=thread.port)
                deadline = time.time() + 15
                feeds = []
                while time.time() < deadline:
                    feeds = client.get("/v1/feeds").json()["feeds"]
                    if feeds[0]["last_error"]:
                        break
                    time.sleep(0.05)
                assert "UTF-8" in feeds[0]["last_error"]
                # The producer rewrites the feed with valid lines: the loop
                # is still alive and picks them up.
                with open(feed, "wb") as handle:
                    for job in cc_service_trace.jobs[:2]:
                        handle.write(_feed_line(job))
                deadline = time.time() + 15
                while time.time() < deadline:
                    feeds = client.get("/v1/feeds").json()["feeds"]
                    if feeds[0]["appended_jobs"] == 2:
                        break
                    time.sleep(0.05)
                assert feeds[0]["appended_jobs"] == 2


class TestDurableWriters:
    """Every durable file goes through the one write → fsync → rename seam
    (``repro.engine.codecs.durable_replace``).  The feed offset used to rename
    an un-flushed, un-fsynced temporary: a crash could leave an empty offset
    file, which reads as 0 and re-ingests the whole feed."""

    WRITERS = ("manifest", "dictionary", "indexes", "index_run", "checkpoint",
               "feed_offset")

    @pytest.mark.parametrize("writer", WRITERS)
    def test_every_temporary_is_fsynced_before_its_rename(self, writer, tmp_path,
                                                          monkeypatch,
                                                          cc_service_trace):
        from repro.core import run_characterization_scan
        from repro.engine import (Checkpoint, StoreDictionary, append_store,
                                  build_indexes)

        jobs = cc_service_trace.jobs
        directory = str(tmp_path / "store")
        store = ChunkedTraceStore.write(directory, jobs[:200], chunk_rows=64)
        checkpoint_path = str(tmp_path / "scan.ck.json")
        feed = tmp_path / "feed.jsonl"
        feed.write_bytes(_feed_line(jobs[200]))
        tailer = FeedTailer("s", str(feed), directory, str(tmp_path))
        manifest_path = os.path.join(directory, "manifest.json")
        run_files = [os.path.join(directory, "index.%s.run-%d.npz"
                                  % (column, store.manifest_sequence + 1))
                     for column in build_indexes(store).columns]
        # (what to run, the final paths it must rename into place, in order)
        action, finals = {
            "manifest": (lambda: append_store(directory, jobs[201:230]),
                         [os.path.join(directory, "dictionary.json"), manifest_path]),
            "dictionary": (lambda: StoreDictionary.load(directory).save(directory),
                           [os.path.join(directory, "dictionary.json")]),
            "indexes": (lambda: build_indexes(store).save(),
                        [os.path.join(directory, "index.%s.npz" % column)
                         for column in build_indexes(store).columns]
                        + [os.path.join(directory, "index.json")]),
            # an append into an indexed store: the commit, then one run per column
            "index_run": (lambda: append_store(directory, jobs[201:230]),
                          [os.path.join(directory, "dictionary.json"), manifest_path]
                          + run_files + [os.path.join(directory, "index.json")]),
            "checkpoint": (lambda: run_characterization_scan(
                               store, experiments=["table1"],
                               checkpoint_to=checkpoint_path),
                           [checkpoint_path + ".npz", checkpoint_path]),
            "feed_offset": (tailer.poll,
                            [os.path.join(directory, "dictionary.json"), manifest_path,
                             tailer.offset_path]),
        }[writer]
        if writer == "feed_offset":
            action()  # the recorded poll rolls an existing offset file forward
            with open(feed, "ab") as handle:
                handle.write(_feed_line(jobs[231]))
        elif writer == "index_run":
            build_indexes(store).save()  # the runs themselves are new files
        elif writer != "manifest":
            action()  # so that every final path exists and has an inode to lose
        inodes_before = {path: os.stat(path).st_ino if os.path.exists(path) else None
                         for path in finals}

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(source, target):
            events.append(("replace", os.stat(source).st_ino, os.fspath(target)))
            real_replace(source, target)

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", fsync)
            patch.setattr(os, "replace", replace)
            action()

        renames = [event for event in events if event[0] == "replace"]
        assert [target for _kind, _inode, target in renames] == finals
        fsynced = set()
        for event in events:
            if event[0] == "fsync":
                fsynced.add(event[1])
            else:
                assert event[1] in fsynced, "renamed before fsync: %s" % event[2]
        if writer in ("checkpoint", "indexes"):
            # one seam call: every temporary is durable before the first rename
            first_rename = events.index(renames[0])
            assert len([e for e in events[:first_rename] if e[0] == "fsync"]) == len(finals)
        if writer == "index_run":
            # the runs + index.json are one seam call after the store's commit
            first_run = events.index(renames[2])
            since_commit = events[events.index(renames[1]) + 1:first_run]
            assert len([e for e in since_commit if e[0] == "fsync"]) == len(run_files) + 1
        for _kind, inode, target in renames:
            # the final path is the fsynced temporary, not an in-place rewrite
            assert os.stat(target).st_ino == inode != inodes_before[target]
        if writer == "checkpoint":
            assert Checkpoint.load(checkpoint_path).chunk_watermark == store.n_chunks
        if writer == "feed_offset":
            assert json.load(open(tailer.offset_path))["offset"] == tailer.offset \
                == feed.stat().st_size

    def test_each_payload_is_released_before_the_next_is_built(self, tmp_path):
        """``StoreIndexes.save`` hands the seam a generator of column payloads;
        the seam must drop payload k before asking for k + 1, or two columns'
        serialised bytes are alive at once."""
        import sys

        from repro.engine.codecs import durable_replace

        held = []

        def files():
            for k in range(4):
                if held:
                    # references beyond this list and getrefcount's argument
                    # (counted outside the assert, whose rewriting adds one)
                    elsewhere = sys.getrefcount(held[-1]) - 2
                    held.pop()
                    assert elsewhere == 0, "payload %d still held" % (k - 1)
                held.append(bytes(1 << 16) + bytes([k]))
                yield str(tmp_path / ("f%d" % k)), held[-1]

        durable_replace(files())
        assert sorted(os.listdir(tmp_path)) == ["f0", "f1", "f2", "f3"]
