"""Background feed tailing: append fresh jobs to catalog stores as they land.

A **feed** is a growing JSONL trace file (the schema of
:func:`repro.traces.io.iter_jsonl` — one job record per line) that some
external producer appends to.  The :class:`FeedTailer` polls the file, parses
every *complete* line beyond its persisted byte offset, and commits the new
jobs to the target store with the crash-safe
:func:`~repro.engine.store.append_store` path; the offset is persisted to the
service state directory after each commit, so a daemon restart resumes
exactly where the previous run left off.  The ordering is
append-then-offset: a crash between the two re-appends the same lines on
restart (at-least-once ingest) — producers that need exactly-once semantics
should write idempotent job ids.

A line that has been started but not yet terminated with a newline is left
for the next poll — partial JSON is never parsed.  The complete lines of a
poll are parsed in one batch and decoded straight into column blocks
(:func:`repro.traces.io.parse_json_lines`, no ``Job`` per record).  A line
that is not valid JSON, not a JSON object, or violates the schema raises a
:class:`~repro.errors.ReproError` naming it; the tailer records the error,
skips that poll, and retries later (the producer may still be writing).

Appends are serialized through ``append_lock`` — the daemon passes its
per-process append I/O lock so a feed poll and a concurrent
``POST /append`` to the same store never race the
read-manifest → write-manifest swap (each would otherwise write chunk
files with the same indices and the last manifest swap would silently win).
The lock only covers appends issued *by this daemon*: an externally-run
``repro engine ingest`` against a store the daemon may append to is unsafe
while the daemon is running.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Optional

from ..engine.codecs import durable_replace
from ..engine.store import append_store
from ..errors import ReproError
from ..traces.io import RecordSource, parse_json_lines

__all__ = ["FeedTailer"]


class FeedTailer:
    """Tails one JSONL feed file into one named store."""

    def __init__(self, store_name: str, feed_path: str, store_directory: str,
                 state_dir: str,
                 append_lock: Optional[threading.Lock] = None):
        self.store_name = store_name
        self.feed_path = feed_path
        self.store_directory = store_directory
        # Shared with the daemon's append endpoint so the two append paths
        # never swap the same manifest concurrently.
        self.append_lock = append_lock if append_lock is not None \
            else threading.Lock()
        self.offset_path = os.path.join(
            state_dir, "feed-%s.offset" % (store_name,))
        self.offset = self._load_offset()
        self.appended_jobs = 0
        self.polls = 0
        self.last_error: Optional[str] = None

    def _load_offset(self) -> int:
        try:
            with open(self.offset_path, "r", encoding="utf-8") as handle:
                return max(0, int(json.load(handle)["offset"]))
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return 0

    def _save_offset(self) -> None:
        # Durable: a torn offset file reads as 0 and re-ingests the whole feed.
        document = {"offset": self.offset, "feed": self.feed_path}
        durable_replace([(self.offset_path, json.dumps(document).encode("utf-8"))])

    def poll(self) -> int:
        """Read complete new lines, append their jobs, persist the offset.

        Returns the number of jobs appended (0 when the feed has not grown).
        Blocking — call from a worker thread.
        """
        self.polls += 1
        try:
            size = os.path.getsize(self.feed_path)
        except OSError:
            return 0  # feed not created yet
        if size <= self.offset:
            return 0
        with open(self.feed_path, "rb") as handle:
            handle.seek(self.offset)
            payload = handle.read(size - self.offset)
        # Only parse up to the last newline: a partially written trailing
        # line stays in the feed for the next poll.
        cut = payload.rfind(b"\n")
        if cut < 0:
            return 0
        complete, consumed = payload[: cut + 1], cut + 1
        try:
            text = complete.decode("utf-8")
        except UnicodeDecodeError as exc:
            self.last_error = "feed contains invalid UTF-8: %s" % (exc,)
            return 0
        where = "%s past byte %d, line " % (self.feed_path, self.offset)
        try:
            records, locate = parse_json_lines(text.splitlines(), where)
            if records:
                with self.append_lock:
                    append_store(self.store_directory,
                                 RecordSource([(records, locate)]))
        except ReproError as exc:
            self.last_error = str(exc)
            return 0
        self.appended_jobs += len(records)
        self.offset += consumed
        self._save_offset()
        self.last_error = None
        return len(records)

    def status(self) -> Dict:
        return {
            "store": self.store_name,
            "feed": self.feed_path,
            "offset": self.offset,
            "appended_jobs": self.appended_jobs,
            "polls": self.polls,
            "last_error": self.last_error,
        }
