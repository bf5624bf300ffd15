"""Trace serialization: CSV and JSON-lines round-trips, with optional gzip.

The on-disk formats mirror the per-job summaries Hadoop's history logs provide
(see §3 of the paper): one row per job, with the numeric dimensions plus the
optional name/path strings.  Both formats round-trip through
:meth:`Job.to_dict` / :meth:`Job.from_dict` so they stay in sync with the
schema automatically.

``iter_csv`` / ``iter_jsonl`` yield one validated :class:`Job` per row (the
row path); the :class:`RecordSource` from :func:`iter_trace` also hands the
store writer batches of parsed records that become columns with no ``Job``
per row (the block path).
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import os
import uuid
from itertools import islice
from typing import Iterable, Iterator, List, Optional

from ..errors import ReproError, TraceFormatError
from .schema import Job
from .trace import Trace

__all__ = [
    "RecordSource",
    "parse_json_lines",
    "write_csv",
    "read_csv",
    "iter_csv",
    "write_jsonl",
    "read_jsonl",
    "iter_jsonl",
    "write_trace",
    "read_trace",
    "iter_trace",
]

#: Column order for CSV output.  Optional columns are written as empty strings.
CSV_COLUMNS = [
    "job_id",
    "submit_time_s",
    "duration_s",
    "input_bytes",
    "shuffle_bytes",
    "output_bytes",
    "map_task_seconds",
    "reduce_task_seconds",
    "map_tasks",
    "reduce_tasks",
    "name",
    "framework",
    "input_path",
    "output_path",
    "workload",
    "cluster_label",
]

_NUMERIC_COLUMNS = {
    "submit_time_s",
    "duration_s",
    "input_bytes",
    "shuffle_bytes",
    "output_bytes",
    "map_task_seconds",
    "reduce_task_seconds",
}
_INT_COLUMNS = {"map_tasks", "reduce_tasks"}

#: Records parsed (and alive as dicts) at a time on the block path — fixed, so
#: memory does not follow the store's ``chunk_rows``.
BATCH_RECORDS = 8192


def _open_text(path, mode):
    """Open ``path`` as text, transparently handling a ``.gz`` suffix.

    Raises:
        TraceFormatError: when a trace file to read cannot be opened.
    """
    try:
        if str(path).endswith(".gz"):
            return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8")
        return open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        if mode != "r":
            raise
        raise TraceFormatError("cannot read trace file %s: %s" % (path, exc.strerror or exc))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------
def write_csv(trace: Trace, path) -> None:
    """Write a trace to ``path`` as CSV (gzip if the path ends with ``.gz``)."""
    with _open_text(path, "w") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for job in trace:
            row = job.to_dict()
            writer.writerow({key: ("" if row.get(key) is None else row.get(key)) for key in CSV_COLUMNS})


def iter_csv(path) -> Iterator[Job]:
    """Yield jobs from a CSV trace file one row at a time (lazy).

    The file stays open only while the generator is being consumed; memory
    use is one row.

    Raises:
        TraceFormatError: on a missing header or a malformed row.
    """
    for line_number, record in enumerate(_csv_records(path), start=2):
        yield _job(record, path, line_number)


def read_csv(path, name: Optional[str] = None, machines: Optional[int] = None) -> Trace:
    """Read a trace previously written by :func:`write_csv`.

    Rows are streamed via :func:`iter_csv` — the whole file is never held as
    text; only the resulting :class:`Job` objects are materialized.

    Raises:
        TraceFormatError: on a missing header or a malformed row.
    """
    return Trace(iter_csv(path), name=name or _default_name(path), machines=machines)


def _csv_records(path) -> Iterator[dict]:
    """The rows of a CSV trace as typed records; row ``k`` is line ``k + 2``."""
    with _open_text(path, "r") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "job_id" not in reader.fieldnames:
            raise TraceFormatError("%s: missing CSV header with a job_id column" % (path,))
        for line_number, row in enumerate(reader, start=2):
            yield _csv_record(row, path, line_number)


def _csv_record(row, path, line_number) -> dict:
    data = {}
    for key, value in row.items():
        if value is None or value == "":
            data[key] = None
            continue
        if key in _NUMERIC_COLUMNS:
            try:
                data[key] = float(value)
            except ValueError:
                raise TraceFormatError(
                    "%s line %d: column %s is not numeric: %r" % (path, line_number, key, value)
                )
        elif key in _INT_COLUMNS:
            try:
                data[key] = int(float(value))
            except (ValueError, OverflowError):  # "x", "nan"; "inf"
                raise TraceFormatError(
                    "%s line %d: column %s is not an integer: %r" % (path, line_number, key, value)
                )
        else:
            data[key] = value
    return data


def _batches(items: Iterable) -> Iterator[List]:
    """``items`` in lists of at most :data:`BATCH_RECORDS`."""
    items = iter(items)
    return iter(lambda: list(islice(items, BATCH_RECORDS)), [])


def _csv_batches(path):
    first = 2
    for batch in _batches(_csv_records(path)):
        yield batch, lambda index, exc, first=first: TraceFormatError(
            "%s line %d: %s" % (path, first + index, exc))
        first += len(batch)


def _job(record, path, line_number) -> Job:
    """One record down the row path; a schema violation names its line."""
    try:
        return Job.from_dict(record)
    except ReproError as exc:
        raise TraceFormatError("%s line %d: %s" % (path, line_number, exc)) from None


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------
def write_jsonl(trace: Trace, path) -> None:
    """Write a trace to ``path`` as JSON-lines (gzip if the path ends with ``.gz``)."""
    with _open_text(path, "w") as handle:
        for job in trace:
            record = {key: value for key, value in job.to_dict().items() if value is not None}
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


def iter_jsonl(path) -> Iterator[Job]:
    """Yield jobs from a JSON-lines trace file one record at a time (lazy).

    Raises:
        TraceFormatError: on malformed JSON or a record violating the schema.
    """
    with _open_text(path, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                yield _job(_parse_line(line, "%s line " % (path,), line_number),
                           path, line_number)


def _parse_line(line: str, where: str, number: int):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError("%s%d: not valid JSON: %s" % (where, number, exc)) from None


def parse_json_lines(lines: List[str], where: str, first: int = 1):
    """Parse a batch of JSON lines in one call; blank lines are skipped.

    ``where`` is what an error puts before a line number (``"t.jsonl line "``)
    and ``first`` the number of ``lines[0]``.  The lines are parsed joined into
    one JSON array (repeated keys are interned once per batch, not once per
    line) with a fresh random string between every two of them, and the batch
    is accepted only when the array alternates line value, separator, line
    value.  That holds exactly when each line is one JSON value: a string
    cannot run across a separator (the separator's hex digits cannot follow a
    closing quote), a line that opens a container or holds two values shifts
    the alternation, and no line can forge a separator it cannot know.
    Otherwise each line goes through ``json.loads`` alone to name the first
    bad one, as :func:`iter_jsonl` would.

    Returns ``(records, locate)``; ``locate(index, exc)`` is the located
    :class:`TraceFormatError` to raise when ``records[index]`` fails with ``exc``.
    """
    texts = [text for text in map(str.strip, lines) if text]

    def numbers():  # the file line of each record; only an error asks
        return [number for number, line in enumerate(lines, first) if line.strip()]

    separator = uuid.uuid4().hex
    try:
        values = json.loads("[%s]" % (',"%s",' % separator).join(texts))
    except json.JSONDecodeError:
        values = []
    records = values[0::2]
    if len(records) != len(texts) or values[1::2] != [separator] * (len(texts) - 1):
        records = [_parse_line(text, where, number)
                   for number, text in zip(numbers(), texts)]
    return records, lambda index, exc: TraceFormatError(
        "%s%d: %s" % (where, numbers()[index], exc))


def _jsonl_batches(path):
    with _open_text(path, "r") as handle:
        first = 1
        for lines in _batches(handle):
            yield parse_json_lines(lines, "%s line " % (path,), first)
            first += len(lines)


def read_jsonl(path, name: Optional[str] = None, machines: Optional[int] = None) -> Trace:
    """Read a trace previously written by :func:`write_jsonl`.

    Rows are streamed via :func:`iter_jsonl`; only the resulting :class:`Job`
    objects are materialized.

    Raises:
        TraceFormatError: on malformed JSON or a record violating the schema.
    """
    return Trace(iter_jsonl(path), name=name or _default_name(path), machines=machines)


# ---------------------------------------------------------------------------
# Format dispatch
# ---------------------------------------------------------------------------
def write_trace(trace: Trace, path) -> None:
    """Write a trace, choosing the format from the file extension.

    ``.csv`` / ``.csv.gz`` use CSV; ``.jsonl`` / ``.jsonl.gz`` use JSON lines.
    """
    if _strip_gz(path).endswith(".csv"):
        write_csv(trace, path)
    elif _strip_gz(path).endswith(".jsonl"):
        write_jsonl(trace, path)
    else:
        raise TraceFormatError("unknown trace format for %r (use .csv or .jsonl)" % (path,))


def read_trace(path, name: Optional[str] = None, machines: Optional[int] = None) -> Trace:
    """Read a trace, choosing the format from the file extension."""
    if _strip_gz(path).endswith(".csv"):
        return read_csv(path, name=name, machines=machines)
    if _strip_gz(path).endswith(".jsonl"):
        return read_jsonl(path, name=name, machines=machines)
    raise TraceFormatError("unknown trace format for %r (use .csv or .jsonl)" % (path,))


class RecordSource:
    """Job records on their way into a store, as batches of parsed dicts.

    ``batches`` yields ``(records, locate)`` pairs (see :func:`parse_json_lines`).
    The store writer and appender take :meth:`blocks`, which validates each
    batch and turns it into columns with no :class:`Job` per record.  ``jobs``
    is the row-path iterator a file source also offers: iterating the source
    yields from it, as :func:`iter_trace` always did.
    """

    def __init__(self, batches: Iterable, jobs: Optional[Iterator[Job]] = None):
        self._batches = batches
        self._jobs = jobs

    def __iter__(self) -> Iterator[Job]:
        return self

    def __next__(self) -> Job:
        return next(self._jobs)

    def blocks(self, chunk_rows: int):
        """The records as validated column blocks of at most ``chunk_rows`` rows."""
        from ..engine.columnar import record_blocks  # engine imports traces

        return record_blocks(self._batches, chunk_rows)


def iter_trace(path) -> RecordSource:
    """Stream jobs from a trace file lazily, choosing the format by extension.

    This is the bounded-memory entry point.  Iterating yields one :class:`Job`
    per row; handed to :meth:`repro.engine.ChunkedTraceStore.write` or
    :func:`repro.engine.append_store`, the same object streams
    :meth:`RecordSource.blocks` instead, so a trace file becomes a columnar
    store without a ``Job`` per row and without materializing the job list.
    """
    if _strip_gz(path).endswith(".csv"):
        return RecordSource(_csv_batches(path), iter_csv(path))
    if _strip_gz(path).endswith(".jsonl"):
        return RecordSource(_jsonl_batches(path), iter_jsonl(path))
    raise TraceFormatError("unknown trace format for %r (use .csv or .jsonl)" % (path,))


def _strip_gz(path):
    text = str(path)
    return text[:-3] if text.endswith(".gz") else text


def _default_name(path):
    base = os.path.basename(str(path))
    for suffix in (".gz", ".csv", ".jsonl"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    return base or "trace"
