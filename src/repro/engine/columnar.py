"""In-memory columnar representation of a job trace.

A :class:`ColumnarTrace` holds each per-job dimension as one contiguous NumPy
array instead of a Python list of :class:`~repro.traces.schema.Job` objects.
For the read-mostly analytical scans this library performs (Table 1 summaries,
the Figure CDFs, k-means features, Zipf fits) this is the layout the hardware
wants: a whole-column aggregate touches one cache-friendly array instead of
chasing a million object pointers.

Missing values are encoded uniformly:

* numeric columns use ``NaN`` (matching :meth:`Trace.dimension` semantics);
* string columns use the empty string, which round-trips to ``None`` — the
  same convention the CSV trace format already uses.

The module also defines :class:`ColumnBlock`, the batch-of-rows unit that the
scan operators in :mod:`repro.engine.operators` stream over; a chunk read from
a :class:`~repro.engine.store.ChunkedTraceStore` and a slice of an in-memory
:class:`ColumnarTrace` are both just blocks.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import AnalysisError, ReproError
from .codecs import StringDictionary
from ..traces.schema import Job, NUMERIC_DIMENSIONS, REQUIRED_FIELDS
from ..traces.trace import Trace

__all__ = [
    "ColumnBlock",
    "ColumnarTrace",
    "NUMERIC_COLUMNS",
    "STRING_COLUMNS",
    "DERIVED_COLUMNS",
    "DEFAULT_CHUNK_ROWS",
    "decode_records",
    "record_blocks",
]

#: Numeric columns stored per job (float64; NaN encodes "not recorded").
NUMERIC_COLUMNS = ("submit_time_s",) + NUMERIC_DIMENSIONS + ("map_tasks", "reduce_tasks")

#: String columns stored per job ("" encodes "not recorded", as in the CSV format).
STRING_COLUMNS = (
    "job_id",
    "name",
    "framework",
    "input_path",
    "output_path",
    "workload",
    "cluster_label",
)

#: Derived columns computable from the stored ones without materializing jobs.
DERIVED_COLUMNS = ("total_bytes", "total_task_seconds", "finish_time_s", "submit_hour")

ALL_COLUMNS = NUMERIC_COLUMNS + STRING_COLUMNS

#: Default rows per chunk for chunked iteration and the on-disk store.
DEFAULT_CHUNK_ROWS = 65536

_INT_COLUMNS = ("map_tasks", "reduce_tasks")


def _nan_to_zero(array: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(array), 0.0, array)


def _in_submit_order(times: np.ndarray, previous_end: float) -> bool:
    """Whether one chunk's (non-empty) submit times keep the stream sorted:
    non-decreasing, and not starting before ``previous_end`` (the last submit
    time of the chunks before it).  The one sortedness test — the store's
    ``sorted_by_submit_time`` flag and :class:`_OrderCheck` both ask it."""
    return not (times[0] < previous_end or np.any(times[:-1] > times[1:]))


class _OrderCheck:
    """Raises when chunks stream out of submit-time order (the pipeline's
    ordered lane, :meth:`TraceSource.iter_chunks_sorted`).  ``floor`` seeds a
    resumed scan with the last submit time its checkpointed prefix saw, so an
    appended chunk that dips below it is caught like any out-of-order chunk."""

    __slots__ = ("previous_end", "source_name")

    def __init__(self, source_name: str, floor: float = -np.inf):
        self.previous_end = floor
        self.source_name = source_name

    def check(self, block: ColumnBlock) -> None:
        if block.n_rows == 0:
            return
        times = block.column("submit_time_s")
        if not _in_submit_order(times, self.previous_end):
            raise AnalysisError(
                "source %r is not sorted by submit time; rewrite the store from a "
                "Trace/ColumnarTrace (or a sorted job iterable) before running "
                "order-sensitive analyses" % (self.source_name,))
        self.previous_end = float(times[-1])


class ColumnBlock:
    """A batch of job rows in column-major layout.

    This is the unit the scan operators stream: a dict of equally-sized NumPy
    arrays keyed by column name.  Blocks are cheap views wherever possible —
    :meth:`slice` returns array views, :meth:`select` copies only the selected
    rows.

    A block read from a format-v3 store may additionally carry
    **dictionary-encoded** string columns: ``codes`` holds the per-row
    ``uint32`` codes and ``dictionaries`` the per-column value tables.
    :meth:`column` materializes the strings lazily (and caches the result);
    code-native consumers use :meth:`codes_for` to fold over the integer
    codes without ever building the unicode array.
    """

    __slots__ = ("columns", "codes", "dictionaries")

    def __init__(self, columns: Dict[str, np.ndarray],
                 codes: Optional[Dict[str, np.ndarray]] = None,
                 dictionaries: Optional[Dict[str, StringDictionary]] = None):
        self.columns = columns
        self.codes = codes if codes is not None else {}
        self.dictionaries = dictionaries if dictionaries is not None else {}
        lengths = {array.shape[0] for array in columns.values()}
        lengths.update(array.shape[0] for array in self.codes.values())
        if len(lengths) > 1:
            raise AnalysisError("column block has ragged columns: %s" % (
                {name: arr.shape[0]
                 for name, arr in list(columns.items()) + list(self.codes.items())},))

    @property
    def n_rows(self) -> int:
        for array in self.columns.values():
            return int(array.shape[0])
        for array in self.codes.values():
            return int(array.shape[0])
        return 0

    def column_names(self) -> List[str]:
        """Every directly-stored column (decoded and dictionary-backed)."""
        names = list(self.columns)
        names.extend(name for name in self.codes if name not in self.columns)
        return names

    def codes_for(self, name: str):
        """``(uint32 codes, StringDictionary)`` for a dictionary-backed column.

        Returns ``None`` when the column is not dictionary-encoded — callers
        fall back to :meth:`column`.
        """
        codes = self.codes.get(name)
        if codes is None:
            return None
        return codes, self.dictionaries[name]

    def recorded_mask(self, name: str) -> np.ndarray:
        """True where the value is recorded ("finite" for strings and numbers).

        For a dictionary-backed column this compares codes against the code
        of ``""`` — no string materialization.
        """
        if name in self.codes and name not in self.columns:
            codes = self.codes[name]
            empty_code = self.dictionaries[name].lookup("")
            if empty_code is None:
                return np.ones(codes.shape[0], dtype=bool)
            return codes != np.uint32(empty_code)
        values = self.column(name)
        if values.dtype.kind in "US":
            return values != ""
        return np.isfinite(values)

    def materialized(self) -> Dict[str, np.ndarray]:
        """All stored columns as plain arrays (dictionary columns decoded)."""
        return {name: self.column(name) for name in self.column_names()}

    def column(self, name: str) -> np.ndarray:
        """One column by name, computing derived columns on the fly."""
        if name in self.columns:
            return self.columns[name]
        if name in self.codes:
            decoded = self.dictionaries[name].decode(self.codes[name])
            self.columns[name] = decoded  # cache: decode each chunk at most once
            return decoded
        if name == "total_bytes":
            return (_nan_to_zero(self.column("input_bytes"))
                    + _nan_to_zero(self.column("shuffle_bytes"))
                    + _nan_to_zero(self.column("output_bytes")))
        if name == "total_task_seconds":
            return (_nan_to_zero(self.column("map_task_seconds"))
                    + _nan_to_zero(self.column("reduce_task_seconds")))
        if name == "finish_time_s":
            return self.column("submit_time_s") + _nan_to_zero(self.column("duration_s"))
        if name == "submit_hour":
            return np.floor(self.column("submit_time_s") / 3600.0)
        raise AnalysisError("unknown column %r (have %s)" % (name, sorted(self.columns)))

    def has_column(self, name: str) -> bool:
        if name in self.columns or name in self.codes:
            return True
        if name == "total_bytes":
            return all(dim in self.columns for dim in ("input_bytes", "shuffle_bytes", "output_bytes"))
        if name == "total_task_seconds":
            return all(dim in self.columns for dim in ("map_task_seconds", "reduce_task_seconds"))
        if name == "finish_time_s":
            return all(dim in self.columns for dim in ("submit_time_s", "duration_s"))
        if name == "submit_hour":
            return "submit_time_s" in self.columns
        return False

    def select(self, mask: np.ndarray) -> "ColumnBlock":
        """Rows where ``mask`` is true, as a new block (codes stay codes)."""
        return ColumnBlock(
            {name: array[mask] for name, array in self.columns.items()},
            {name: array[mask] for name, array in self.codes.items()},
            self.dictionaries)

    def slice(self, start: int, stop: int) -> "ColumnBlock":
        """Rows ``[start, stop)`` as a view-backed block (no copy)."""
        return ColumnBlock(
            {name: array[start:stop] for name, array in self.columns.items()},
            {name: array[start:stop] for name, array in self.codes.items()},
            self.dictionaries)

    def take(self, indices: np.ndarray) -> "ColumnBlock":
        return ColumnBlock(
            {name: array[indices] for name, array in self.columns.items()},
            {name: array[indices] for name, array in self.codes.items()},
            self.dictionaries)

    def project(self, names: Sequence[str]) -> "ColumnBlock":
        """Only the named columns (derived ones are materialized).

        Dictionary-backed columns stay code-backed — projection never forces
        a string decode.
        """
        columns: Dict[str, np.ndarray] = {}
        codes: Dict[str, np.ndarray] = {}
        dictionaries: Dict[str, StringDictionary] = {}
        for name in names:
            if name in self.columns:
                columns[name] = self.columns[name]
            elif name in self.codes:
                codes[name] = self.codes[name]
                dictionaries[name] = self.dictionaries[name]
            else:
                columns[name] = self.column(name)
        return ColumnBlock(columns, codes, dictionaries)

    @staticmethod
    def concat(blocks: Sequence["ColumnBlock"]) -> "ColumnBlock":
        """Concatenate blocks row-wise (they must share a column set).

        Columns that are code-backed in *every* block against the *same*
        dictionary concatenate as codes; anything else materializes.
        """
        if not blocks:
            return ColumnBlock({})
        columns: Dict[str, np.ndarray] = {}
        codes: Dict[str, np.ndarray] = {}
        dictionaries: Dict[str, StringDictionary] = {}
        for name in blocks[0].column_names():
            first = blocks[0].codes_for(name)
            if first is not None and all(
                    (pair := block.codes_for(name)) is not None
                    and pair[1] is first[1] for block in blocks[1:]):
                codes[name] = np.concatenate([block.codes[name] for block in blocks])
                dictionaries[name] = first[1]
            else:
                columns[name] = np.concatenate([block.column(name) for block in blocks])
        return ColumnBlock(columns, codes, dictionaries)


class ColumnarTrace:
    """A whole trace in columnar form: one NumPy array per dimension.

    Supports the same analytical accessors as :class:`~repro.traces.trace.Trace`
    (``dimension``, ``feature_matrix``, ``summary``-style reductions, ``len``)
    without holding any :class:`Job` objects, plus chunked iteration for the
    scan operators.  Convert with :meth:`from_trace` / :meth:`to_trace` (also
    exposed as :meth:`Trace.to_columnar`).
    """

    def __init__(self, columns: Dict[str, np.ndarray], name: str = "trace",
                 machines: Optional[int] = None):
        normalized: Dict[str, np.ndarray] = {}
        n_rows = None
        for column in NUMERIC_COLUMNS:
            if column in columns:
                normalized[column] = np.asarray(columns[column], dtype=float)
                n_rows = normalized[column].shape[0]
        for column in STRING_COLUMNS:
            if column in columns:
                normalized[column] = np.asarray(columns[column], dtype=np.str_)
                n_rows = normalized[column].shape[0]
        unknown = set(columns) - set(ALL_COLUMNS)
        if unknown:
            raise AnalysisError("unknown trace columns: %s" % sorted(unknown))
        if n_rows is None:
            n_rows = 0
        self.block = ColumnBlock(normalized)
        self.name = name
        self.machines = machines
        # Establish the submit-time-sorted invariant that duration_s() and the
        # chunked store's sorted_by_submit_time manifest flag rely on.
        self._sort_by_submit_time()

    # -- construction ------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Convert a job-list :class:`Trace` (one pass over the jobs)."""
        return cls.from_jobs(trace.jobs, name=trace.name, machines=trace.machines)

    @classmethod
    def from_jobs(cls, jobs: Iterable[Job], name: str = "trace",
                  machines: Optional[int] = None) -> "ColumnarTrace":
        """Build from any iterable of jobs (e.g. a lazy trace-file reader)."""
        buffers: Dict[str, List] = {column: [] for column in ALL_COLUMNS}
        for job in jobs:
            _append_job(buffers, job)
        columns = _buffers_to_arrays(buffers)
        return cls(columns, name=name, machines=machines)

    def _sort_by_submit_time(self) -> None:
        if len(self) == 0 or "submit_time_s" not in self.block.columns:
            return
        times = self.block.column("submit_time_s")
        if times.size < 2 or bool(np.all(times[:-1] <= times[1:])):
            return  # already sorted (the common case): skip the take() copy
        order = np.argsort(times, kind="stable")
        self.block = self.block.take(order)

    def to_trace(self) -> Trace:
        """Materialize back into a job-list :class:`Trace`."""
        return Trace(self.iter_jobs(), name=self.name, machines=self.machines)

    def iter_jobs(self) -> Iterator[Job]:
        """Yield :class:`Job` objects row by row (materializes one at a time)."""
        for block in self.iter_chunks():
            for job in _block_to_jobs(block):
                yield job

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return self.block.n_rows

    def __repr__(self) -> str:
        return "ColumnarTrace(name=%r, n_jobs=%d)" % (self.name, len(self))

    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        if self.block.codes:
            self.block.materialized()  # decode v3 dictionary columns into the cache
        return self.block.columns

    # -- analytical accessors (Trace-compatible) ---------------------------
    def dimension(self, name: str) -> np.ndarray:
        """One numeric dimension as a float array (NaN for missing values).

        Accepts the same names as :meth:`Trace.dimension` plus the derived
        ``finish_time_s``.
        """
        if name not in NUMERIC_COLUMNS and name not in DERIVED_COLUMNS:
            raise AnalysisError("unknown job dimension: %r" % (name,))
        return self.block.column(name)

    def submit_times(self) -> np.ndarray:
        return self.block.column("submit_time_s")

    def feature_matrix(self) -> np.ndarray:
        """The (n_jobs, 6) k-means feature matrix (missing values as zero)."""
        if len(self) == 0:
            return np.zeros((0, len(NUMERIC_DIMENSIONS)))
        return np.column_stack([
            _nan_to_zero(self.block.column(dim)) for dim in NUMERIC_DIMENSIONS
        ])

    def map_only_mask(self) -> np.ndarray:
        """Boolean mask of jobs with no reduce stage (§4.1 map-only jobs)."""
        shuffle = _nan_to_zero(self.block.column("shuffle_bytes"))
        reduce_s = _nan_to_zero(self.block.column("reduce_task_seconds"))
        return (shuffle == 0.0) & (reduce_s == 0.0)

    # -- reductions (Table 1, without materializing jobs) ------------------
    def bytes_moved(self) -> float:
        return float(self.block.column("total_bytes").sum()) if len(self) else 0.0

    def total_task_seconds(self) -> float:
        return float(self.block.column("total_task_seconds").sum()) if len(self) else 0.0

    def duration_s(self) -> float:
        if len(self) == 0:
            return 0.0
        start = float(self.block.column("submit_time_s")[0])
        end = float(self.block.column("finish_time_s").max())
        return max(0.0, end - start)

    # -- slicing -----------------------------------------------------------
    def select(self, mask: np.ndarray, name: Optional[str] = None) -> "ColumnarTrace":
        """Rows where ``mask`` is true, as a new columnar trace."""
        selected = ColumnarTrace.__new__(ColumnarTrace)
        selected.block = self.block.select(mask)
        selected.name = name or self.name
        selected.machines = self.machines
        return selected

    def time_window(self, start_s: float, end_s: float) -> "ColumnarTrace":
        if end_s < start_s:
            raise AnalysisError("time window end %r precedes start %r" % (end_s, start_s))
        times = self.block.column("submit_time_s")
        return self.select((times >= start_s) & (times < end_s),
                           name="%s[%g:%g]" % (self.name, start_s, end_s))

    # -- chunked iteration (the scan-source protocol) ----------------------
    def iter_chunks(self, columns: Optional[Sequence[str]] = None,
                    chunk_rows: int = DEFAULT_CHUNK_ROWS) -> Iterator[ColumnBlock]:
        """Yield the trace as view-backed blocks of at most ``chunk_rows`` rows."""
        n = len(self)
        source = self.block if columns is None else self.block.project(columns)
        if n == 0:
            yield source
            return
        for start in range(0, n, chunk_rows):
            yield source.slice(start, min(n, start + chunk_rows))

    @property
    def n_chunks(self) -> int:
        return max(1, -(-len(self) // DEFAULT_CHUNK_ROWS))


# ---------------------------------------------------------------------------
# Job <-> column conversion helpers (shared with the chunked store writer)
# ---------------------------------------------------------------------------
def _append_job(buffers: Dict[str, List], job: Job) -> None:
    """Append one job's fields to per-column Python-list buffers."""
    for column in NUMERIC_COLUMNS:
        value = getattr(job, column)
        buffers[column].append(float(value) if value is not None else float("nan"))
    for column in STRING_COLUMNS:
        value = getattr(job, column)
        buffers[column].append(value if value is not None else "")


def _buffers_to_arrays(buffers: Dict[str, List]) -> Dict[str, np.ndarray]:
    """Convert per-column buffers to arrays, dropping all-missing string columns."""
    columns: Dict[str, np.ndarray] = {}
    for column in NUMERIC_COLUMNS:
        columns[column] = np.asarray(buffers[column], dtype=float)
    for column in STRING_COLUMNS:
        values = buffers[column]
        if column == "job_id" or any(values):
            columns[column] = np.asarray(values, dtype=np.str_)
    return columns


_NUMBER_TYPES = {int, float, type(None)}


def decode_records(records: Sequence, locate=None) -> Dict[str, List]:
    """Validate a batch of job records (parsed JSON/CSV dicts) column by column.

    The block path of ingest: it accepts exactly the records
    :meth:`Job.from_dict` accepts and returns the per-column value lists
    :func:`_append_job` would have built from the jobs, without building them.
    Records made of plain JSON values (``str`` ids and strings, ``int`` /
    ``float`` / ``None`` numbers, ``int`` task counts) are checked a column at
    a time; a batch holding anything else, or failing a check, goes record by
    record through ``Job.from_dict``, which either accepts it (numeric strings,
    bools, integral floats as counts) or raises for the first bad record.
    ``locate(index, exc)`` then supplies the exception to raise, naming where
    that record came from; without it ``exc`` itself is raised.
    """
    try:
        columns = _decode_plain(records)
    except (KeyError, OverflowError):  # a required key is missing; a huge int
        columns = None
    if columns is None:
        columns = {column: [] for column in ALL_COLUMNS}
        for index, record in enumerate(records):
            try:
                _append_job(columns, Job.from_dict(record))
            except ReproError as exc:
                raise (locate(index, exc) if locate else exc) from None
    return columns


def _decode_plain(records: Sequence) -> Optional[Dict[str, List]]:
    """The column lists of an all-plain, all-valid batch, else ``None``."""
    if set(map(type, records)) != {dict}:  # also an empty batch
        return None
    columns: Dict[str, List] = {
        name: [record[name] for record in records] for name in REQUIRED_FIELDS}
    for name in ALL_COLUMNS:
        if name not in columns:
            columns[name] = [record.get(name) for record in records]
    if set(map(type, columns["job_id"])) != {str} or not all(columns["job_id"]):
        return None
    for name in NUMERIC_COLUMNS:
        kinds = set(map(type, columns[name]))
        if not kinds <= _NUMBER_TYPES or (name in _INT_COLUMNS and float in kinds):
            return None
        negative = np.asarray(columns[name], dtype=float) < 0  # OverflowError: 10**400
        if name != "submit_time_s" and negative.any():
            return None
    for name in STRING_COLUMNS[1:]:
        kinds = set(map(type, columns[name]))
        if not kinds <= {str, type(None)}:
            return None
        if type(None) in kinds:
            columns[name] = [value or "" for value in columns[name]]
    return columns


def _column_blocks(batches: Iterable[Dict[str, List]],
                   chunk_rows: int) -> Iterator[ColumnBlock]:
    """Re-chunk batches of column lists into blocks of at most ``chunk_rows`` rows.

    Arrays are built once per *chunk*, not per batch: a chunk's string width
    and its set of recorded string columns must not depend on the batch size.
    An empty stream still yields one (empty) block.
    """
    buffers: Dict[str, List] = {column: [] for column in ALL_COLUMNS}
    yielded = False
    for batch in batches:
        for column, values in batch.items():
            buffers[column].extend(values)
        start, rows = 0, len(buffers["job_id"])
        while rows - start >= chunk_rows:
            yield ColumnBlock(_buffers_to_arrays(
                {column: values[start:start + chunk_rows]
                 for column, values in buffers.items()}))
            yielded = True
            start += chunk_rows
        if start:
            buffers = {column: values[start:] for column, values in buffers.items()}
    if buffers["job_id"] or not yielded:
        yield ColumnBlock(_buffers_to_arrays(buffers))


def record_blocks(batches: Iterable, chunk_rows: int) -> Iterator[ColumnBlock]:
    """Column blocks from ``(records, locate)`` batches (see :func:`decode_records`)."""
    return _column_blocks(
        (decode_records(records, locate) for records, locate in batches), chunk_rows)


def _block_to_jobs(block: ColumnBlock) -> Iterator[Job]:
    """Reconstruct jobs from a block (inverse of :func:`_append_job`)."""
    numeric = {name: block.column(name) for name in NUMERIC_COLUMNS if block.has_column(name)}
    strings = {name: block.column(name) for name in STRING_COLUMNS if block.has_column(name)}
    for row in range(block.n_rows):
        data: Dict[str, object] = {}
        for name, array in numeric.items():
            value = float(array[row])
            if np.isnan(value):
                data[name] = None
            elif name in _INT_COLUMNS:
                data[name] = int(value)
            else:
                data[name] = value
        for name, array in strings.items():
            value = str(array[row])
            data[name] = value if value else None
        yield Job.from_dict(data)
