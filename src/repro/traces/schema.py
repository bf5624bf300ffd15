"""Job-level trace schema.

The paper's traces (§3) contain per-job summaries with the following
dimensions: job ID, job name, input/shuffle/output data sizes in bytes, job
duration, submit time, map and reduce task times in slot-seconds, map and
reduce task counts, and input/output file paths.  :class:`Job` captures
exactly these fields plus the derived quantities the analyses need.

Some traces are missing some dimensions (the paper notes FB-2009 and CC-a lack
path names, FB-2010 lacks output paths and job names).  Missing string fields
are represented as ``None``; missing numeric fields are represented as ``None``
too, never as zero, so "zero bytes" and "not recorded" stay distinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Optional

from ..errors import SchemaError, TraceFormatError

__all__ = ["Job", "NUMERIC_DIMENSIONS", "FEATURE_DIMENSIONS", "REQUIRED_FIELDS",
           "extract_first_word"]


def extract_first_word(name: Optional[str]) -> Optional[str]:
    """First word of a job name, lower-cased and stripped of digits/symbols.

    This mirrors §6.1 of the paper: "we focus on the first word of job names,
    ignoring any capitalization, numbers, or other symbols."  Returns ``None``
    for missing/empty names or when nothing alphabetic remains.  Shared by
    :attr:`Job.first_word` and the columnar naming analysis so both paths
    classify names identically.
    """
    if not name:
        return None
    stripped = name.strip()
    token = stripped.split()[0] if stripped else ""
    cleaned = "".join(ch for ch in token.lower() if ch.isalpha())
    return cleaned or None

#: Numeric per-job dimensions, in the order used throughout the library.
NUMERIC_DIMENSIONS = (
    "input_bytes",
    "shuffle_bytes",
    "output_bytes",
    "duration_s",
    "map_task_seconds",
    "reduce_task_seconds",
)

#: The six dimensions used by the paper's k-means clustering (§6.2).
FEATURE_DIMENSIONS = NUMERIC_DIMENSIONS

#: Keys a job record must carry (their values may still be ``None``), in the
#: order :meth:`Job.validate` checks them.
REQUIRED_FIELDS = ("job_id", "submit_time_s", "duration_s", "input_bytes",
                   "shuffle_bytes", "output_bytes", "map_task_seconds",
                   "reduce_task_seconds")


@dataclass
class Job:
    """A single MapReduce job record.

    Attributes:
        job_id: unique identifier within a trace.
        submit_time_s: submission time in seconds from the trace origin.
        duration_s: wall-clock duration of the job in seconds.
        input_bytes: bytes read by map tasks from the distributed filesystem.
        shuffle_bytes: bytes moved from map output to reduce input
            (zero for map-only jobs).
        output_bytes: bytes written by the final stage.
        map_task_seconds: total map task time (slot-seconds).
        reduce_task_seconds: total reduce task time (slot-seconds);
            zero for map-only jobs.
        map_tasks: number of map tasks, if recorded.
        reduce_tasks: number of reduce tasks, if recorded.
        name: user- or framework-supplied job name, if recorded.
        framework: name of the submitting framework (``"hive"``, ``"pig"``,
            ``"oozie"``, ``"native"``), if known.
        input_path: hashed path of the primary input file, if recorded.
        output_path: hashed path of the primary output file, if recorded.
        workload: name of the workload this job belongs to (e.g. ``"FB-2009"``).
        cluster_label: label of the Table-2 style job class this job was drawn
            from or assigned to, if any.
    """

    job_id: str
    submit_time_s: float
    duration_s: float
    input_bytes: float
    shuffle_bytes: float
    output_bytes: float
    map_task_seconds: float
    reduce_task_seconds: float
    map_tasks: Optional[int] = None
    reduce_tasks: Optional[int] = None
    name: Optional[str] = None
    framework: Optional[str] = None
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    workload: Optional[str] = None
    cluster_label: Optional[str] = None

    def __post_init__(self):
        self.validate()

    # ------------------------------------------------------------------
    # Validation and derived quantities
    # ------------------------------------------------------------------
    def validate(self):
        """Check field types and value ranges; raise :class:`SchemaError` if bad."""
        if not self.job_id:
            raise SchemaError("job_id must be a non-empty string")
        for field_name in REQUIRED_FIELDS[1:]:
            value = getattr(self, field_name)
            if value is None:
                continue
            try:
                value = float(value)
            except (TypeError, ValueError, OverflowError):
                raise SchemaError(
                    "job %s: field %s must be numeric, got %r"
                    % (self.job_id, field_name, getattr(self, field_name))
                )
            setattr(self, field_name, value)
            if field_name != "submit_time_s" and value < 0:
                raise SchemaError(
                    "job %s: field %s must be non-negative, got %r"
                    % (self.job_id, field_name, value)
                )
        for field_name in ("map_tasks", "reduce_tasks"):
            value = getattr(self, field_name)
            if value is None:
                continue
            try:
                valid = int(value) == value and float(value) >= 0
            except (TypeError, ValueError, OverflowError):  # "x", NaN, [1], 10**400
                valid = False
            if not valid:
                raise SchemaError(
                    "job %s: field %s must be a non-negative integer, got %r"
                    % (self.job_id, field_name, value)
                )
            setattr(self, field_name, int(value))

    # Derived quantities -------------------------------------------------
    @property
    def total_bytes(self):
        """Input + shuffle + output bytes — the "bytes moved" of Table 1."""
        return (self.input_bytes or 0.0) + (self.shuffle_bytes or 0.0) + (self.output_bytes or 0.0)

    @property
    def total_task_seconds(self):
        """Map + reduce task time, the paper's per-job compute measure."""
        return (self.map_task_seconds or 0.0) + (self.reduce_task_seconds or 0.0)

    @property
    def finish_time_s(self):
        """Submission time plus duration."""
        return self.submit_time_s + (self.duration_s or 0.0)

    @property
    def is_map_only(self):
        """True when the job has no reduce stage (zero shuffle and reduce time)."""
        return (self.shuffle_bytes or 0.0) == 0.0 and (self.reduce_task_seconds or 0.0) == 0.0

    @property
    def first_word(self):
        """First word of the job name, lower-cased and stripped of digits/symbols.

        This mirrors §6.1: "we focus on the first word of job names, ignoring
        any capitalization, numbers, or other symbols."  Returns ``None`` when
        the trace did not record job names.
        """
        return extract_first_word(self.name)

    # Serialization -------------------------------------------------------
    def to_dict(self):
        """Return a plain dict of all fields (for JSON/CSV serialization)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        """Build a :class:`Job` from a dict produced by :meth:`to_dict`.

        Unknown keys are ignored so traces written by newer versions can be
        read by older ones.

        Raises:
            TraceFormatError: ``data`` is not a dict (a JSON line holding
                ``42``, ``null`` or a list).
            SchemaError: a required field is missing or a value is invalid.
        """
        if not isinstance(data, dict):
            raise TraceFormatError("record must be a JSON object, got %s"
                                   % (type(data).__name__,))
        kwargs = {key: value for key, value in data.items() if key in _JOB_FIELDS}
        missing = _REQUIRED_FIELD_SET - kwargs.keys()
        if missing:
            raise SchemaError("job record missing required fields: %s" % sorted(missing))
        return cls(**kwargs)


_JOB_FIELDS = frozenset(Job.__dataclass_fields__)  # type: ignore[attr-defined]
_REQUIRED_FIELD_SET = frozenset(REQUIRED_FIELDS)
