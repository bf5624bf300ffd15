"""Trace container: an ordered collection of :class:`~repro.traces.schema.Job`.

A :class:`Trace` is the unit every analysis, synthesizer and replayer in this
library consumes.  It provides filtering, sorting, time-window slicing, merge,
and the summary statistics reported in Table 1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..errors import AnalysisError
from ..units import format_bytes, format_duration
from .schema import Job, NUMERIC_DIMENSIONS

__all__ = ["Trace", "TraceSummary"]


@dataclass
class TraceSummary:
    """Summary of a trace, mirroring a row of the paper's Table 1.

    Attributes:
        name: workload name.
        machines: number of machines in the originating cluster (if known).
        length_s: trace length in seconds (last finish minus first submit).
        start_s: earliest submit time.
        end_s: latest finish time.
        n_jobs: number of jobs.
        bytes_moved: sum over jobs of input + shuffle + output bytes.
        total_task_seconds: sum of map + reduce task time over jobs.
    """

    name: str
    machines: Optional[int]
    length_s: float
    start_s: float
    end_s: float
    n_jobs: int
    bytes_moved: float
    total_task_seconds: float

    def as_row(self):
        """Render the summary as a list of human-readable strings (Table 1 row)."""
        return [
            self.name,
            str(self.machines) if self.machines is not None else "-",
            format_duration(self.length_s),
            str(self.n_jobs),
            format_bytes(self.bytes_moved),
        ]


class Trace:
    """An ordered, immutable-ish collection of jobs from one workload.

    Jobs are kept sorted by submission time.  The container supports the
    sequence protocol (``len``, indexing, iteration) plus the filtering and
    summarizing operations the characterization pipeline needs.
    """

    def __init__(self, jobs: Iterable[Job], name: str = "trace", machines: Optional[int] = None):
        self._jobs: List[Job] = sorted(jobs, key=lambda job: job.submit_time_s)
        self.name = name
        self.machines = machines
        #: Extracted-column cache: repeated analyses over the same trace reuse
        #: one array per dimension instead of re-walking the job list.
        self._column_cache: Dict[str, np.ndarray] = {}

    # -- sequence protocol -------------------------------------------------
    def __len__(self):
        return len(self._jobs)

    def __iter__(self):
        return iter(self._jobs)

    def __getitem__(self, index):
        result = self._jobs[index]
        if isinstance(index, slice):
            return Trace(result, name=self.name, machines=self.machines)
        return result

    def __repr__(self):
        return "Trace(name=%r, n_jobs=%d)" % (self.name, len(self._jobs))

    @property
    def jobs(self):
        """The underlying job list (sorted by submit time).  Do not mutate."""
        return self._jobs

    def is_empty(self):
        return not self._jobs

    # -- basic accessors ---------------------------------------------------
    def submit_times(self):
        """Return a numpy array of submit times in seconds."""
        return self.dimension("submit_time_s")

    def dimension(self, name):
        """Return a numpy array of one numeric dimension across all jobs.

        Missing values (``None``) become ``nan`` so downstream code can mask
        them out explicitly.  Arrays are cached on the trace (and returned
        read-only): repeated analyses stop paying the job-list walk, so a
        job edited in place is not seen by a dimension already extracted.
        """
        if name not in NUMERIC_DIMENSIONS and name not in ("submit_time_s", "total_bytes", "total_task_seconds"):
            raise AnalysisError("unknown job dimension: %r" % (name,))
        cached = self._column_cache.get(name)
        if cached is not None:
            return cached
        values = []
        for job in self._jobs:
            value = getattr(job, name)
            values.append(float(value) if value is not None else float("nan"))
        array = np.array(values, dtype=float)
        array.flags.writeable = False
        self._column_cache[name] = array
        return array

    def feature_matrix(self):
        """Return the (n_jobs, 6) matrix of clustering features (§6.2)."""
        if not self._jobs:
            return np.zeros((0, len(NUMERIC_DIMENSIONS)))
        columns = [self.dimension(dim) for dim in NUMERIC_DIMENSIONS]
        matrix = np.column_stack(columns)
        return np.where(np.isnan(matrix), 0.0, matrix)

    def to_columnar(self):
        """Convert to a :class:`repro.engine.ColumnarTrace` (one pass).

        The columnar form holds each dimension as one contiguous array and is
        the input to the engine's scan operators and chunked on-disk store —
        see :mod:`repro.engine` for the scaling story.
        """
        from ..engine.columnar import ColumnarTrace

        return ColumnarTrace.from_trace(self)

    # -- filtering / slicing ----------------------------------------------
    def filter(self, predicate, name=None):
        """Return a new trace with only the jobs for which ``predicate`` is true."""
        return Trace(
            [job for job in self._jobs if predicate(job)],
            name=name or self.name,
            machines=self.machines,
        )

    def merge(self, other, name=None):
        """Return a new trace with the jobs of both traces, re-sorted by time."""
        return Trace(
            list(self._jobs) + list(other.jobs),
            name=name or ("%s+%s" % (self.name, other.name)),
            machines=self.machines,
        )

    def shifted(self, offset_s, name=None):
        """Return a copy with every submit time shifted by ``offset_s`` seconds."""
        shifted_jobs = []
        for job in self._jobs:
            data = job.to_dict()
            data["submit_time_s"] = job.submit_time_s + offset_s
            shifted_jobs.append(Job.from_dict(data))
        return Trace(shifted_jobs, name=name or self.name, machines=self.machines)

    # -- summary -----------------------------------------------------------
    def duration_s(self):
        """Trace length: last job finish minus first job submission (0 if empty)."""
        if not self._jobs:
            return 0.0
        start = self._jobs[0].submit_time_s
        end = max(job.finish_time_s for job in self._jobs)
        return max(0.0, end - start)

    def bytes_moved(self):
        """Sum over jobs of input + shuffle + output bytes (Table 1 definition)."""
        return float(sum(job.total_bytes for job in self._jobs))

    def total_task_seconds(self):
        """Sum over jobs of map + reduce task time."""
        return float(sum(job.total_task_seconds for job in self._jobs))

    def summary(self):
        """Return a :class:`TraceSummary` (one Table-1 row) for this trace."""
        if not self._jobs:
            return TraceSummary(
                name=self.name, machines=self.machines, length_s=0.0, start_s=0.0,
                end_s=0.0, n_jobs=0, bytes_moved=0.0, total_task_seconds=0.0,
            )
        start = self._jobs[0].submit_time_s
        end = max(job.finish_time_s for job in self._jobs)
        return TraceSummary(
            name=self.name,
            machines=self.machines,
            length_s=end - start,
            start_s=start,
            end_s=end,
            n_jobs=len(self._jobs),
            bytes_moved=self.bytes_moved(),
            total_task_seconds=self.total_task_seconds(),
        )
