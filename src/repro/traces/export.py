"""Aggregated-metrics export: the "ship only aggregates offsite" pipeline.

Section 8 of the paper argues that enterprise MapReduce monitoring tools
should perform workload analysis automatically and "ship only the anonymized
and aggregated metrics for workload comparisons offsite".  Together with
:mod:`repro.traces.anonymize` this module implements that pipeline end to end:

* :class:`AggregatedMetrics` — a compact, JSON-serializable summary of one
  workload: log-scale histograms of the per-job size dimensions, the hourly
  submission/I/O/compute series, job-name first-word counts, and the Table-1
  style scalars.  No per-job records and no raw strings leave the site.
* :func:`aggregate_trace` — build the summary from a trace.
* :meth:`AggregatedMetrics.to_json` / :meth:`AggregatedMetrics.from_json` —
  the wire format.

The histograms use fixed decade (powers-of-ten) bins so summaries produced by
different sites are directly comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import AnalysisError, TraceFormatError
from .trace import Trace

__all__ = ["AggregatedMetrics", "aggregate_trace"]

#: Decade bin edges for byte histograms: 1 B .. 1 EB.
BYTE_BIN_EDGES = [10.0 ** exponent for exponent in range(0, 19)]

#: Decade bin edges for duration histograms: 1 s .. ~11.6 days.
DURATION_BIN_EDGES = [10.0 ** exponent for exponent in range(0, 7)]

#: Size dimensions summarized per job.
SIZE_DIMENSIONS = ("input_bytes", "shuffle_bytes", "output_bytes")


def _decade_histogram(values: np.ndarray, edges: List[float]) -> List[int]:
    """Histogram with an extra underflow bucket for zero-valued entries."""
    values = np.asarray(values, dtype=float)
    values = values[~np.isnan(values)]
    zero_count = int((values <= 0).sum())
    positive = values[values > 0]
    counts, _ = np.histogram(positive, bins=edges)
    return [zero_count] + [int(count) for count in counts]


@dataclass
class AggregatedMetrics:
    """Anonymizable aggregate summary of one workload.

    Attributes:
        workload: workload name (free to be a pseudonym).
        n_jobs: number of jobs summarized.
        machines: cluster size, if known.
        trace_length_s: trace span in seconds.
        bytes_moved: total input + shuffle + output bytes.
        total_task_seconds: total map + reduce task time.
        size_histograms: per-dimension decade histograms (first bucket counts
            zero-valued jobs).
        duration_histogram: decade histogram of job durations.
        hourly_jobs / hourly_bytes / hourly_task_seconds: hourly series.
        first_word_counts: job counts per job-name first word (empty when the
            trace records no names).
        map_only_fraction: fraction of map-only jobs.
    """

    workload: str
    n_jobs: int
    machines: Optional[int]
    trace_length_s: float
    bytes_moved: float
    total_task_seconds: float
    size_histograms: Dict[str, List[int]]
    duration_histogram: List[int]
    hourly_jobs: List[float]
    hourly_bytes: List[float]
    hourly_task_seconds: List[float]
    first_word_counts: Dict[str, int] = field(default_factory=dict)
    map_only_fraction: float = 0.0
    schema_version: int = 1

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "schema_version": self.schema_version,
            "workload": self.workload,
            "n_jobs": self.n_jobs,
            "machines": self.machines,
            "trace_length_s": self.trace_length_s,
            "bytes_moved": self.bytes_moved,
            "total_task_seconds": self.total_task_seconds,
            "size_histograms": self.size_histograms,
            "duration_histogram": self.duration_histogram,
            "hourly_jobs": self.hourly_jobs,
            "hourly_bytes": self.hourly_bytes,
            "hourly_task_seconds": self.hourly_task_seconds,
            "first_word_counts": self.first_word_counts,
            "map_only_fraction": self.map_only_fraction,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "AggregatedMetrics":
        required = {"workload", "n_jobs", "size_histograms", "hourly_jobs"}
        missing = required - set(data)
        if missing:
            raise TraceFormatError("aggregate record missing fields: %s" % sorted(missing))
        return cls(
            workload=data["workload"],
            n_jobs=int(data["n_jobs"]),
            machines=data.get("machines"),
            trace_length_s=float(data.get("trace_length_s", 0.0)),
            bytes_moved=float(data.get("bytes_moved", 0.0)),
            total_task_seconds=float(data.get("total_task_seconds", 0.0)),
            size_histograms={key: list(value) for key, value in data["size_histograms"].items()},
            duration_histogram=list(data.get("duration_histogram", [])),
            hourly_jobs=list(data["hourly_jobs"]),
            hourly_bytes=list(data.get("hourly_bytes", [])),
            hourly_task_seconds=list(data.get("hourly_task_seconds", [])),
            first_word_counts={key: int(value) for key, value in data.get("first_word_counts", {}).items()},
            map_only_fraction=float(data.get("map_only_fraction", 0.0)),
            schema_version=int(data.get("schema_version", 1)),
        )

    @classmethod
    def from_json(cls, text: str) -> "AggregatedMetrics":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise TraceFormatError("invalid aggregate JSON: %s" % error) from error
        return cls.from_dict(data)

    # -- derived views ------------------------------------------------------
    def median_size(self, dimension: str) -> float:
        """Approximate median of one size dimension from its decade histogram.

        The estimate is the geometric center of the bucket containing the
        median job, which is within half a decade of the true value — enough
        for the cross-site comparisons this format exists for.

        Raises:
            AnalysisError: for an unknown dimension or an all-empty histogram.
        """
        if dimension not in self.size_histograms:
            raise AnalysisError("unknown size dimension %r" % (dimension,))
        counts = self.size_histograms[dimension]
        total = sum(counts)
        if total == 0:
            raise AnalysisError("histogram of %r is empty" % (dimension,))
        target = total / 2.0
        running = 0.0
        for bucket, count in enumerate(counts):
            running += count
            if running >= target:
                if bucket == 0:
                    return 0.0
                low = BYTE_BIN_EDGES[bucket - 1]
                high = BYTE_BIN_EDGES[min(bucket, len(BYTE_BIN_EDGES) - 1)]
                return float(np.sqrt(low * high))
        return float(BYTE_BIN_EDGES[-1])

    def peak_to_median_task_seconds(self) -> float:
        """Peak-to-median ratio of the hourly task-time series (Figure 8 scalar)."""
        values = np.asarray(self.hourly_task_seconds, dtype=float)
        positive = values[values > 0]
        if positive.size == 0:
            return 0.0
        return float(positive.max() / np.median(positive))


def aggregate_trace(trace: Trace, workload_name: Optional[str] = None) -> AggregatedMetrics:
    """Summarize a trace into an :class:`AggregatedMetrics` record.

    Raises:
        AnalysisError: for an empty trace.
    """
    if trace.is_empty():
        raise AnalysisError("cannot aggregate an empty trace")

    from ..core.stats import hourly_series  # local import to avoid a package cycle

    times = trace.submit_times()
    horizon = trace.duration_s()
    summary = trace.summary()

    size_histograms = {
        dimension: _decade_histogram(trace.dimension(dimension), BYTE_BIN_EDGES)
        for dimension in SIZE_DIMENSIONS
    }
    durations = np.array([job.duration_s or 0.0 for job in trace], dtype=float)

    first_words: Dict[str, int] = {}
    for job in trace:
        word = job.first_word
        if word is not None:
            first_words[word] = first_words.get(word, 0) + 1

    map_only = float(np.mean([1.0 if job.is_map_only else 0.0 for job in trace]))
    return AggregatedMetrics(
        workload=workload_name or trace.name,
        n_jobs=len(trace),
        machines=trace.machines,
        trace_length_s=summary.length_s,
        bytes_moved=summary.bytes_moved,
        total_task_seconds=summary.total_task_seconds,
        size_histograms=size_histograms,
        duration_histogram=_decade_histogram(durations, DURATION_BIN_EDGES),
        hourly_jobs=[float(v) for v in hourly_series(times, None, horizon)],
        hourly_bytes=[float(v) for v in hourly_series(times, [job.total_bytes for job in trace], horizon)],
        hourly_task_seconds=[float(v) for v in hourly_series(times, [job.total_task_seconds for job in trace], horizon)],
        first_word_counts=first_words,
        map_only_fraction=map_only,
    )
