"""Workload report dataclasses and text rendering.

:class:`WorkloadReport` is the structured output of
:class:`~repro.core.characterization.WorkloadCharacterizer`: one object per
workload holding every analysis the paper's methodology defines (data access,
temporal, compute).  ``render()`` turns it into a readable plain-text summary
for the CLI, the examples and the suite report
(``tests/bench/data/bench_seed0_scale0005.txt`` pins one at small scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..traces.trace import TraceSummary
from ..units import format_bytes, format_duration
from .access import AccessPatternResult
from .burstiness import BurstinessResult
from .clustering import ClusteringResult
from .datasizes import DataSizeDistributions
from .naming import NamingAnalysis
from .temporal import CorrelationResult, DiurnalAnalysis, HourlyDimensions

__all__ = ["WorkloadReport", "render_table"]


def render_table(headers: List[str], rows: List[List[str]], title: Optional[str] = None) -> str:
    """Render an ASCII table with column widths fitted to the content."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append(separator)
    for row in rows:
        lines.append(" | ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class WorkloadReport:
    """Every paper analysis for one workload, plus a text renderer.

    Attributes mirror the paper's sections: ``summary`` (Table 1 row),
    ``data_sizes`` (Figure 1), ``access`` (Figures 2-6), ``hourly`` and
    ``correlations`` and ``diurnal`` (Figures 7 and 9), ``burstiness``
    (Figure 8), ``naming`` (Figure 10) and ``clustering`` (Table 2).
    Components the trace cannot support (missing names or paths) are ``None``.
    """

    workload: str
    summary: TraceSummary
    data_sizes: Optional[DataSizeDistributions] = None
    access: Optional[AccessPatternResult] = None
    hourly: Optional[HourlyDimensions] = None
    correlations: Optional[CorrelationResult] = None
    diurnal: Optional[DiurnalAnalysis] = None
    burstiness: Optional[BurstinessResult] = None
    naming: Optional[NamingAnalysis] = None
    clustering: Optional[ClusteringResult] = None
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Render the report as readable plain text."""
        sections = [self._render_summary()]
        if self.data_sizes is not None:
            sections.append(self._render_data_sizes())
        if self.access is not None:
            sections.append(self._render_access())
        if self.burstiness is not None or self.correlations is not None:
            sections.append(self._render_temporal())
        if self.naming is not None:
            sections.append(self._render_naming())
        if self.clustering is not None:
            sections.append(self._render_clustering())
        if self.notes:
            sections.append("Notes:\n" + "\n".join("  - %s" % note for note in self.notes))
        return "\n\n".join(sections)

    # -- individual sections ------------------------------------------------
    def _render_summary(self) -> str:
        summary = self.summary
        return (
            "Workload %s: %d jobs over %s, %s moved, %s machines"
            % (
                self.workload,
                summary.n_jobs,
                format_duration(summary.length_s),
                format_bytes(summary.bytes_moved),
                summary.machines if summary.machines is not None else "?",
            )
        )

    def _render_data_sizes(self) -> str:
        assert self.data_sizes is not None
        rows = []
        for dimension in ("input_bytes", "shuffle_bytes", "output_bytes"):
            rows.append([
                dimension.replace("_bytes", ""),
                format_bytes(self.data_sizes.medians[dimension]),
                "%.0f%%" % (100 * self.data_sizes.fraction_below_gb[dimension]),
            ])
        table = render_table(["dimension", "median/job", "jobs < 1 GB"], rows,
                             title="Per-job data sizes (Figure 1)")
        return table + "\nMap-only jobs: %.0f%%" % (100 * self.data_sizes.map_only_fraction)

    def _render_access(self) -> str:
        assert self.access is not None
        lines = ["Data access patterns (Figures 2-6)"]
        if self.access.input_ranks is not None and self.access.input_ranks.slope is not None:
            lines.append("  input access Zipf slope: %.2f (paper: ~0.83)"
                         % self.access.input_ranks.slope)
        if self.access.output_ranks is not None and self.access.output_ranks.slope is not None:
            lines.append("  output access Zipf slope: %.2f" % self.access.output_ranks.slope)
        if self.access.eighty_x_input is not None:
            lines.append("  80-x rule: 80%% of accesses hit %.1f%% of stored bytes"
                         % self.access.eighty_x_input)
        if self.access.fractions is not None:
            lines.append("  jobs re-accessing existing data: %.0f%%"
                         % (100 * self.access.fractions.any_reaccess))
        if self.access.intervals is not None:
            lines.append("  re-accesses within 6 hours: %.0f%%"
                         % (100 * self.access.intervals.fraction_within_6h))
        if len(lines) == 1:
            lines.append("  (trace records no file paths)")
        return "\n".join(lines)

    def _render_temporal(self) -> str:
        lines = ["Temporal behaviour (Figures 7-9)"]
        if self.burstiness is not None:
            lines.append("  peak-to-median hourly task-time: %.1f:1"
                         % self.burstiness.peak_to_median)
        if self.diurnal is not None:
            lines.append("  diurnal strength: %.2f (%s)"
                         % (self.diurnal.diurnal_strength,
                            "daily pattern" if self.diurnal.has_diurnal_pattern else "no clear daily pattern"))
        if self.correlations is not None:
            lines.append("  correlations: jobs-bytes %.2f, jobs-compute %.2f, bytes-compute %.2f"
                         % (self.correlations.jobs_bytes, self.correlations.jobs_task_seconds,
                            self.correlations.bytes_task_seconds))
        return "\n".join(lines)

    def _render_naming(self) -> str:
        assert self.naming is not None
        rows = [[word, "%.0f%%" % (100 * share)] for word, share in self.naming.by_jobs.top(6)]
        table = render_table(["first word", "share of jobs"], rows,
                             title="Job names (Figure 10)")
        frameworks = ", ".join(self.naming.dominant_frameworks("jobs", 2))
        return table + "\nDominant frameworks: %s" % frameworks

    def _render_clustering(self) -> str:
        assert self.clustering is not None
        headers = ["# Jobs", "Input", "Shuffle", "Output", "Duration", "Map time", "Reduce time", "Label"]
        rows = [cluster.as_row() for cluster in self.clustering.clusters]
        table = render_table(headers, rows, title="Job types (Table 2), k=%d" % self.clustering.k)
        return table + "\nSmall-job fraction: %.1f%%" % (100 * self.clustering.small_job_fraction)
