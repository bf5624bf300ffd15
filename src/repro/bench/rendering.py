"""Common result container and text rendering for the benchmark harness.

Every experiment module (one per table or figure of the paper) returns an
:class:`ExperimentResult`: a table (headers + rows) and/or a set of named data
series, plus free-form notes recording the workload scales used and the paper
values the result should be compared against.  The suite report is these
results rendered; ``tests/bench/data/bench_seed0_scale0005.txt`` pins it at
small scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.report import render_table

__all__ = ["ExperimentResult", "series_preview"]


@dataclass
class ExperimentResult:
    """The output of one benchmark experiment.

    Attributes:
        experiment_id: e.g. ``"table1"``, ``"figure8"``.
        title: one-line description.
        headers: table column names (may be empty when only series are produced).
        rows: table rows as lists of strings.
        series: named numeric series, e.g. one CDF per workload.
        notes: free-form observations (paper comparison, scales used).
    """

    experiment_id: str
    title: str
    headers: List[str] = field(default_factory=list)
    rows: List[List[str]] = field(default_factory=list)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self, max_series_points: int = 6) -> str:
        """Render the experiment as plain text."""
        parts = ["== %s: %s ==" % (self.experiment_id, self.title)]
        if self.headers and self.rows:
            parts.append(render_table(self.headers, self.rows))
        for name, points in self.series.items():
            parts.append("%s: %s" % (name, series_preview(points, max_series_points)))
        for note in self.notes:
            parts.append("note: %s" % note)
        return "\n".join(parts)


def series_preview(points: Sequence[Tuple[float, float]], max_points: int = 6) -> str:
    """Summarize a (x, y) series as a short evenly-sampled string."""
    if not points:
        return "(empty)"
    if len(points) <= max_points:
        sampled = list(points)
    else:
        step = max(1, len(points) // max_points)
        sampled = list(points[::step])[:max_points]
        if sampled[-1] != points[-1]:
            sampled.append(points[-1])
    return ", ".join("(%.3g, %.3g)" % (float(x), float(y)) for x, y in sampled)
