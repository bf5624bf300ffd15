"""Figure 10: job-name first-word breakdown per workload.

Regenerates the three panels of the paper's Figure 10: the most frequent first
words of job names weighted by job count, by total I/O bytes, and by task-time,
plus the framework shares the paper derives from them (two frameworks dominate
every workload; query-like frameworks contribute 20%-80%+ of load).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.sharedscan import CharacterizationAnalyses, workload_analyses
from ..errors import AnalysisError
from .rendering import ExperimentResult

__all__ = ["figure10"]


def figure10(traces: Dict[str, object], top_n: int = 5,
             analyses: Optional[Dict[str, CharacterizationAnalyses]] = None) -> ExperimentResult:
    """Build the Figure-10 reproduction for every trace that records names.

    Traces may be in any :class:`~repro.engine.source.TraceSource`-wrappable
    representation; the naming fold of the shared scan streams the name
    column chunk by chunk (a workload missing from ``analyses`` is scanned
    on its own).
    """
    result = ExperimentResult(
        experiment_id="figure10",
        title="First word of job names, weighted by jobs / bytes / task-time",
        headers=["Workload", "Weighting", "Top words (share)", "Query-framework share"],
    )
    for name, trace in traces.items():
        try:
            analysis = workload_analyses(analyses, name, trace, "figure10").value("naming")
        except AnalysisError:
            result.notes.append("%s records no job names (as in the paper's FB-2010 trace)" % name)
            continue
        panels = (
            ("jobs", analysis.by_jobs),
            ("bytes", analysis.by_bytes),
            ("task-time", analysis.by_task_seconds),
        )
        for weighting, breakdown in panels:
            top = ", ".join("%s (%.0f%%)" % (word, 100 * share) for word, share in breakdown.top(top_n))
            framework_key = "task_seconds" if weighting == "task-time" else weighting
            framework_share = analysis.framework_share(framework_key)
            result.rows.append([name, weighting, top, "%.0f%%" % (100 * framework_share)])
        result.series["%s/framework_share_jobs" % name] = [
            (float(index), share)
            for index, (framework, share) in enumerate(sorted(
                analysis.framework_shares["jobs"].items()))
        ]
    result.notes.append(
        "paper: a handful of first words dominates each workload; for every workload "
        "two frameworks account for the dominant majority of jobs"
    )
    return result
