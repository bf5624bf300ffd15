"""Table 1: summary of the seven workload traces.

Regenerates the paper's Table 1 row for every workload (machines, trace
length, job count, bytes moved) from the generated traces, alongside the
published full-scale values carried on each workload's spec, so the scaled
reproduction can be compared against the paper directly.  Traces may be given
in any :class:`~repro.engine.source.TraceSource`-wrappable representation —
each row is the ``summary`` fold of the shared characterization scan, so a
chunked store is summarized without materializing jobs.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.sharedscan import CharacterizationAnalyses, workload_analyses
from ..traces.registry import DEFAULT_SCALES, PAPER_WORKLOAD_NAMES, get_spec
from ..units import format_bytes, format_duration
from .rendering import ExperimentResult

__all__ = ["table1"]

#: Published Table 1 values (job count, bytes moved) for comparison notes.
PAPER_TABLE1 = {
    "CC-a": (5759, "80 TB"),
    "CC-b": (22974, "600 TB"),
    "CC-c": (21030, "18 PB"),
    "CC-d": (13283, "8 PB"),
    "CC-e": (10790, "590 TB"),
    "FB-2009": (1129193, "9.4 PB"),
    "FB-2010": (1169184, "1.5 EB"),
}


def table1(traces: Dict[str, object], scales: Optional[Dict[str, float]] = None,
           analyses: Optional[Dict[str, CharacterizationAnalyses]] = None) -> ExperimentResult:
    """Build the Table-1 reproduction from generated traces.

    Args:
        traces: mapping of workload name -> trace, in any representation
            (typically from :func:`repro.traces.load_all_paper_workloads`, or
            chunked stores for the out-of-core path).
        scales: the scale factor used per workload, recorded in the notes.
        analyses: optional shared-scan results per workload (from
            :func:`repro.core.sharedscan.run_characterization_scan`); a
            workload without one is summarized by a scan of its own.
    """
    scales = scales or DEFAULT_SCALES
    headers = ["Trace", "Machines", "Length", "Jobs", "Bytes moved", "Scale", "Paper jobs", "Paper bytes"]
    rows = []
    for name in PAPER_WORKLOAD_NAMES:
        if name not in traces:
            continue
        summary = workload_analyses(analyses, name, traces[name], "table1").value("summary")
        paper_jobs, paper_bytes = PAPER_TABLE1.get(name, ("-", "-"))
        rows.append([
            name,
            str(summary.machines if summary.machines is not None else get_spec(name).machines),
            format_duration(summary.length_s),
            str(summary.n_jobs),
            format_bytes(summary.bytes_moved),
            "%.3g" % scales.get(name, 1.0),
            str(paper_jobs),
            str(paper_bytes),
        ])
    result = ExperimentResult(
        experiment_id="table1",
        title="Summary of traces (machines, length, jobs, bytes moved)",
        headers=headers,
        rows=rows,
    )
    result.notes.append(
        "Facebook workloads are generated at a reduced scale; job counts and bytes "
        "moved scale proportionally with the recorded factor."
    )
    return result
