"""Figures 1-6: data access pattern experiments.

One function per figure.  Each takes ``{workload name: trace}`` — where a
trace may be any :class:`~repro.engine.source.TraceSource`-wrappable
representation, including an out-of-core chunked store — and returns an
:class:`~repro.bench.rendering.ExperimentResult` whose series/rows regenerate
the corresponding paper figure and whose notes record the shape criteria the
paper reports (median spreads, Zipf slope ≈ 5/6, 80-x rule, re-access timing).

Every function also accepts ``analyses``: the per-workload results of one
shared characterization scan
(:func:`repro.core.sharedscan.run_characterization_scan`).  The suite runner
builds that scan once per trace, so the whole Figure 1-6 block consumes a
single decoded pass; a workload without a bundle is scanned for just the
figure's own analyses (same consumers, one scan per figure).  Store-backed
inputs stream chunk by chunk; Figure 1's CDFs are then sketch-backed (see
:mod:`repro.core.datasizes`), everything else is exact.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.access import eighty_x_from_profile
from ..core.datasizes import median_spread_orders
from ..core.sharedscan import CharacterizationAnalyses, workload_analyses
from ..errors import AnalysisError
from ..units import format_bytes
from .rendering import ExperimentResult

__all__ = ["figure1", "figure2", "figure3", "figure4", "figure5", "figure6"]


def _cdf_series(cdf, max_points: int = 200):
    """Thin a CDF to about ``max_points`` (value, fraction) pairs.

    The stride is ``n // max_points`` (floored, at least 1), so the series
    can run up to twice the target — the historical thinning rule, kept so
    figure series stay identical across scan modes.
    """
    values = getattr(cdf, "values", None)
    if values is not None:
        # Exact CDFs expose their sorted arrays: thin before materializing
        # Python tuples (an exact CDF over 1M jobs would otherwise build a
        # million-pair list only to keep 200 of them).
        fractions = cdf.fractions
        n = int(values.size)
        if n <= max_points:
            return list(zip(values.tolist(), fractions.tolist()))
        step = max(1, n // max_points)
        points = list(zip(values[::step].tolist(), fractions[::step].tolist()))
        last = (float(values[-1]), float(fractions[-1]))
        if points[-1] != last:
            points.append(last)
        return points
    points = cdf.as_points()
    if len(points) <= max_points:
        return points
    step = max(1, len(points) // max_points)
    thinned = points[::step]
    if thinned[-1] != points[-1]:
        thinned.append(points[-1])
    return thinned


def figure1(traces: Dict[str, object],
            analyses: Optional[Dict[str, CharacterizationAnalyses]] = None) -> ExperimentResult:
    """Figure 1: CDFs of per-job input, shuffle and output size per workload."""
    result = ExperimentResult(
        experiment_id="figure1",
        title="Per-job input/shuffle/output size distributions",
        headers=["Workload", "Median input", "Median shuffle", "Median output", "Jobs < 1 GB input"],
    )
    distributions = []
    for name, trace in traces.items():
        dist = workload_analyses(analyses, name, trace, "figure1").value("data_sizes")
        distributions.append(dist)
        result.rows.append([
            name,
            format_bytes(dist.medians["input_bytes"]),
            format_bytes(dist.medians["shuffle_bytes"]),
            format_bytes(dist.medians["output_bytes"]),
            "%.0f%%" % (100 * dist.fraction_below_gb["input_bytes"]),
        ])
        for dimension in ("input_bytes", "shuffle_bytes", "output_bytes"):
            result.series["%s/%s" % (name, dimension)] = _cdf_series(dist.cdfs[dimension])
    if len(distributions) >= 2:
        for dimension in ("input_bytes", "shuffle_bytes", "output_bytes"):
            spread = median_spread_orders(distributions, dimension)
            result.notes.append(
                "median %s spreads %.1f orders of magnitude across workloads "
                "(paper: input 6, shuffle 8, output 4)" % (dimension, spread)
            )
    result.notes.append("paper: most jobs move MB-GB of data, far below TB-scale benchmarks")
    return result


def figure2(traces: Dict[str, object],
            analyses: Optional[Dict[str, CharacterizationAnalyses]] = None) -> ExperimentResult:
    """Figure 2: log-log file access frequency vs rank (Zipf, slope ≈ 5/6)."""
    result = ExperimentResult(
        experiment_id="figure2",
        title="File access frequency vs rank (Zipf-like)",
        headers=["Workload", "Kind", "Distinct files", "Max frequency", "Fitted slope"],
    )
    for name, trace in traces.items():
        bundle = workload_analyses(analyses, name, trace, "figure2")
        for kind in ("input", "output"):
            ranks = bundle.get("%s_ranks" % kind)
            if ranks is None:
                continue
            slope = "%.2f" % ranks.slope if ranks.slope is not None else "-"
            result.rows.append([
                name, kind, str(ranks.n_items), str(int(ranks.frequencies[0])), slope,
            ])
            result.series["%s/%s" % (name, kind)] = [
                (float(rank), float(freq)) for rank, freq in ranks.as_points()[:200]
            ]
    result.notes.append("paper: slopes approximately 5/6 (0.83) for all workloads, inputs and outputs")
    return result


def figure3(traces: Dict[str, object],
            analyses: Optional[Dict[str, CharacterizationAnalyses]] = None) -> ExperimentResult:
    """Figure 3: jobs and stored bytes versus input file size."""
    return _size_profile_figure(traces, "input", "figure3", analyses)


def figure4(traces: Dict[str, object],
            analyses: Optional[Dict[str, CharacterizationAnalyses]] = None) -> ExperimentResult:
    """Figure 4: jobs and stored bytes versus output file size."""
    return _size_profile_figure(traces, "output", "figure4", analyses)


def _size_profile_figure(traces: Dict[str, object], kind: str, experiment_id: str,
                         analyses: Optional[Dict[str, CharacterizationAnalyses]]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=experiment_id,
        title="Access patterns vs %s file size (fraction of jobs / of stored bytes)" % kind,
        headers=["Workload", "Jobs on files <= 4 GB", "Stored bytes in files <= 4 GB", "80-x rule (x%)"],
    )
    for name, trace in traces.items():
        profile = workload_analyses(analyses, name, trace, experiment_id).get(
            "%s_profile" % kind)
        if profile is None:
            continue
        try:
            rule = eighty_x_from_profile(profile)
        except AnalysisError:
            continue
        result.rows.append([
            name,
            "%.0f%%" % (100 * profile.jobs_below_gb_fraction),
            "%.1f%%" % (100 * profile.bytes_below_gb_fraction),
            "%.1f" % rule,
        ])
        result.series["%s/jobs_cdf" % name] = _cdf_series(profile.jobs_cdf)
        result.series["%s/stored_bytes_cdf" % name] = _cdf_series(profile.stored_bytes_cdf)
    result.notes.append(
        "paper: ~90% of jobs access files of at most a few GB, which hold at most "
        "16% of stored bytes; 80% of accesses go to 1-8% of stored bytes"
    )
    return result


def figure5(traces: Dict[str, object],
            analyses: Optional[Dict[str, CharacterizationAnalyses]] = None) -> ExperimentResult:
    """Figure 5: CDFs of input->input and output->input re-access intervals."""
    result = ExperimentResult(
        experiment_id="figure5",
        title="Data re-access interval distributions",
        headers=["Workload", "Re-accesses within 6 hours"],
    )
    for name, trace in traces.items():
        intervals = workload_analyses(analyses, name, trace, "figure5").get(
            "reaccess_intervals")
        if intervals is None:
            continue
        if intervals.input_input is None and intervals.output_input is None:
            continue
        result.rows.append([name, "%.0f%%" % (100 * intervals.fraction_within_6h)])
        if intervals.input_input is not None:
            result.series["%s/input-input" % name] = _cdf_series(intervals.input_input)
        if intervals.output_input is not None:
            result.series["%s/output-input" % name] = _cdf_series(intervals.output_input)
    result.notes.append("paper: 75% of re-accesses occur within 6 hours")
    return result


def figure6(traces: Dict[str, object],
            analyses: Optional[Dict[str, CharacterizationAnalyses]] = None) -> ExperimentResult:
    """Figure 6: fraction of jobs whose input re-accesses pre-existing data."""
    result = ExperimentResult(
        experiment_id="figure6",
        title="Fraction of jobs re-accessing pre-existing input/output paths",
        headers=["Workload", "Re-access pre-existing input", "Re-access pre-existing output", "Either"],
    )
    for name, trace in traces.items():
        fractions = workload_analyses(analyses, name, trace, "figure6").get(
            "reaccess_fractions")
        if fractions is None:
            continue
        result.rows.append([
            name,
            "%.0f%%" % (100 * fractions.input_reaccess),
            "%.0f%%" % (100 * fractions.output_reaccess),
            "%.0f%%" % (100 * fractions.any_reaccess),
        ])
    result.notes.append("paper: up to 78% of jobs involve data re-accesses (CC-c, CC-d, CC-e); lower elsewhere")
    return result
