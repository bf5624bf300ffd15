"""Benchmark suite runner: regenerate every table and figure in one call.

:func:`run_suite` generates the seven paper workloads at configurable scales,
runs every experiment module, and returns the collected
:class:`~repro.bench.rendering.ExperimentResult` objects;
:func:`render_suite` turns them into the plain-text report
(``tests/bench/data/bench_seed0_scale0005.txt`` is the one for seed 0 at scale
0.005, pinned byte for byte by a test).

Pre-generated ``traces`` may be passed in any
:class:`~repro.engine.source.TraceSource`-wrappable representation, including
out-of-core :class:`~repro.engine.store.ChunkedTraceStore` directories.  The
characterization experiments (:data:`CHARACTERIZATION_EXPERIMENT_IDS` —
Table 1, Figures 1-10, Table 2) run from **one shared scan per trace**
(:func:`repro.core.sharedscan.run_characterization_scan`): every selected
experiment registers its chunk-consumer fold on a single
:class:`~repro.engine.pipeline.ScanPipeline`, so a store is decoded once for
the whole batch and ``processes`` fans the chunks over workers.  The
replay-simulation ablations need real ``Job`` objects and materialize their
reference trace on demand.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.sharedscan import CharacterizationAnalyses, run_characterization_scan
from ..engine.parallel import ParallelExecutor
from ..engine.source import TraceSource
from ..traces.registry import DEFAULT_SCALES, load_all_paper_workloads
from ..traces.trace import Trace
from .ablations import burstiness_metric_ablation, cache_policy_ablation, k_selection_ablation
from .extensions import (
    consolidation_ablation,
    energy_ablation,
    evolution_experiment,
    straggler_ablation,
    tiered_cluster_ablation,
    workload_suite_experiment,
)
from .figure10 import figure10
from .figures_data import figure1, figure2, figure3, figure4, figure5, figure6
from .figures_temporal import figure7, figure8, figure9
from .rendering import ExperimentResult
from .swim_replay import swim_replay
from .table1 import table1
from .table2 import table2

__all__ = ["run_suite", "render_suite", "EXPERIMENT_IDS", "CHARACTERIZATION_EXPERIMENT_IDS"]

#: The experiments that reproduce the paper's characterization proper
#: (Table 1, Figures 1-10, Table 2).  These run on any representation via
#: chunked engine scans — this is the default set for ``repro bench --store``.
CHARACTERIZATION_EXPERIMENT_IDS = (
    "table1", "figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
    "figure7", "figure8", "figure9", "figure10", "table2",
)

#: Identifiers of every experiment the suite runs, in report order.
EXPERIMENT_IDS = CHARACTERIZATION_EXPERIMENT_IDS + (
    "swim_replay",
    "ablation_cache", "ablation_burstiness", "ablation_kselect",
    "ablation_tiered", "ablation_stragglers", "ablation_energy",
    "ablation_consolidation", "evolution", "workload_suite",
)


def run_suite(seed: int = 0, scale: Optional[float] = None,
              scale_overrides: Optional[Dict[str, float]] = None,
              traces: Optional[Dict[str, Trace]] = None,
              include_ablations: bool = True,
              include_simulation: bool = True,
              experiments: Optional[List[str]] = None,
              processes: Optional[int] = None,
              analyses: Optional[Dict[str, CharacterizationAnalyses]] = None
              ) -> List[ExperimentResult]:
    """Run the full benchmark suite.

    Args:
        seed: seed used for workload generation and clustering.
        scale: optional uniform scale factor for every paper workload.
        scale_overrides: per-workload scale factors layered on top of ``scale``.
        traces: pre-generated traces keyed by workload name (skips generation);
            values may be in any :class:`TraceSource`-wrappable representation,
            including chunked store handles.
        include_ablations: include the three ablation experiments.
        include_simulation: include the experiments that need the replay
            simulator (Figure 7 utilization column, SWIM replay, cache ablation).
        experiments: restrict to a subset of :data:`EXPERIMENT_IDS`.
        processes: fan the shared scan of store-backed traces out over this
            many worker processes (``None`` = serial; implies nothing for
            materialized traces).
        analyses: precomputed shared-scan bundles keyed by workload name —
            e.g. from :func:`run_characterization_scan` with
            ``resume_from=``/``checkpoint_to=`` (the incremental path) — used
            instead of running the suite's own scan.

    Returns:
        A list of experiment results in report order.
    """
    if traces is None:
        traces = load_all_paper_workloads(seed=seed, scale=scale, scale_overrides=scale_overrides)
    selected = set(experiments) if experiments is not None else set(EXPERIMENT_IDS)

    results: List[ExperimentResult] = []

    def wanted(experiment_id: str) -> bool:
        return experiment_id in selected

    def materialized(name: str) -> Trace:
        """A job-list Trace for the simulation experiments (cached in place)."""
        trace = traces[name]
        if not isinstance(trace, Trace):
            traces[name] = trace = TraceSource.wrap(trace).materialize()
        return trace

    characterization = [experiment_id for experiment_id in CHARACTERIZATION_EXPERIMENT_IDS
                        if wanted(experiment_id)]
    if analyses is None and characterization:
        executor = ParallelExecutor(processes=processes) if processes else None
        analyses = {
            name: run_characterization_scan(trace, experiments=characterization,
                                            seed=seed, executor=executor)
            for name, trace in traces.items()
        }

    if wanted("table1"):
        results.append(table1(traces, scales=scale_overrides or DEFAULT_SCALES,
                              analyses=analyses))
    if wanted("figure1"):
        results.append(figure1(traces, analyses=analyses))
    if wanted("figure2"):
        results.append(figure2(traces, analyses=analyses))
    if wanted("figure3"):
        results.append(figure3(traces, analyses=analyses))
    if wanted("figure4"):
        results.append(figure4(traces, analyses=analyses))
    if wanted("figure5"):
        results.append(figure5(traces, analyses=analyses))
    if wanted("figure6"):
        results.append(figure6(traces, analyses=analyses))
    if wanted("figure7"):
        results.append(figure7(traces, simulate_utilization=include_simulation,
                               analyses=analyses))
    if wanted("figure8"):
        results.append(figure8(traces, analyses=analyses))
    if wanted("figure9"):
        results.append(figure9(traces, analyses=analyses))
    if wanted("figure10"):
        results.append(figure10(traces, analyses=analyses))
    if wanted("table2"):
        results.append(table2(traces, seed=seed, analyses=analyses))
    if include_simulation and wanted("swim_replay"):
        source_name = "FB-2009" if "FB-2009" in traces else next(iter(traces))
        results.append(swim_replay(materialized(source_name), seed=seed))
    if include_ablations:
        reference_name = "CC-c" if "CC-c" in traces else next(iter(traces))
        if wanted("ablation_burstiness"):
            results.append(burstiness_metric_ablation(traces[reference_name]))
        if include_simulation and wanted("ablation_cache"):
            results.append(cache_policy_ablation(materialized(reference_name)))
        if wanted("ablation_kselect"):
            results.append(k_selection_ablation(materialized(reference_name), seed=seed))
        if include_simulation and wanted("ablation_tiered"):
            results.append(tiered_cluster_ablation(materialized(reference_name)))
        if include_simulation and wanted("ablation_stragglers"):
            results.append(straggler_ablation(materialized(reference_name), seed=seed))
        if include_simulation and wanted("ablation_energy"):
            results.append(energy_ablation(materialized(reference_name)))
        if wanted("ablation_consolidation"):
            results.append(consolidation_ablation(traces))
        if wanted("evolution") and "FB-2009" in traces and "FB-2010" in traces:
            results.append(evolution_experiment(materialized("FB-2009"),
                                                materialized("FB-2010")))
        if wanted("workload_suite"):
            results.append(workload_suite_experiment(
                {name: materialized(name) for name in traces}))
    return results


def render_suite(results: List[ExperimentResult]) -> str:
    """Render every experiment result as one plain-text report."""
    return "\n\n".join(result.render() for result in results)
