"""Extension experiments: ablations for the paper's design recommendations.

Beyond the tables and figures, the paper makes several qualitative arguments
that the extension modules of this library turn into measurable experiments:

* ``tiered_cluster_ablation`` (§6.2) — physically splitting the cluster into a
  performance tier and a capacity tier versus a unified FIFO cluster.
* ``straggler_ablation`` (§6.2) — random straggler injection with and without
  speculative execution, split by small/large jobs.
* ``energy_ablation`` (§5.2) — energy consumption with and without a
  power-down policy during the low-utilization troughs of a bursty workload.
* ``consolidation_ablation`` (§5.2) — burstiness before and after multiplexing
  several workloads on one cluster (the FB 31:1 → 9:1 observation).
* ``evolution_experiment`` (§4.1/§5.2) — FB-2009 versus FB-2010 median shifts.
* ``workload_suite_experiment`` (§7) — greedy selection of a representative
  workload suite across all seven paper workloads.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.comparison import select_workload_suite, workload_features
from ..core.evolution import compare_evolution
from ..core.multiplexing import consolidation_study
from ..simulator.cluster import ClusterConfig
from ..simulator.energy import PowerDownPolicy, PowerModel, energy_from_metrics, evaluate_power_down
from ..simulator.replay import WorkloadReplayer
from ..simulator.stragglers import (
    SpeculativeExecutionModel,
    StragglerInjectionStats,
    StragglerInjector,
    StragglerModel,
    straggler_impact,
)
from ..simulator.tiered import TieredClusterConfig, compare_tiered_vs_unified
from ..traces.trace import Trace
from ..units import GB, format_bytes
from .rendering import ExperimentResult

__all__ = [
    "tiered_cluster_ablation",
    "straggler_ablation",
    "energy_ablation",
    "consolidation_ablation",
    "evolution_experiment",
    "workload_suite_experiment",
]


def tiered_cluster_ablation(trace: Trace, n_nodes: int = 60,
                            performance_fraction: float = 0.4,
                            threshold_bytes: float = 10 * GB,
                            max_simulated_jobs: Optional[int] = 1500) -> ExperimentResult:
    """Compare a performance/capacity split against a unified FIFO cluster."""
    performance_nodes = max(1, int(round(n_nodes * performance_fraction)))
    config = TieredClusterConfig(
        performance=ClusterConfig(n_nodes=performance_nodes),
        capacity=ClusterConfig(n_nodes=max(1, n_nodes - performance_nodes)),
        small_job_threshold_bytes=threshold_bytes,
    )
    comparison = compare_tiered_vs_unified(trace, config, max_simulated_jobs=max_simulated_jobs)
    result = ExperimentResult(
        experiment_id="ablation_tiered",
        title="Performance/capacity tier split vs unified cluster (%s)" % trace.name,
        headers=["Setup", "Small-job mean wait (s)", "Small jobs", "Large jobs"],
    )
    result.rows.append(["unified FIFO, %d nodes" % n_nodes,
                        "%.1f" % comparison.small_job_wait_unified,
                        str(comparison.tiered.n_small_jobs),
                        str(comparison.tiered.n_large_jobs)])
    result.rows.append(["tiered %d+%d nodes" % (performance_nodes, n_nodes - performance_nodes),
                        "%.1f" % comparison.small_job_wait_tiered,
                        str(comparison.tiered.n_small_jobs),
                        str(comparison.tiered.n_large_jobs)])
    if np.isinf(comparison.small_job_wait_improvement):
        gain = ("small jobs never wait with the physical split, against a %.1f s "
                "mean wait unified" % comparison.small_job_wait_unified)
    else:
        gain = ("small-job wait improvement %.1fx with the physical split"
                % comparison.small_job_wait_improvement)
    result.notes.append(
        "%s (threshold %s); paper §6.2 argues for exactly this performance/capacity "
        "separation" % (gain, format_bytes(comparison.threshold_bytes)))
    return result


def straggler_ablation(trace: Trace, probability: float = 0.05, slowdown: float = 5.0,
                       n_nodes: int = 60, max_simulated_jobs: Optional[int] = 1200,
                       seed: int = 0) -> ExperimentResult:
    """Straggler injection with and without speculative execution."""
    config = ClusterConfig(n_nodes=n_nodes)
    baseline = WorkloadReplayer(cluster_config=config,
                                max_simulated_jobs=max_simulated_jobs).replay(trace)

    result = ExperimentResult(
        experiment_id="ablation_stragglers",
        title="Straggler injection on %s (p=%.2f, slowdown %.0fx)" % (trace.name, probability, slowdown),
        headers=["Mitigation", "Mean slowdown (small jobs)", "Mean slowdown (large jobs)",
                 "Stragglers rescued", "Undetectable stragglers"],
    )
    for label, speculation in (("none", None), ("speculative execution", SpeculativeExecutionModel())):
        stats = StragglerInjectionStats()
        stragglers = StragglerInjector(
            StragglerModel(probability=probability, slowdown_factor=slowdown, seed=seed),
            speculation, stats)
        perturbed = WorkloadReplayer(cluster_config=config, max_simulated_jobs=max_simulated_jobs,
                                     stragglers=stragglers).replay(trace)
        impact = straggler_impact(baseline, perturbed)
        result.rows.append([
            label,
            "%.2fx" % impact.mean_slowdown_small,
            "%.2fx" % impact.mean_slowdown_large,
            str(stats.stragglers_rescued),
            str(stats.stragglers_undetectable),
        ])
    result.notes.append(
        "paper §6.2: small jobs have too few tasks for stragglers to be detected, so "
        "speculative execution cannot protect them the way it protects large jobs")
    return result


def energy_ablation(trace: Trace, n_nodes: int = 60,
                    max_simulated_jobs: Optional[int] = 3000) -> ExperimentResult:
    """Energy with all nodes on versus a power-down policy on a bursty workload."""
    config = ClusterConfig(n_nodes=n_nodes)
    metrics = WorkloadReplayer(cluster_config=config,
                               max_simulated_jobs=max_simulated_jobs).replay(trace)
    power = PowerModel()
    report = energy_from_metrics(metrics, config, power)
    evaluation = evaluate_power_down(metrics, config, power, PowerDownPolicy())
    result = ExperimentResult(
        experiment_id="ablation_energy",
        title="Energy: always-on vs power-down policy (%s)" % trace.name,
        headers=["Policy", "Energy (kWh)", "Savings vs always-on", "Mean nodes on"],
    )
    result.rows.append(["always on", "%.1f" % report.energy_kwh, "-", str(n_nodes)])
    result.rows.append([
        "power-down", "%.1f" % (evaluation.policy_joules / 3.6e6),
        "%.1f%%" % (100 * evaluation.savings_fraction),
        "%.1f" % evaluation.mean_nodes_on,
    ])
    result.notes.append(
        "mean utilization %.1f%%; paper §5.2: bursty load with a low median means "
        "energy-conservation mechanisms help during the long low-utilization periods"
        % (100 * report.mean_utilization))
    return result


def consolidation_ablation(traces: Dict[str, Trace]) -> ExperimentResult:
    """Burstiness of individual workloads versus their consolidation.

    Accepts traces in any :class:`~repro.engine.source.TraceSource`-wrappable
    representation (store-backed inputs consolidate streamingly).
    """
    from ..engine.source import TraceSource

    sources = [source for source in (TraceSource.wrap(trace) for trace in traces.values())
               if not source.is_empty()]
    study = consolidation_study(sources)
    result = ExperimentResult(
        experiment_id="ablation_consolidation",
        title="Workload consolidation: burstiness before and after multiplexing",
        headers=["Workload", "Peak:median", "99th:median"],
    )
    for name, burstiness in study.source_burstiness.items():
        result.rows.append([name, "%.0f:1" % burstiness.peak_to_median,
                            "%.1f" % burstiness.p99_to_median])
    result.rows.append(["consolidated",
                        "%.0f:1" % study.consolidated_burstiness.peak_to_median,
                        "%.1f" % study.consolidated_burstiness.p99_to_median])
    result.notes.append(
        "peak-to-median reduced %.1fx by multiplexing; remains bursty: %s "
        "(paper §5.2: FB peak-to-median fell 31:1 -> 9:1 with more multiplexing, "
        "but the workload remained bursty)"
        % (study.peak_to_median_reduction, study.remains_bursty))
    return result


def evolution_experiment(before: Trace, after: Trace) -> ExperimentResult:
    """FB-2009 -> FB-2010 style growth comparison (§4.1, §5.2, §6.2)."""
    report = compare_evolution(before, after)
    result = ExperimentResult(
        experiment_id="evolution",
        title="Workload evolution %s -> %s" % (before.name, after.name),
        headers=["Dimension", "Median before", "Median after", "Shift (orders of magnitude)"],
    )
    for dimension, shift in report.shifts.items():
        result.rows.append([
            dimension,
            format_bytes(shift.median_before),
            format_bytes(shift.median_after),
            "%+.1f" % shift.orders_of_magnitude,
        ])
    result.notes.append(
        "peak-to-median %.0f:1 -> %.0f:1; small-job fraction %.1f%% -> %.1f%%; "
        "paper §4.1: input and shuffle distributions shift right while output shifts left"
        % (report.peak_to_median_before, report.peak_to_median_after,
           100 * report.small_job_fraction_before, 100 * report.small_job_fraction_after))
    return result


def workload_suite_experiment(traces: Dict[str, Trace], suite_size: int = 3) -> ExperimentResult:
    """Select a representative workload suite across all workloads (§7)."""
    features = [workload_features(trace) for trace in traces.values() if not trace.is_empty()]
    suite = select_workload_suite(features, suite_size=min(suite_size, len(features)))
    result = ExperimentResult(
        experiment_id="workload_suite",
        title="Representative workload suite selection (k-center, size %d)" % suite_size,
        headers=["Workload", "Nearest representative"],
    )
    for name, representative in sorted(suite.assignment.items()):
        result.rows.append([name, representative])
    result.notes.append(
        "selected suite: %s; coverage radius %.2f (normalized feature space); "
        "paper §7: no single workload is representative, so a benchmark needs a suite "
        "covering the behavior range"
        % (", ".join(suite.selected), suite.coverage_radius))
    return result
