"""Table 2: job types identified by k-means clustering.

Regenerates the paper's Table 2 for each workload: cluster sizes, 6-D cluster
centers (input, shuffle, output bytes; duration; map and reduce task time) and
human labels, using the automatic k selection rule of §6.2.  The headline
shape criterion is that small jobs form more than 90% of every workload.

Traces may be given in any :class:`~repro.engine.source.TraceSource`-wrappable
representation.  Above the job cap the seeded sample is the one fold the
shared scan runs too (:class:`~repro.core.clustering.ClusterSampleConsumer`,
a bottom-k over per-row hash keys), so the same rows — and therefore the
identical clustering — are selected whether the workload arrives as a job
list, a columnar trace, or an out-of-core store, scanned cold or resumed.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.clustering import cluster_jobs
from ..core.sharedscan import (
    DEFAULT_CLUSTER_SAMPLE_CAP,
    CharacterizationAnalyses,
    run_characterization_scan,
)
from .rendering import ExperimentResult

__all__ = ["table2"]


def table2(traces: Dict[str, object], max_k: int = 10, seed: int = 0,
           max_jobs_per_workload: Optional[int] = DEFAULT_CLUSTER_SAMPLE_CAP,
           analyses: Optional[Dict[str, CharacterizationAnalyses]] = None) -> ExperimentResult:
    """Cluster every workload's jobs and render the Table-2 reproduction.

    Args:
        traces: mapping of workload name -> trace (any representation).
        max_k: upper bound of the automatic k sweep.
        seed: k-means seed.
        max_jobs_per_workload: optional cap on the jobs clustered per workload
            to bound benchmark runtime.  The cap is applied as a seeded uniform
            sample (bottom-k by row hash) — a submission-order prefix would
            bias the job-type mix (job classes are not spread evenly over the
            trace timeline).
        analyses: optional shared-scan results built with the same ``seed``
            and the default cap; their pre-drawn sample is clustered.  A
            workload without one (or any workload, under another cap) draws
            its sample in a Table-2-only scan — identical rows, hence
            identical clusters.
    """
    result = ExperimentResult(
        experiment_id="table2",
        title="Job types per workload via k-means clustering",
        headers=["Workload", "# Jobs", "Input", "Shuffle", "Output", "Duration",
                 "Map time", "Reduce time", "Label"],
    )
    for name, trace in traces.items():
        if (analyses is not None and name in analyses
                and analyses[name].has("cluster_sample")
                and max_jobs_per_workload == DEFAULT_CLUSTER_SAMPLE_CAP):
            bundle = analyses[name]
        else:
            bundle = run_characterization_scan(trace, experiments=["table2"], seed=seed,
                                               cluster_sample_cap=max_jobs_per_workload)
        sample = bundle.value("cluster_sample")  # None: cluster every job
        clustering = cluster_jobs(trace if sample is None else sample,
                                  max_k=max_k, seed=seed)
        for cluster in clustering.clusters:
            result.rows.append([name] + cluster.as_row())
        result.notes.append(
            "%s: k=%d, small-job fraction %.1f%% (paper: small jobs >92%% of all jobs)"
            % (name, clustering.k, 100 * clustering.small_job_fraction)
        )
    return result
