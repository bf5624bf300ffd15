"""Workload scale-down.

Section 7 of the paper ("Scaled-down workloads") observes that reproducing
production behaviour at full scale is economically unrealistic, and that there
are several legitimate ways to shrink a workload: against wall-clock time,
against the number of jobs / load, or against cluster size.  The SWIM
synthesizer (:mod:`repro.synth.swim`) scales load by resampling; this module
implements the cluster-size scaling it applies next, and the
:class:`ScalePlan` record in which each step reports what was done.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ScalingError
from ..traces.schema import Job
from ..traces.trace import Trace

__all__ = ["ScalePlan", "scale_cluster"]


@dataclass
class ScalePlan:
    """Record of how a trace was scaled down.

    Attributes:
        source_name: name of the source trace.
        method: ``"load"`` or ``"cluster"``.
        factor: the scale factor applied (semantics depend on the method).
        source_jobs: job count before scaling.
        result_jobs: job count after scaling.
        notes: human-readable description for reports.
    """

    source_name: str
    method: str
    factor: float
    source_jobs: int
    result_jobs: int
    notes: str = ""

    def describe(self) -> str:
        return "%s scaled by %s (factor %.4g): %d -> %d jobs. %s" % (
            self.source_name, self.method, self.factor, self.source_jobs,
            self.result_jobs, self.notes,
        )


def scale_cluster(trace: Trace, source_machines: int, target_machines: int) -> "tuple[Trace, ScalePlan]":
    """Scale a workload to a smaller (or larger) cluster.

    Following the SWIM approach, per-job data sizes and task times are scaled
    by ``target_machines / source_machines`` so per-node load is preserved:
    replaying the scaled workload on the target cluster exercises each node as
    the original did.  Durations and submit times are left unchanged — the
    arrival pattern is a property of the users, not the cluster.

    Raises:
        ScalingError: if either machine count is not positive.
    """
    if source_machines <= 0 or target_machines <= 0:
        raise ScalingError("machine counts must be positive")
    ratio = target_machines / float(source_machines)
    scaled_jobs = []
    for job in trace:
        data = job.to_dict()
        for dimension in ("input_bytes", "shuffle_bytes", "output_bytes",
                          "map_task_seconds", "reduce_task_seconds"):
            if data.get(dimension) is not None:
                data[dimension] = data[dimension] * ratio
        if data.get("map_tasks") is not None:
            data["map_tasks"] = max(1, int(round(data["map_tasks"] * ratio)))
        if data.get("reduce_tasks") is not None:
            data["reduce_tasks"] = int(round(data["reduce_tasks"] * ratio))
        scaled_jobs.append(Job.from_dict(data))
    scaled = Trace(scaled_jobs, name="%s-x%dnodes" % (trace.name, target_machines),
                   machines=target_machines)
    plan = ScalePlan(
        source_name=trace.name,
        method="cluster",
        factor=ratio,
        source_jobs=len(trace),
        result_jobs=len(scaled),
        notes="per-job data and task time scaled from %d to %d machines" % (
            source_machines, target_machines),
    )
    return scaled, plan
