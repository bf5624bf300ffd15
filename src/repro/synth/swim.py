"""SWIM-style workload synthesizer.

The paper's stop-gap benchmarking tool (§7, "A stopgap tool") is SWIM — the
Statistical Workload Injector for MapReduce.  SWIM does two things: it
pre-populates the filesystem with synthetic data scaled to the target cluster,
and it replays the workload as a stream of synthetic MapReduce jobs whose
data sizes and arrival times follow an observed trace.

:class:`SwimSynthesizer` reproduces that pipeline against this library's
simulator substrate:

1. take a source trace (observed or generated from a paper spec);
2. scale it — in time, load, and cluster size — to the target configuration;
3. emit a :class:`SyntheticWorkloadPlan` containing the replayable trace plus
   a :class:`DataLayoutPlan` describing the files to pre-populate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import SynthesisError
from ..traces.trace import Trace
from ..units import GB
from .arrival import ArrivalProcess, PoissonArrivals
from .sampler import TraceSampler
from .scaling import ScalePlan, scale_cluster

__all__ = ["DataLayoutPlan", "SyntheticWorkloadPlan", "SwimSynthesizer"]


@dataclass
class DataLayoutPlan:
    """Files to pre-populate before replay.

    Attributes:
        files: mapping of path -> size in bytes.
        total_bytes: sum of all file sizes.
    """

    files: Dict[str, float]

    @property
    def total_bytes(self) -> float:
        return float(sum(self.files.values()))

    @property
    def n_files(self) -> int:
        return len(self.files)


@dataclass
class SyntheticWorkloadPlan:
    """The output of the synthesizer: a replayable workload plus its data layout.

    Attributes:
        trace: the synthetic job stream (submit times start at zero).
        layout: the data layout to pre-populate.
        scale_plans: the scaling steps that were applied, in order.
        target_machines: number of machines the plan targets.
    """

    trace: Trace
    layout: DataLayoutPlan
    scale_plans: List[ScalePlan] = field(default_factory=list)
    target_machines: Optional[int] = None

    def describe(self) -> str:
        lines = [
            "Synthetic workload %r: %d jobs over %.0f s targeting %s machines"
            % (self.trace.name, len(self.trace), self.trace.duration_s(),
               self.target_machines if self.target_machines else "?"),
            "Data layout: %d files, %.1f GB total" % (self.layout.n_files,
                                                      self.layout.total_bytes / GB),
        ]
        lines.extend("  - " + plan.describe() for plan in self.scale_plans)
        return "\n".join(lines)


class SwimSynthesizer:
    """Builds scaled, replayable synthetic workloads from a source trace.

    Args:
        source: the observed (or spec-generated) trace to model.
        source_machines: machine count of the source cluster; defaults to the
            trace's ``machines`` attribute.
        seed: RNG seed used for sampling and arrival re-timing.
    """

    def __init__(self, source: Trace, source_machines: Optional[int] = None, seed: int = 0):
        if source.is_empty():
            raise SynthesisError("SwimSynthesizer needs a non-empty source trace")
        self.source = source
        self.source_machines = source_machines or source.machines
        if not self.source_machines:
            raise SynthesisError(
                "source cluster size unknown; pass source_machines explicitly"
            )
        self.seed = int(seed)

    def synthesize(self, n_jobs: int, horizon_s: float, target_machines: Optional[int] = None,
                   arrival: Optional[ArrivalProcess] = None,
                   name: Optional[str] = None) -> SyntheticWorkloadPlan:
        """Produce a synthetic workload plan.

        Args:
            n_jobs: number of synthetic jobs to emit.
            horizon_s: length of the replay window in seconds.
            target_machines: cluster size to scale data/compute to; when
                ``None`` the source cluster size is kept.
            arrival: arrival process used to re-time jobs (Poisson default).
            name: name of the synthetic trace.

        Returns:
            A :class:`SyntheticWorkloadPlan` with the re-timed trace, the data
            layout to pre-populate, and the scaling steps applied.
        """
        if n_jobs <= 0:
            raise SynthesisError("n_jobs must be positive, got %r" % (n_jobs,))
        if horizon_s <= 0:
            raise SynthesisError("horizon_s must be positive, got %r" % (horizon_s,))

        plans: List[ScalePlan] = []
        sampler = TraceSampler(self.source, seed=self.seed, stratified=True)
        sampled = sampler.sample(n_jobs, horizon_s, arrival=arrival or PoissonArrivals(),
                                 name=name or ("%s-swim" % self.source.name))
        plans.append(ScalePlan(
            source_name=self.source.name,
            method="load",
            factor=n_jobs / float(len(self.source)),
            source_jobs=len(self.source),
            result_jobs=len(sampled),
            notes="stratified resampling onto a %.0f s replay window" % horizon_s,
        ))

        target = target_machines or self.source_machines
        if target != self.source_machines:
            sampled, cluster_plan = scale_cluster(sampled, self.source_machines, target)
            plans.append(cluster_plan)

        layout = self._build_layout(sampled)
        return SyntheticWorkloadPlan(
            trace=sampled, layout=layout, scale_plans=plans, target_machines=target,
        )

    def _build_layout(self, trace: Trace) -> DataLayoutPlan:
        """Derive the data layout: one file per distinct input path.

        Jobs without a recorded path get a synthetic per-job path so the replay
        still reads the right volume of data.  A file referenced by several
        jobs is sized to the largest input those jobs read, which mirrors
        SWIM's uniform pre-population while keeping per-job input volumes.
        """
        files: Dict[str, float] = {}
        for index, job in enumerate(trace):
            path = job.input_path or ("/swim/input/%06d" % index)
            size = float(job.input_bytes or 0.0)
            files[path] = max(files.get(path, 0.0), size)
        return DataLayoutPlan(files=files)
