"""Empirical sampling from traces.

The SWIM methodology (§7 of the paper, and reference [18]) builds synthetic
workloads by sampling jobs from an observed trace: the trace *is* the model.
:class:`TraceSampler` draws jobs (optionally stratified by job class so rare
but byte-dominant classes are not lost), re-times them with a new arrival
process, and returns a fresh :class:`~repro.traces.trace.Trace`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

from ..errors import SynthesisError
from ..traces.schema import Job
from ..traces.trace import Trace
from .arrival import ArrivalProcess, PoissonArrivals

__all__ = ["TraceSampler", "stratified_sample"]


def stratified_sample(trace: Trace, n_jobs: int, rng: np.random.Generator,
                      strata_key=lambda job: job.cluster_label) -> List[Job]:
    """Sample ``n_jobs`` jobs keeping each stratum's share of the original trace.

    Strata are defined by ``strata_key`` (the Table-2 cluster label by default;
    jobs with a ``None`` key form their own stratum).  Every non-empty stratum
    receives at least one sample so that rare classes — which often dominate
    bytes moved — survive aggressive down-sampling.

    Raises:
        SynthesisError: when the trace is empty or ``n_jobs`` is not positive.
    """
    if trace.is_empty():
        raise SynthesisError("cannot sample from an empty trace")
    if n_jobs <= 0:
        raise SynthesisError("n_jobs must be positive, got %r" % (n_jobs,))

    strata: Dict[object, List[Job]] = defaultdict(list)
    for job in trace:
        strata[strata_key(job)].append(job)

    total = len(trace)
    sampled: List[Job] = []
    # Largest-remainder allocation of n_jobs across strata.
    shares = {key: len(jobs) / total * n_jobs for key, jobs in strata.items()}
    allocation = {key: max(1, int(share)) for key, share in shares.items()}
    # Adjust to hit n_jobs exactly (never dropping a stratum below 1).
    while sum(allocation.values()) > n_jobs and len(allocation) < sum(allocation.values()):
        key = max(allocation, key=lambda k: allocation[k])
        if allocation[key] > 1:
            allocation[key] -= 1
        else:
            break
    remainders = sorted(shares, key=lambda k: shares[k] - int(shares[k]), reverse=True)
    index = 0
    while sum(allocation.values()) < n_jobs:
        allocation[remainders[index % len(remainders)]] += 1
        index += 1

    for key, count in allocation.items():
        jobs = strata[key]
        picks = rng.choice(len(jobs), size=count, replace=True)
        sampled.extend(jobs[pick] for pick in picks)
    return sampled


class TraceSampler:
    """Samples synthetic workloads out of an observed trace.

    Args:
        trace: source trace (the empirical model).
        seed: RNG seed.
        stratified: when true (default) sampling preserves the mix of
            ``cluster_label`` strata; when false jobs are drawn uniformly.
    """

    def __init__(self, trace: Trace, seed: int = 0, stratified: bool = True):
        if trace.is_empty():
            raise SynthesisError("TraceSampler needs a non-empty source trace")
        self.trace = trace
        self.seed = int(seed)
        self.stratified = bool(stratified)

    def sample(self, n_jobs: int, horizon_s: float,
               arrival: Optional[ArrivalProcess] = None,
               name: Optional[str] = None) -> Trace:
        """Draw ``n_jobs`` jobs and re-time them over ``[0, horizon_s)``.

        The sampled jobs keep every dimension except their submit time, which
        is re-drawn from ``arrival`` (homogeneous Poisson by default) — this is
        how SWIM compresses a multi-month trace into a replayable run of
        manageable length.
        """
        if horizon_s <= 0:
            raise SynthesisError("horizon_s must be positive, got %r" % (horizon_s,))
        rng = np.random.default_rng(self.seed)
        if self.stratified:
            source_jobs = stratified_sample(self.trace, n_jobs, rng)
        else:
            picks = rng.choice(len(self.trace), size=n_jobs, replace=True)
            source_jobs = [self.trace.jobs[pick] for pick in picks]

        arrival = arrival or PoissonArrivals()
        submit_times = arrival.generate(rng, n_jobs, horizon_s)
        rng.shuffle(source_jobs)

        synthetic_jobs = []
        for index, (job, submit_time) in enumerate(zip(source_jobs, submit_times)):
            data = job.to_dict()
            data["job_id"] = "synth_%06d" % index
            data["submit_time_s"] = float(submit_time)
            synthetic_jobs.append(Job.from_dict(data))
        return Trace(
            synthetic_jobs,
            name=name or ("%s-synth" % self.trace.name),
            machines=self.trace.machines,
        )
