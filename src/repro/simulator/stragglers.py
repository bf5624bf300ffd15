"""Straggler injection and mitigation modelling (§6.2 of the paper).

The paper observes that the dominance of small jobs complicates straggler
mitigation: small jobs contain only a handful of tasks — sometimes a single
map and a single reduce task — so a slow task cannot be told apart from an
inherently slow job, and speculative execution has nothing to compare against.
The paper also notes that *if* stragglers occur randomly with a fixed
probability, a job with few tasks is less likely to contain one at all, but
any straggler it does contain delays the whole job by the full slowdown.

This module makes those statements quantitatively checkable on the replay
substrate:

* :class:`StragglerModel` injects stragglers into a job's tasks with a fixed
  per-task probability and a multiplicative slowdown factor — the "stragglers
  occur randomly with a fixed probability" hypothesis of §6.2.
* :class:`SpeculativeExecutionModel` approximates Hadoop speculative
  execution: a straggling task is re-launched and effectively capped near the
  duration of its sibling tasks, but *only* when the job has enough
  comparable tasks in the same stage for the slowness to be detectable.
* :class:`StragglerInjector` applies both to the tasks a
  :class:`~repro.simulator.replay.WorkloadReplayer` replays, drawing one
  random number per task in the order jobs are pulled.
* :func:`straggler_impact` compares a baseline replay against a
  straggler-injected replay and summarizes the impact by job size class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..units import GB
from .metrics import SimulationMetrics

__all__ = [
    "StragglerModel",
    "SpeculativeExecutionModel",
    "StragglerInjectionStats",
    "StragglerInjector",
    "StragglerImpact",
    "straggler_impact",
]


@dataclass(frozen=True)
class StragglerModel:
    """Random straggler injection with a fixed per-task probability.

    Attributes:
        probability: chance that any individual task straggles.
        slowdown_factor: multiplier applied to a straggling task's duration
            (the paper's informal definition of a straggler is a task that
            "executes significantly slower than other tasks in a job").
        seed: RNG seed; injection is deterministic given the seed and the
            order in which jobs are drawn.
    """

    probability: float = 0.05
    slowdown_factor: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise SimulationError("straggler probability must be in [0, 1]")
        if self.slowdown_factor < 1.0:
            raise SimulationError("slowdown factor must be at least 1.0")


@dataclass(frozen=True)
class SpeculativeExecutionModel:
    """Approximation of Hadoop speculative execution.

    A straggling task is assumed to be detected and re-executed when — and
    only when — its stage contains at least ``min_comparable_tasks`` tasks, so
    the scheduler has siblings to compare progress against.  A rescued task's
    duration is capped at ``rescue_cap_factor`` times the stage's normal task
    duration plus ``relaunch_overhead_s`` for the backup copy to start.

    The "only when comparable tasks exist" condition is exactly the §6.2
    argument: single-task jobs cannot benefit because an abnormally slow task
    is indistinguishable from an inherently slow job.

    Attributes:
        enabled: whether speculative execution runs at all.
        min_comparable_tasks: minimum number of tasks in a stage for a
            straggler to be detectable.
        rescue_cap_factor: multiple of the normal task duration the rescued
            task is capped at.
        relaunch_overhead_s: extra seconds paid for launching the backup copy.
    """

    enabled: bool = True
    min_comparable_tasks: int = 4
    rescue_cap_factor: float = 1.5
    relaunch_overhead_s: float = 5.0

    def __post_init__(self):
        if self.min_comparable_tasks < 2:
            raise SimulationError("speculation needs at least two comparable tasks")
        if self.rescue_cap_factor < 1.0:
            raise SimulationError("rescue cap factor must be at least 1.0")
        if self.relaunch_overhead_s < 0:
            raise SimulationError("relaunch overhead must be non-negative")


@dataclass
class StragglerInjectionStats:
    """Bookkeeping of what the injector actually did.

    Attributes:
        tasks_seen: total tasks examined.
        stragglers_injected: tasks that were slowed down.
        stragglers_rescued: stragglers capped by speculative execution.
        stragglers_undetectable: stragglers in stages too small for detection.
        jobs_affected: number of distinct jobs containing at least one straggler.
    """

    tasks_seen: int = 0
    stragglers_injected: int = 0
    stragglers_rescued: int = 0
    stragglers_undetectable: int = 0
    jobs_affected: int = 0
    _affected_job_ids: set = field(default_factory=set, repr=False)

    def _mark_job(self, job_id: str) -> None:
        if job_id not in self._affected_job_ids:
            self._affected_job_ids.add(job_id)
            self.jobs_affected += 1


class StragglerInjector:
    """Draws which of a replay's tasks straggle, and how long they then run.

    Pass one to a replayer (``WorkloadReplayer(stragglers=...)``).  All jobs
    draw from one sequential stream seeded by ``model.seed``, one number per
    task: each job's maps, then its reduces, jobs in the order the replay
    pulls them.  The injected slowdowns are therefore deterministic given the
    seed *and that order* — input order for serial and exact-sharded replays,
    but each window's own pull order under windowed sharding, so windowed
    digests depend on where the cuts fall.  The stream and :attr:`stats`
    carry over when one injector serves several replays.

    Args:
        model: the straggler injection model.
        speculation: the mitigation model; pass ``None`` (or a model with
            ``enabled=False``) to replay without speculative execution.
        stats: optional stats collector, filled in as tasks are drawn.
    """

    def __init__(self, model: StragglerModel,
                 speculation: Optional[SpeculativeExecutionModel] = None,
                 stats: Optional[StragglerInjectionStats] = None):
        self.model = model
        self.speculation = speculation
        self.stats = stats if stats is not None else StragglerInjectionStats()
        self._rng = np.random.default_rng(model.seed)

    def draw(self, job_ids: np.ndarray, n_map: np.ndarray, map_duration: np.ndarray,
             n_reduce: np.ndarray, reduce_duration: np.ndarray
             ) -> Dict[Tuple[int, str], List[float]]:
        """Perturb the stages of a batch of jobs, in batch order.

        Every stage is ``n`` tasks of one duration.  A task straggles with
        ``model.probability`` and then runs ``slowdown_factor`` times longer,
        or — when speculation is enabled and its stage has at least
        ``min_comparable_tasks`` tasks — ``rescue_cap_factor`` times the
        stage's duration plus ``relaunch_overhead_s``, if that is shorter.

        Returns:
            ``{(job index, "map" or "reduce"): per-task durations}`` for each
            stage with at least one straggler.
        """
        model = self.model
        stats = self.stats
        n_tasks = n_map + n_reduce
        total = int(n_tasks.sum())
        stats.tasks_seen += total
        tasks = np.flatnonzero(self._rng.random(total) < model.probability)
        if not tasks.size:
            return {}
        first = np.cumsum(n_tasks) - n_tasks
        job = np.searchsorted(first, tasks, side="right") - 1
        position = tasks - first[job]
        is_map = position < n_map[job]
        index = np.where(is_map, position, position - n_map[job])
        stage_tasks = np.where(is_map, n_map[job], n_reduce[job])
        normal = np.where(is_map, map_duration[job], reduce_duration[job])
        slowed = normal * model.slowdown_factor
        duration = slowed
        stats.stragglers_injected += int(tasks.size)
        speculation = self.speculation
        if speculation is not None and speculation.enabled:
            detectable = stage_tasks >= speculation.min_comparable_tasks
            rescued = normal * speculation.rescue_cap_factor + speculation.relaunch_overhead_s
            rescue = detectable & (rescued < slowed)
            duration = np.where(rescue, rescued, slowed)
            stats.stragglers_rescued += int(np.count_nonzero(rescue))
            stats.stragglers_undetectable += int(np.count_nonzero(~detectable))
        for row in np.unique(job).tolist():
            stats._mark_job(str(job_ids[row]))
        stages: Dict[Tuple[int, str], List[float]] = {}
        for row, in_map, task, base, n, value in zip(
                job.tolist(), is_map.tolist(), index.tolist(), normal.tolist(),
                stage_tasks.tolist(), duration.tolist()):
            key = (row, "map" if in_map else "reduce")
            durations = stages.get(key)
            if durations is None:
                durations = stages[key] = [base] * n
            durations[task] = value
        return stages


@dataclass
class StragglerImpact:
    """Summary of how straggler injection changed job completion times.

    Attributes:
        small_job_threshold_bytes: byte threshold splitting small from large jobs.
        mean_slowdown_small: mean completion-time ratio (straggler / baseline)
            over small jobs.
        mean_slowdown_large: same ratio over large jobs.
        p95_slowdown_small: 95th-percentile ratio over small jobs.
        p95_slowdown_large: 95th-percentile ratio over large jobs.
        fraction_small_affected: fraction of small jobs slowed by more than 5%.
        fraction_large_affected: fraction of large jobs slowed by more than 5%.
    """

    small_job_threshold_bytes: float
    mean_slowdown_small: float
    mean_slowdown_large: float
    p95_slowdown_small: float
    p95_slowdown_large: float
    fraction_small_affected: float
    fraction_large_affected: float


def _slowdowns(baseline: SimulationMetrics, perturbed: SimulationMetrics,
               predicate) -> np.ndarray:
    base = {outcome.job_id: outcome for outcome in baseline.outcomes}
    ratios = []
    for outcome in perturbed.outcomes:
        reference = base.get(outcome.job_id)
        if reference is None or not predicate(outcome):
            continue
        if reference.completion_time_s is None or outcome.completion_time_s is None:
            continue
        if reference.completion_time_s <= 0:
            continue
        ratios.append(outcome.completion_time_s / reference.completion_time_s)
    return np.array(ratios, dtype=float)


def straggler_impact(baseline: SimulationMetrics, perturbed: SimulationMetrics,
                     small_job_threshold_bytes: float = 10 * GB) -> StragglerImpact:
    """Compare a baseline replay against a straggler-injected replay.

    Both metrics objects must come from replays of the *same* trace (job ids
    are matched one-to-one); jobs missing from either run are skipped.

    Raises:
        SimulationError: when no job id appears in both runs.
    """
    small = _slowdowns(baseline, perturbed,
                       lambda outcome: outcome.total_bytes <= small_job_threshold_bytes)
    large = _slowdowns(baseline, perturbed,
                       lambda outcome: outcome.total_bytes > small_job_threshold_bytes)
    if small.size == 0 and large.size == 0:
        raise SimulationError("the two replays share no finished jobs to compare")

    def summarize(values: np.ndarray):
        if values.size == 0:
            return 1.0, 1.0, 0.0
        return (float(values.mean()), float(np.percentile(values, 95)),
                float((values > 1.05).mean()))

    mean_small, p95_small, affected_small = summarize(small)
    mean_large, p95_large, affected_large = summarize(large)
    return StragglerImpact(
        small_job_threshold_bytes=float(small_job_threshold_bytes),
        mean_slowdown_small=mean_small,
        mean_slowdown_large=mean_large,
        p95_slowdown_small=p95_small,
        p95_slowdown_large=p95_large,
        fraction_small_affected=affected_small,
        fraction_large_affected=affected_large,
    )
