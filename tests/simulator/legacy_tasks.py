"""The replay simulator's original task objects, kept as a semantic reference.

Before the replay engine dispatched one record per job, every job was split
into :class:`SimJob`/:class:`SimTask` objects (``split_job``) and straggler
injection was a ``task_transform`` hook that rewrote those task durations
(:func:`straggler_task_transform`).  The legacy replay oracle
(``legacy_replay.py``) still runs on them, so they live beside it, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.simulator.stragglers import (SpeculativeExecutionModel, StragglerInjectionStats,
                                        StragglerModel)
from repro.traces.schema import Job

__all__ = ["SimTask", "SimJob", "split_job", "straggler_task_transform"]

#: Default seconds of work per task when a trace lacks task counts.
DEFAULT_SECONDS_PER_TASK = 30.0

#: Cap on the number of simulated tasks per stage, to keep replay tractable
#: for jobs with millions of slot-seconds.  The aggregate task time is
#: preserved; only the granularity changes.
MAX_TASKS_PER_STAGE = 512


@dataclass
class SimTask:
    """One simulated task.

    Attributes:
        job_id: id of the owning job.
        kind: ``"map"`` or ``"reduce"``.
        duration_s: how long the task occupies its slot.
        index: task index within its stage.
    """

    job_id: str
    kind: str
    duration_s: float
    index: int
    start_time_s: Optional[float] = None
    finish_time_s: Optional[float] = None


@dataclass
class SimJob:
    """A job prepared for replay: its tasks plus progress bookkeeping.

    Reduce tasks only become runnable once every map task has finished,
    mirroring the Hadoop barrier between the map and reduce stages (ignoring
    the early-shuffle optimization, which does not change slot occupancy).
    """

    job: Job
    map_tasks: List[SimTask]
    reduce_tasks: List[SimTask]
    submit_time_s: float = 0.0
    start_time_s: Optional[float] = None
    finish_time_s: Optional[float] = None
    maps_remaining: int = 0
    reduces_remaining: int = 0

    def __post_init__(self):
        self.maps_remaining = len(self.map_tasks)
        self.reduces_remaining = len(self.reduce_tasks)

    @property
    def job_id(self) -> str:
        return self.job.job_id

    @property
    def map_stage_done(self) -> bool:
        return self.maps_remaining == 0

    @property
    def done(self) -> bool:
        return self.maps_remaining == 0 and self.reduces_remaining == 0

    @property
    def wait_time_s(self) -> float:
        """Time between submission and the first task start (0 if never started)."""
        if self.start_time_s is None:
            return 0.0
        return max(0.0, self.start_time_s - self.submit_time_s)

    @property
    def completion_time_s(self) -> Optional[float]:
        """Time between submission and job completion (None if unfinished)."""
        if self.finish_time_s is None:
            return None
        return self.finish_time_s - self.submit_time_s


def _stage_tasks(job_id: str, kind: str, total_task_seconds: float,
                 recorded_count: Optional[int]) -> List[SimTask]:
    """Split one stage's aggregate task time into individual tasks."""
    if total_task_seconds <= 0:
        return []
    if recorded_count and recorded_count > 0:
        n_tasks = int(recorded_count)
    else:
        n_tasks = max(1, int(round(total_task_seconds / DEFAULT_SECONDS_PER_TASK)))
    n_tasks = min(n_tasks, MAX_TASKS_PER_STAGE)
    per_task = total_task_seconds / n_tasks
    return [
        SimTask(job_id=job_id, kind=kind, duration_s=per_task, index=index)
        for index in range(n_tasks)
    ]


def split_job(job: Job) -> SimJob:
    """Split a trace job into simulated map and reduce tasks.

    Raises:
        SimulationError: if the job reports negative task time (schema
            validation normally prevents this).
    """
    map_seconds = float(job.map_task_seconds or 0.0)
    reduce_seconds = float(job.reduce_task_seconds or 0.0)
    if map_seconds < 0 or reduce_seconds < 0:
        raise SimulationError("job %s has negative task time" % job.job_id)
    map_tasks = _stage_tasks(job.job_id, "map", map_seconds, job.map_tasks)
    reduce_tasks = _stage_tasks(job.job_id, "reduce", reduce_seconds, job.reduce_tasks)
    if not map_tasks and not reduce_tasks:
        # Zero-compute jobs still occupy a slot for a moment so they appear in
        # occupancy accounting and complete in submission order.
        map_tasks = [SimTask(job_id=job.job_id, kind="map", duration_s=1.0, index=0)]
    return SimJob(job=job, map_tasks=map_tasks, reduce_tasks=reduce_tasks,
                  submit_time_s=job.submit_time_s)


def straggler_task_transform(
    model: StragglerModel,
    speculation: Optional[SpeculativeExecutionModel] = None,
    stats: Optional[StragglerInjectionStats] = None,
) -> Callable[[SimJob], None]:
    """Build a ``task_transform`` hook that injects (and optionally rescues) stragglers.

    All jobs draw from one sequential stream seeded by ``model.seed``, so the
    injected slowdowns are deterministic given the seed *and the order jobs
    are transformed in* — input order for serial and exact-sharded replays,
    but each window's own pull order under windowed sharding, so windowed
    digests depend on where the cuts fall.

    Args:
        model: the straggler injection model.
        speculation: the mitigation model; pass ``None`` (or a model with
            ``enabled=False``) to replay without speculative execution.
        stats: optional stats collector, filled in as jobs are transformed.

    Returns:
        A callable the legacy replay loop applies to each job as it pulls it.
    """
    rng = np.random.default_rng(model.seed)
    collected = stats if stats is not None else StragglerInjectionStats()

    def transform(sim_job: SimJob) -> None:
        for stage_tasks in (sim_job.map_tasks, sim_job.reduce_tasks):
            if not stage_tasks:
                continue
            normal_duration = float(np.median([task.duration_s for task in stage_tasks]))
            detectable = len(stage_tasks) >= (
                speculation.min_comparable_tasks if speculation else np.inf
            )
            for task in stage_tasks:
                collected.tasks_seen += 1
                if rng.random() >= model.probability:
                    continue
                collected.stragglers_injected += 1
                collected._mark_job(sim_job.job_id)
                slowed = task.duration_s * model.slowdown_factor
                if speculation is not None and speculation.enabled and detectable:
                    rescued = (normal_duration * speculation.rescue_cap_factor
                               + speculation.relaunch_overhead_s)
                    if rescued < slowed:
                        task.duration_s = rescued
                        collected.stragglers_rescued += 1
                        continue
                if speculation is not None and speculation.enabled and not detectable:
                    collected.stragglers_undetectable += 1
                task.duration_s = slowed

    transform.stats = collected  # type: ignore[attr-defined]
    return transform
