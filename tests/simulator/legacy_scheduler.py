"""The replay simulator's original schedulers, kept as a semantic reference.

Before the replay engine's schedulers became pick policies over its own
ready queues, a scheduler held the submitted :class:`SimJob` objects and
handed out one task per :meth:`Scheduler.next_task` call.  The legacy replay
oracle (``legacy_replay.py``) still asks them that way, so they live beside
it, unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.units import GB

from legacy_tasks import SimJob, SimTask

__all__ = ["Scheduler", "FifoScheduler", "FairScheduler", "CapacityScheduler"]


class Scheduler:
    """Base scheduler interface.

    The replayer calls :meth:`add_job` when a job is submitted,
    :meth:`next_task` whenever a slot of a given kind frees up, and
    :meth:`job_finished` when a job's last task completes.
    """

    def add_job(self, sim_job: SimJob) -> None:
        raise NotImplementedError

    def next_task(self, kind: str, now_s: float) -> Optional[Tuple[SimJob, SimTask]]:
        """Pick the next task of ``kind`` to run, or ``None`` if none is ready."""
        raise NotImplementedError

    def job_finished(self, sim_job: SimJob) -> None:
        """Notification that a job has completed (default: no-op)."""

    def pending_jobs(self) -> int:
        """Number of jobs that still have unscheduled tasks."""
        raise NotImplementedError


class _JobQueueMixin:
    """Shared bookkeeping: per-job queues of unscheduled map/reduce tasks."""

    def __init__(self):
        self._jobs: List[SimJob] = []
        self._map_queues: Dict[str, Deque[SimTask]] = {}
        self._reduce_queues: Dict[str, Deque[SimTask]] = {}
        self._running_tasks: Dict[str, int] = {}

    def _register(self, sim_job: SimJob) -> None:
        self._jobs.append(sim_job)
        self._map_queues[sim_job.job_id] = deque(sim_job.map_tasks)
        self._reduce_queues[sim_job.job_id] = deque(sim_job.reduce_tasks)
        self._running_tasks.setdefault(sim_job.job_id, 0)

    def _queue_for(self, sim_job: SimJob, kind: str) -> Deque[SimTask]:
        if kind == "map":
            return self._map_queues[sim_job.job_id]
        if kind == "reduce":
            return self._reduce_queues[sim_job.job_id]
        raise SchedulingError("unknown task kind %r" % (kind,))

    def _has_ready_task(self, sim_job: SimJob, kind: str) -> bool:
        queue = self._queue_for(sim_job, kind)
        if not queue:
            return False
        if kind == "reduce" and not sim_job.map_stage_done:
            # Reduce tasks wait for the map barrier.
            return False
        return True

    def _pop_task(self, sim_job: SimJob, kind: str) -> Tuple[SimJob, SimTask]:
        task = self._queue_for(sim_job, kind).popleft()
        self._running_tasks[sim_job.job_id] = self._running_tasks.get(sim_job.job_id, 0) + 1
        return sim_job, task

    def task_finished(self, sim_job: SimJob) -> None:
        """Called by the replayer when one of the job's tasks completes."""
        count = self._running_tasks.get(sim_job.job_id, 0)
        self._running_tasks[sim_job.job_id] = max(0, count - 1)

    def job_finished(self, sim_job: SimJob) -> None:
        self._jobs = [job for job in self._jobs if job.job_id != sim_job.job_id]
        self._map_queues.pop(sim_job.job_id, None)
        self._reduce_queues.pop(sim_job.job_id, None)
        self._running_tasks.pop(sim_job.job_id, None)

    def pending_jobs(self) -> int:
        return sum(
            1 for job in self._jobs
            if self._map_queues.get(job.job_id) or self._reduce_queues.get(job.job_id)
        )


class FifoScheduler(_JobQueueMixin, Scheduler):
    """Strict submission-order scheduling (Hadoop's original default)."""

    def add_job(self, sim_job: SimJob) -> None:
        self._register(sim_job)

    def next_task(self, kind: str, now_s: float) -> Optional[Tuple[SimJob, SimTask]]:
        # Inlined _has_ready_task: this probe runs once per freed slot per
        # event, so the per-job dict lookups are the dispatch loop's hottest
        # line.
        if kind == "map":
            queues = self._map_queues
            for sim_job in self._jobs:  # jobs were added in submission order
                if queues[sim_job.job_id]:
                    return self._pop_task(sim_job, kind)
            return None
        if kind != "reduce":
            raise SchedulingError("unknown task kind %r" % (kind,))
        queues = self._reduce_queues
        for sim_job in self._jobs:
            if queues[sim_job.job_id] and sim_job.map_stage_done:
                return self._pop_task(sim_job, kind)
        return None


class FairScheduler(_JobQueueMixin, Scheduler):
    """Fair sharing: the freed slot goes to the job with the fewest running tasks."""

    def add_job(self, sim_job: SimJob) -> None:
        self._register(sim_job)

    def next_task(self, kind: str, now_s: float) -> Optional[Tuple[SimJob, SimTask]]:
        candidates = [job for job in self._jobs if self._has_ready_task(job, kind)]
        if not candidates:
            return None
        chosen = min(
            candidates,
            key=lambda job: (self._running_tasks.get(job.job_id, 0), job.submit_time_s),
        )
        return self._pop_task(chosen, kind)


class CapacityScheduler(Scheduler):
    """Two-pool capacity scheduling: an interactive pool and a batch pool.

    Jobs whose total data volume is below ``small_job_threshold_bytes`` go to
    the interactive pool; the interactive pool owns
    ``interactive_share`` of every slot type and the batch pool owns the rest.
    Each pool schedules FIFO internally, and an idle pool's slots are lent to
    the other pool (work-conserving).

    This is the "performance tier / capacity tier" split §6.2 of the paper
    argues for; the cache/scheduler ablation benchmarks compare it against
    FIFO on job wait times for small jobs.
    """

    def __init__(self, total_map_slots: int, total_reduce_slots: int,
                 interactive_share: float = 0.5,
                 small_job_threshold_bytes: float = 10 * GB):
        if not 0.0 < interactive_share < 1.0:
            raise SchedulingError("interactive_share must be in (0, 1)")
        if total_map_slots <= 0 or total_reduce_slots <= 0:
            raise SchedulingError("slot totals must be positive")
        self.interactive_share = float(interactive_share)
        self.small_job_threshold_bytes = float(small_job_threshold_bytes)
        self._limits = {
            ("interactive", "map"): max(1, int(round(total_map_slots * interactive_share))),
            ("interactive", "reduce"): max(1, int(round(total_reduce_slots * interactive_share))),
            ("batch", "map"): max(1, total_map_slots - int(round(total_map_slots * interactive_share))),
            ("batch", "reduce"): max(1, total_reduce_slots - int(round(total_reduce_slots * interactive_share))),
        }
        self._running = {key: 0 for key in self._limits}
        self._pools: Dict[str, FifoScheduler] = {
            "interactive": FifoScheduler(),
            "batch": FifoScheduler(),
        }
        self._pool_of_job: Dict[str, str] = {}

    def _pool_for(self, sim_job: SimJob) -> str:
        return ("interactive"
                if sim_job.job.total_bytes <= self.small_job_threshold_bytes
                else "batch")

    def add_job(self, sim_job: SimJob) -> None:
        pool = self._pool_for(sim_job)
        self._pool_of_job[sim_job.job_id] = pool
        self._pools[pool].add_job(sim_job)

    def next_task(self, kind: str, now_s: float) -> Optional[Tuple[SimJob, SimTask]]:
        # Pools under their limit pick first, ordered by how far below their
        # limit they are; an idle pool's unused capacity is lent to the other.
        ordered = sorted(
            self._pools,
            key=lambda pool: self._running[(pool, kind)] / self._limits[(pool, kind)],
        )
        for enforce_limit in (True, False):
            for pool in ordered:
                if enforce_limit and self._running[(pool, kind)] >= self._limits[(pool, kind)]:
                    continue
                picked = self._pools[pool].next_task(kind, now_s)
                if picked is not None:
                    self._running[(pool, kind)] += 1
                    return picked
        return None

    def task_finished(self, sim_job: SimJob) -> None:
        pool = self._pool_of_job.get(sim_job.job_id)
        if pool is None:
            return
        self._pools[pool].task_finished(sim_job)

    def task_released(self, sim_job: SimJob, kind: str) -> None:
        """Return the pool's slot accounting when one of its tasks finishes."""
        pool = self._pool_of_job.get(sim_job.job_id)
        if pool is None:
            return
        self._running[(pool, kind)] = max(0, self._running[(pool, kind)] - 1)

    def job_finished(self, sim_job: SimJob) -> None:
        pool = self._pool_of_job.pop(sim_job.job_id, None)
        if pool is not None:
            self._pools[pool].job_finished(sim_job)

    def pending_jobs(self) -> int:
        return sum(pool.pending_jobs() for pool in self._pools.values())
