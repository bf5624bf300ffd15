"""Job schedulers for the replay simulator.

The scheduler decides which queued task gets a freed slot.  Three policies are
provided:

* :class:`FifoScheduler` — Hadoop's original default: jobs are served strictly
  in submission order.  Under the small-jobs-dominated workloads of the paper
  a single large job can head-of-line-block hundreds of interactive jobs,
  which is the §6.2 observation motivating a split performance/capacity tier.
* :class:`FairScheduler` — Facebook's fair scheduler: slots go to the running
  job with the fewest currently running tasks, equalizing shares.
* :class:`CapacityScheduler` — two pools ("interactive" for small jobs,
  "batch" for everything else) with a configurable slot share per pool: the
  performance/capacity split the paper suggests.

A scheduler object holds only its settings.  For each replay the engine in
:mod:`repro.simulator.replay` asks it for fresh ready queues (``_queues``),
which hold the engine's job records (``_PreparedJob``) and answer one pick per
freed slot.  FIFO's picks never read a running-task count, so the engine
dispatches a FIFO job's whole queued run in one step instead; fair and
capacity picks do read their counts, so the engine asks them once per slot and
reports each task completion back (``released``) before the next pick.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapreplace

from ..errors import SchedulingError
from ..units import GB

__all__ = ["Scheduler", "FifoScheduler", "FairScheduler", "CapacityScheduler"]


class Scheduler:
    """Base scheduler: a factory of per-replay ready queues."""

    def _queues(self):
        raise NotImplementedError


class _FifoQueues:
    """Jobs with queued maps in admission order, and a reduce-ready min-heap
    keyed by admission order (a job enters it when its map stage completes,
    so plain list order would not do)."""

    __slots__ = ("maps", "reduces")

    def __init__(self):
        self.maps = deque()
        self.reduces = []

    def admit(self, record) -> None:
        if record.maps_queued:
            self.maps.append(record)
        elif record.reduces_queued:
            heappush(self.reduces, (record.order, record))

    def reduce_ready(self, record) -> None:
        heappush(self.reduces, (record.order, record))

    def pick(self, kind: str):
        """Take one queued task of ``kind`` from the earliest job holding one."""
        if kind == "map":
            if not self.maps:
                return None
            record = self.maps[0]
            record.maps_queued -= 1
            if not record.maps_queued:
                self.maps.popleft()
            return record
        if not self.reduces:
            return None
        record = self.reduces[0][1]
        record.reduces_queued -= 1
        if not record.reduces_queued:
            heappop(self.reduces)
        return record


class _FairQueues:
    """Ready jobs per kind in a heap of ``(running tasks, admission order,
    job)`` entries; a job's running count covers both kinds.

    A job points at its one current entry (``record.entry``): a pick re-keys
    that entry in place at the top of the heap, a task completion pushes a
    fresh, lower one, and an entry its job no longer points at is dropped
    when it surfaces.  Admission order ranks equal counts as a scan of the
    jobs in submission order would, because jobs are admitted in submit
    order.
    """

    __slots__ = ("maps", "reduces")

    def __init__(self):
        self.maps = []
        self.reduces = []

    @staticmethod
    def _push(heap, record) -> None:
        record.entry = entry = (record.running, record.order, record)
        heappush(heap, entry)

    def admit(self, record) -> None:
        record.running = 0
        record.entry = None
        if record.maps_queued:
            self._push(self.maps, record)
        elif record.reduces_queued:
            self._push(self.reduces, record)

    def reduce_ready(self, record) -> None:
        self._push(self.reduces, record)

    def pick(self, kind: str):
        heap = self.maps if kind == "map" else self.reduces
        while heap:
            entry = heap[0]
            record = entry[2]
            if entry is not record.entry:
                heappop(heap)
                continue
            record.running += 1
            if kind == "map":
                record.maps_queued -= 1
                queued = record.maps_queued
            else:
                record.reduces_queued -= 1
                queued = record.reduces_queued
            if queued:
                record.entry = entry = (record.running, record.order, record)
                heapreplace(heap, entry)
            else:
                record.entry = None
                heappop(heap)
            return record
        return None

    def released(self, record, kind: str) -> None:
        if record.running:
            record.running -= 1
        if record.entry is not None:
            self._push(self.maps if record.maps_queued else self.reduces, record)


class _CapacityQueues:
    """Two FIFO pools and the running-task count of each pool per kind."""

    __slots__ = ("pools", "limits", "running", "threshold")

    def __init__(self, limits, threshold: float):
        self.pools = (_FifoQueues(), _FifoQueues())  # interactive, batch
        self.limits = {kind: (limits[("interactive", kind)], limits[("batch", kind)])
                       for kind in ("map", "reduce")}
        self.running = {"map": [0, 0], "reduce": [0, 0]}
        self.threshold = threshold

    def admit(self, record) -> None:
        record.pool = 0 if record.total_bytes <= self.threshold else 1
        self.pools[record.pool].admit(record)

    def reduce_ready(self, record) -> None:
        self.pools[record.pool].reduce_ready(record)

    def pick(self, kind: str):
        # Pools under their limit pick first, the one furthest below it
        # first (interactive on a tie); then an idle pool's unused capacity
        # is lent to the other.
        running = self.running[kind]
        limits = self.limits[kind]
        order = (1, 0) if running[1] / limits[1] < running[0] / limits[0] else (0, 1)
        for enforce_limit in (True, False):
            for pool in order:
                if enforce_limit and running[pool] >= limits[pool]:
                    continue
                record = self.pools[pool].pick(kind)
                if record is not None:
                    running[pool] += 1
                    return record
        return None

    def released(self, record, kind: str) -> None:
        running = self.running[kind]
        if running[record.pool]:
            running[record.pool] -= 1


class FifoScheduler(Scheduler):
    """Strict submission-order scheduling (Hadoop's original default)."""

    def _queues(self) -> _FifoQueues:
        return _FifoQueues()


class FairScheduler(Scheduler):
    """Fair sharing: the freed slot goes to the job with the fewest running tasks."""

    def _queues(self) -> _FairQueues:
        return _FairQueues()


class CapacityScheduler(Scheduler):
    """Two-pool capacity scheduling: an interactive pool and a batch pool.

    Jobs whose total data volume is at most ``small_job_threshold_bytes`` go
    to the interactive pool; the interactive pool owns
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

    def _queues(self) -> _CapacityQueues:
        return _CapacityQueues(self._limits, self.small_job_threshold_bytes)
