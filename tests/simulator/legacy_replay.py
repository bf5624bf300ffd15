"""The pre-vectorization replay event loop, kept as a semantic reference.

The vectorized engine in :mod:`repro.simulator.replay` replaced the original
closure-per-event loop that had defined replay semantics since the simulator
landed.  Every metric the repo publishes (Figure-7 utilization, wait and
completion summaries, cache statistics) is pinned to that loop's event
ordering, so the old implementation is preserved here — unchanged except for
taking the replayer as an argument — as the ground truth the differential
equivalence suites (``test_replay_equivalence.py``, ``test_replay_stretches.py``)
check the new engine against, bit for bit.  It runs on the original task
objects, schedulers and straggler transform (``legacy_tasks.py``,
``legacy_scheduler.py``), built from the replayer's configuration.

This module is test infrastructure, not library code: it is slow by
design (one :class:`legacy_events.Event` object plus closures per
task transition) and exists so that any change to the vectorized engine can
be re-pinned against the original semantics.

The invariants this loop defines (and the new engine reproduces):

* submissions fire at ``max(0, submit_time_s)`` with priority 1, completions
  with priority 0 — at equal times every completion precedes every
  submission, submissions tie-break in input order, completions in dispatch
  order (the event-queue insertion sequence);
* jobs are pulled from the source in input order with a bounded look-ahead;
  ``split_job`` and the straggler transform run at pull time, so the
  transform consumes its RNG stream in input order;
* each submission serves the job's input through HDFS + cache *before* any
  task dispatch at that instant; each finished job writes its output (and
  invalidates the cache) when its last task completes;
* utilization is observed once before the run, after every task dispatch,
  after every task completion, and once after the run at the final horizon;
* metric folds (``record_job``) happen in job-finish event order.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, Optional

import repro.simulator.scheduler as policies
from repro.errors import SimulationError
from repro.simulator.metrics import ACCUMULATOR_BATCH, JobOutcome, SimulationMetrics
from repro.simulator.stragglers import StragglerInjectionStats
from repro.traces.schema import Job

import legacy_scheduler
from legacy_cluster import Cluster
from legacy_events import EventQueue
from legacy_tasks import SimJob, SimTask, split_job, straggler_task_transform

__all__ = ["UtilizationObserver", "legacy_replay_jobs", "legacy_scheduler_for",
           "observe_utilization"]


def legacy_scheduler_for(scheduler):
    """The original scheduler object for a replayer's scheduling policy."""
    if isinstance(scheduler, policies.CapacityScheduler):
        legacy = legacy_scheduler.CapacityScheduler(
            total_map_slots=1, total_reduce_slots=1,
            interactive_share=scheduler.interactive_share,
            small_job_threshold_bytes=scheduler.small_job_threshold_bytes)
        legacy._limits = dict(scheduler._limits)
        return legacy
    if isinstance(scheduler, policies.FairScheduler):
        return legacy_scheduler.FairScheduler()
    assert isinstance(scheduler, policies.FifoScheduler), scheduler
    return legacy_scheduler.FifoScheduler()


class UtilizationObserver:
    """Per-sample utilization recording into ``metrics`` — what
    ``UtilizationAccumulator.observe``/``flush`` did before the engine's
    batched :meth:`~repro.simulator.metrics.UtilizationAccumulator.fold`
    became the accumulator's one entry.

    Observations are checked for time order and buffered, then folded
    :data:`ACCUMULATOR_BATCH` at a time and at :meth:`flush`; the
    ``(time, slots)`` samples are retained when ``metrics`` keeps outcomes.
    """

    __slots__ = ("metrics", "_pending_times", "_pending_slots")

    def __init__(self, metrics: SimulationMetrics):
        self.metrics = metrics
        self._pending_times = []
        self._pending_slots = []

    def observe(self, now_s: float, active_slots: float) -> None:
        """Record the active-slot count at ``now_s`` (monotone non-decreasing)."""
        times = self._pending_times
        last = times[-1] if times else self.metrics.utilization.last_time_s
        if last is not None and now_s < last:
            raise SimulationError(
                "utilization observations must be time-ordered "
                "(%.3f after %.3f)" % (now_s, last))
        times.append(now_s)
        self._pending_slots.append(active_slots)
        if self.metrics.keep_outcomes:
            self.metrics.utilization_samples.append((now_s, active_slots))
        if len(times) >= ACCUMULATOR_BATCH:
            self.flush()

    def flush(self) -> None:
        """Fold any buffered observations into the accumulator."""
        if self._pending_times:
            times, slots = self._pending_times, self._pending_slots
            self._pending_times, self._pending_slots = [], []
            self.metrics.utilization.fold(times, slots)


def observe_utilization(metrics: SimulationMetrics, now_s: float, active_slots: int) -> None:
    """Fold one ``(time, busy slots)`` sample into ``metrics`` at once."""
    observer = UtilizationObserver(metrics)
    observer.observe(now_s, active_slots)
    observer.flush()


def legacy_replay_jobs(replayer, jobs: Iterable[Job],
                       stats: Optional[StragglerInjectionStats] = None) -> SimulationMetrics:
    """Replay ``jobs`` with the original event loop of ``replayer``'s config.

    ``replayer`` is a :class:`~repro.simulator.replay.WorkloadReplayer` (or
    subclass); its cache/HDFS state is mutated exactly as the old
    ``replay_jobs`` did, so use a fresh replayer per call.  Its straggler
    injector's models (if any) become a fresh transform seeded alike, which
    fills ``stats``.
    """
    job_iter: Iterator[Job] = iter(jobs)
    if replayer.max_simulated_jobs is not None:
        job_iter = itertools.islice(job_iter, replayer.max_simulated_jobs)

    queue = EventQueue()
    cluster = Cluster(replayer.cluster_config)
    metrics = SimulationMetrics(total_slots=replayer.cluster_config.total_slots,
                                keep_outcomes=replayer.keep_outcomes)
    active_jobs: Dict[str, SimJob] = {}
    last_submit = [float("-inf")]
    scheduler = legacy_scheduler_for(replayer.scheduler)
    observer = UtilizationObserver(metrics)
    transform = None
    if replayer.stragglers is not None:
        transform = straggler_task_transform(replayer.stragglers.model,
                                             replayer.stragglers.speculation, stats)
    hdfs, cache = replayer.hdfs, replayer.cache

    def serve_input(sim_job: SimJob, now_s: float) -> None:
        """Route the job's input read through HDFS and the cache policy."""
        job = sim_job.job
        path = job.input_path or ("/implicit/%s" % job.job_id)
        size = float(job.input_bytes or 0.0)
        hdfs.read(path, now_s, size)
        cache.access(path, size, now_s)

    def write_output(sim_job: SimJob, now_s: float) -> None:
        """Record the job's output write in HDFS (invalidating stale cache entries)."""
        job = sim_job.job
        if job.output_path is None or not (job.output_bytes or 0.0):
            return
        hdfs.create(job.output_path, float(job.output_bytes), now_s, overwrite=True)
        cache.invalidate(job.output_path)

    def record_utilization():
        observer.observe(queue.now, cluster.total_busy_slots())

    def pull_next_job() -> bool:
        """Schedule the next job's submission; False when the source is dry."""
        job = next(job_iter, None)
        if job is None:
            return False
        if job.submit_time_s < last_submit[0]:
            raise SimulationError(
                "job %s submitted at %.3f after a job submitted at %.3f: "
                "streaming replay needs jobs in arrival-time order (sort "
                "the trace or rebuild the store with 'repro engine convert')"
                % (job.job_id, job.submit_time_s, last_submit[0]))
        last_submit[0] = job.submit_time_s
        sim_job = split_job(job)
        if transform is not None:
            transform(sim_job)
        metrics.jobs_submitted += 1
        queue.schedule(max(0.0, job.submit_time_s), on_submit(sim_job), priority=1)
        return True

    def on_submit(sim_job: SimJob):
        def handler():
            active_jobs[sim_job.job_id] = sim_job
            scheduler.add_job(sim_job)
            serve_input(sim_job, queue.now)
            dispatch("map")
            dispatch("reduce")
            # This submission fired: top the look-ahead window back up.
            pull_next_job()
        return handler

    def dispatch(kind: str):
        """Hand free slots of ``kind`` to the scheduler until it runs dry."""
        while cluster.free_slots(kind) > 0:
            picked = scheduler.next_task(kind, queue.now)
            if picked is None:
                return
            sim_job, task = picked
            node = cluster.acquire_slot(kind)
            if node is None:  # pragma: no cover - free_slots() guarded above
                return
            if sim_job.start_time_s is None:
                sim_job.start_time_s = queue.now
            task.start_time_s = queue.now
            record_utilization()
            queue.schedule_after(task.duration_s, on_task_done(sim_job, task, node, kind))

    def on_task_done(sim_job: SimJob, task: SimTask, node, kind: str):
        def handler():
            task.finish_time_s = queue.now
            cluster.release_slot(node, kind)
            if hasattr(scheduler, "task_finished"):
                scheduler.task_finished(sim_job)
            if hasattr(scheduler, "task_released"):
                scheduler.task_released(sim_job, kind)
            if kind == "map":
                sim_job.maps_remaining -= 1
            else:
                sim_job.reduces_remaining -= 1
            record_utilization()
            if sim_job.done:
                finish_job(sim_job)
            dispatch("map")
            dispatch("reduce")
        return handler

    def finish_job(sim_job: SimJob):
        sim_job.finish_time_s = queue.now
        scheduler.job_finished(sim_job)
        active_jobs.pop(sim_job.job_id, None)
        write_output(sim_job, queue.now)
        metrics.record_job(
            JobOutcome(
                job_id=sim_job.job_id,
                submit_time_s=sim_job.submit_time_s,
                start_time_s=sim_job.start_time_s,
                finish_time_s=sim_job.finish_time_s,
                wait_time_s=sim_job.wait_time_s,
                completion_time_s=sim_job.completion_time_s,
                total_bytes=sim_job.job.total_bytes,
                n_tasks=len(sim_job.map_tasks) + len(sim_job.reduce_tasks),
            )
        )

    # Prime the look-ahead window, then let each fired submission refill it.
    for _ in range(replayer.lookahead):
        if not pull_next_job():
            break
    if metrics.jobs_submitted == 0:
        raise SimulationError("cannot replay an empty job stream")

    record_utilization()
    queue.run()
    metrics.horizon_s = queue.now
    metrics.cache_stats = replayer.cache.stats
    record_utilization()
    observer.flush()
    metrics.finalize()
    return metrics
