"""Simulation metrics collection — incremental, mergeable, bounded-memory.

The replayer records what the paper's Figure 7 rightmost column shows —
cluster occupancy over time in active slots — plus per-job wait and completion
summaries and the storage-cache statistics needed by the policy-comparison
benchmarks (§4.2/§4.3).

Since the streaming-replay refactor, every summary is maintained
*incrementally* on top of the mergeable aggregate states from
:mod:`repro.engine.aggregates`:

* :class:`MetricAccumulator` folds a stream of per-job scalar samples (wait
  time, completion time) into count/sum/min/max/mean plus a fixed-bin
  log-histogram :class:`~repro.engine.aggregates.HistogramSketch` for
  percentile and CDF read-outs;
* :class:`UtilizationAccumulator` integrates the active-slot step function
  into total busy slot-seconds and per-hour slot-second bins (the Figure-7
  utilization column) without retaining the samples.

Both buffer their samples and fold them a block at a time with NumPy, in a
way that performs the per-sample float operations in the per-sample order
(4096-sample blocks for the pairwise sums, a sequential
``np.add.accumulate`` for the busy total, an index-ordered ``np.add.at`` for
the hourly bins), so the fold granularity never shows in a result.  The
replay engine hands its samples over once per look-ahead refill instead of
once per event.

This means a replay of millions of jobs needs O(1) metric memory.  Retaining
the raw per-job :class:`JobOutcome` list and the utilization samples is now an
*option* (``keep_outcomes``, on by default for :class:`WorkloadReplayer`, off
for :class:`~repro.simulator.replay.StreamingReplayer`); exact medians and
per-job analyses need it, everything else reads from the accumulators.

Exactness contract (relied on by the replay benchmark and the merge tests):

* counts, finished-job tallies, min/max and sketch bin counts are **exact**
  and association-independent — merging any partition of the sample stream is
  bit-identical to folding it serially;
* float sums (and hence means, busy slot-seconds) are deterministic for a
  fixed fold order, so a streamed replay and a materialized replay of the
  same jobs produce bit-identical values; merging differently-partitioned
  accumulators can differ in the last ulp (float addition is not associative);
* percentile read-outs are sketch-approximate (~7% relative resolution),
  clamped to the exact observed min/max, unless per-job outcomes were
  retained, in which case they are exact.

Doctest — fold two disjoint halves and merge, versus one serial pass::

    >>> import numpy as np
    >>> serial = MetricAccumulator()
    >>> serial.update(np.array([1.0, 2.0, 4.0, 8.0]))
    >>> left, right = MetricAccumulator(), MetricAccumulator()
    >>> left.update(np.array([1.0, 2.0]))
    >>> right.update(np.array([4.0, 8.0]))
    >>> left.merge(right)
    >>> (left.count, left.total, left.minimum, left.maximum) == \
        (serial.count, serial.total, serial.minimum, serial.maximum)
    True
    >>> bool(np.array_equal(left.sketch.counts, serial.sketch.counts))
    True
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.aggregates import HistogramSketch, MaxState, MeanState, MinState
from ..errors import SimulationError
from .cache import CacheStats

__all__ = [
    "JobOutcome",
    "MetricAccumulator",
    "UtilizationAccumulator",
    "SimulationMetrics",
]

#: Scalar samples are buffered and folded into the aggregate states in blocks
#: of this size; the buffer is the only per-sample state and is bounded.
ACCUMULATOR_BATCH = 4096

_SECONDS_PER_HOUR = 3600.0


class JobOutcome:
    """Per-job result of a replay.

    Attributes:
        job_id: the job.
        submit_time_s: submission time.
        start_time_s: time the first task started (None if never ran).
        finish_time_s: time the last task finished (None if unfinished).
        wait_time_s: start minus submit (0 if never started).
        completion_time_s: finish minus submit (None if unfinished).
        total_bytes: the job's input + shuffle + output volume.
        n_tasks: number of simulated tasks.
    """

    __slots__ = ("job_id", "submit_time_s", "start_time_s", "finish_time_s",
                 "wait_time_s", "completion_time_s", "total_bytes", "n_tasks")

    def __init__(self, job_id: str, submit_time_s: float,
                 start_time_s: Optional[float], finish_time_s: Optional[float],
                 wait_time_s: float, completion_time_s: Optional[float],
                 total_bytes: float, n_tasks: int):
        self.job_id = job_id
        self.submit_time_s = submit_time_s
        self.start_time_s = start_time_s
        self.finish_time_s = finish_time_s
        self.wait_time_s = wait_time_s
        self.completion_time_s = completion_time_s
        self.total_bytes = total_bytes
        self.n_tasks = n_tasks

    def __repr__(self) -> str:
        return ("JobOutcome(job_id=%r, submit_time_s=%r, wait_time_s=%r, "
                "completion_time_s=%r)" % (self.job_id, self.submit_time_s,
                                           self.wait_time_s, self.completion_time_s))

    def __eq__(self, other) -> bool:
        if not isinstance(other, JobOutcome):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class MetricAccumulator:
    """Mergeable summary of one scalar metric stream (e.g. job wait times).

    Built on the engine's aggregate states: a :class:`MeanState` carries the
    exact count and float sum, :class:`MinState`/:class:`MaxState` the exact
    extremes, and a :class:`HistogramSketch` supports percentile/CDF
    read-outs.  Scalars are buffered (:data:`ACCUMULATOR_BATCH` at a time)
    so the per-sample cost is a list append, not a NumPy round-trip.
    """

    __slots__ = ("mean", "low", "high", "sketch", "_pending")

    def __init__(self):
        self.mean = MeanState()
        self.low = MinState()
        self.high = MaxState()
        self.sketch = HistogramSketch()
        self._pending: List[float] = []

    # -- folding -----------------------------------------------------------
    def add(self, value: float) -> None:
        """Fold one scalar sample."""
        self._pending.append(value)
        if len(self._pending) >= ACCUMULATOR_BATCH:
            self.flush()

    def _extend(self, values: List[float]) -> None:
        """Fold scalars exactly as one :meth:`add` each would: the blocks
        handed to the states end at the same samples, so the per-block
        pairwise sums (and every digest bit) are unchanged."""
        pending = self._pending
        pending.extend(values)
        while len(pending) >= ACCUMULATOR_BATCH:
            self._update_array(np.array(pending[:ACCUMULATOR_BATCH], dtype=float))
            del pending[:ACCUMULATOR_BATCH]

    def update(self, values: np.ndarray) -> None:
        """Fold a batch of samples (flushes buffered scalars first)."""
        self.flush()
        self._update_array(np.asarray(values, dtype=float))

    def flush(self) -> None:
        """Fold any buffered scalars into the aggregate states."""
        if self._pending:
            block = np.array(self._pending, dtype=float)
            self._pending = []
            self._update_array(block)

    def _update_array(self, values: np.ndarray) -> None:
        if values.size == 0:
            return
        self.mean.update(values)
        self.low.update(values)
        self.high.update(values)
        self.sketch.update(values)

    def merge(self, other: "MetricAccumulator") -> None:
        """Combine with an accumulator folded over a disjoint sample stream."""
        self.flush()
        other.flush()
        self.mean.merge(other.mean)
        self.low.merge(other.low)
        self.high.merge(other.high)
        self.sketch.merge(other.sketch)

    # -- read-outs ---------------------------------------------------------
    @property
    def count(self) -> int:
        """Exact number of samples folded so far."""
        self.flush()
        return self.mean.count

    @property
    def total(self) -> float:
        self.flush()
        return self.mean.total

    @property
    def minimum(self) -> Optional[float]:
        self.flush()
        return self.low.value

    @property
    def maximum(self) -> Optional[float]:
        self.flush()
        return self.high.value

    @property
    def mean_value(self) -> Optional[float]:
        self.flush()
        return self.mean.result()

    def percentile(self, q: float) -> Optional[float]:
        """Sketch-approximate percentile, clamped to the observed min/max."""
        self.flush()
        return self.sketch.percentile(q)

    def cdf_points(self, max_points: int = 256) -> List[Tuple[float, float]]:
        self.flush()
        return self.sketch.cdf_points(max_points=max_points)


class UtilizationAccumulator:
    """Incremental time-weighted integral of the active-slot step function.

    Each observation ``(now, slots)`` closes the segment since the previous
    one (charging the *previous* slot count over it, step-function semantics)
    into both the total busy slot-seconds and per-hour slot-second bins.  The
    bins grow with the simulated horizon (one float per hour), not with the
    number of observations, so a replay of millions of task events keeps
    O(hours) utilization state.

    Observations are buffered (:data:`ACCUMULATOR_BATCH` at a time, like
    :class:`MetricAccumulator`) and folded in one vectorized pass; the pass
    performs the same float operations in the same order as closing one
    segment per observation, so every read-out is bit-identical to it:

    * ``busy_slot_seconds`` is the last element of a sequential
      ``np.add.accumulate`` over ``[busy, slots * (end - start), ...]``;
    * hourly bins take their pieces through ``np.add.at``, which applies in
      index order; a segment that crosses an hour boundary is split into the
      same per-hour pieces as a scalar walk would cut.

    Zero-length segments (several observations at one instant) add nothing.
    Idle (zero-slot) segments still extend the hourly bins so the step
    reconstruction in :meth:`SimulationMetrics.utilization_steps` covers the
    full span.  Every read-out folds the buffer first.
    """

    __slots__ = ("_first", "_last", "_last_slots", "_busy", "_hourly",
                 "_pending_times", "_pending_slots")

    def __init__(self):
        self._first: Optional[float] = None
        self._last: Optional[float] = None
        self._last_slots = 0.0
        self._busy = 0.0
        self._hourly = np.zeros(0, dtype=float)
        self._pending_times: List[float] = []
        self._pending_slots: List[float] = []

    # -- folding -----------------------------------------------------------
    def observe(self, now_s: float, active_slots: float) -> None:
        """Record the active-slot count at ``now_s`` (monotone non-decreasing)."""
        times = self._pending_times
        last = times[-1] if times else self._last
        if last is not None and now_s < last:
            raise SimulationError(
                "utilization observations must be time-ordered "
                "(%.3f after %.3f)" % (now_s, last))
        times.append(now_s)
        self._pending_slots.append(active_slots)
        if len(times) >= ACCUMULATOR_BATCH:
            self.flush()

    def flush(self) -> None:
        """Fold any buffered observations into the integral."""
        if self._pending_times:
            times, slots = self._pending_times, self._pending_slots
            self._pending_times, self._pending_slots = [], []
            self._fold(times, slots)

    def _fold(self, times: List[float], slots: List[float]) -> None:
        """Fold time-ordered observations that follow every one folded so far."""
        if self._last is None:
            # The first observation opens the step function: a zero-length
            # segment from itself to itself, skipped below.
            self._first = self._last = times[0]
            self._last_slots = float(slots[0])
        edges = np.array([self._last] + times, dtype=float)
        values = np.array([self._last_slots] + slots[:-1], dtype=float)
        self._last = times[-1]
        self._last_slots = float(slots[-1])
        starts, ends = edges[:-1], edges[1:]
        live = ends > starts
        if not live.all():
            starts, ends, values = starts[live], ends[live], values[live]
        if not starts.size:
            return
        charges = values * (ends - starts)
        self._busy = float(np.add.accumulate(
            np.concatenate(([self._busy], charges)))[-1])
        hours = np.floor_divide(starts, _SECONDS_PER_HOUR).astype(np.int64)
        crossing = ends > (hours + 1) * _SECONDS_PER_HOUR
        if crossing.any():
            hours, charges = _split_at_hours(starts, ends, values, hours,
                                             charges, crossing)
        top = int(hours.max()) + 1
        if top > self._hourly.size:
            self._hourly = np.concatenate(
                (self._hourly, np.zeros(top - self._hourly.size)))
        np.add.at(self._hourly, hours, charges)

    def merge(self, other: "UtilizationAccumulator") -> None:
        """Combine with an accumulator covering a disjoint simulated period."""
        self.flush()
        other.flush()
        self._busy += other._busy
        if other._hourly.size > self._hourly.size:
            self._hourly = np.concatenate(
                (self._hourly, np.zeros(other._hourly.size - self._hourly.size)))
        self._hourly[:other._hourly.size] += other._hourly
        if other._first is not None:
            self._first = (other._first if self._first is None
                           else min(self._first, other._first))
        if other._last is not None:
            self._last = (other._last if self._last is None
                          else max(self._last, other._last))

    # -- read-outs ---------------------------------------------------------
    @property
    def first_time_s(self) -> Optional[float]:
        self.flush()
        return self._first

    @property
    def last_time_s(self) -> Optional[float]:
        self.flush()
        return self._last

    @property
    def busy_slot_seconds(self) -> float:
        self.flush()
        return self._busy

    @property
    def hourly_slot_seconds(self) -> List[float]:
        """Slot-seconds per simulated hour (a copy)."""
        self.flush()
        return self._hourly.tolist()

    @property
    def span_s(self) -> float:
        """Time between the first and last observation."""
        self.flush()
        if self._first is None or self._last is None:
            return 0.0
        return self._last - self._first

    def hourly_active_slots(self) -> np.ndarray:
        """Average active slots per hour — the Figure-7 utilization column."""
        self.flush()
        if not self._hourly.size:
            return np.zeros(1, dtype=float)
        return self._hourly / _SECONDS_PER_HOUR

    def mean_utilization(self, total_slots: int) -> float:
        """Mean fraction of ``total_slots`` busy over the observed span."""
        span = self.span_s
        if total_slots <= 0 or span <= 0:
            return 0.0
        return self._busy / (span * total_slots)


def _split_at_hours(starts, ends, values, hours, charges, crossing):
    """Replace each hour-crossing segment's single (hour, charge) entry by the
    per-hour pieces a scalar walk cuts it into, keeping segment order."""
    hour_parts, charge_parts, done = [], [], 0
    for index in np.flatnonzero(crossing).tolist():
        hour_parts.append(hours[done:index])
        charge_parts.append(charges[done:index])
        start, end = float(starts[index]), float(ends[index])
        value = float(values[index])
        hour = int(start // _SECONDS_PER_HOUR)
        piece_hours, piece_charges = [], []
        while start < end:
            hour_end = min(end, (hour + 1) * _SECONDS_PER_HOUR)
            piece_hours.append(hour)
            piece_charges.append(value * (hour_end - start))
            start = hour_end
            hour += 1
        hour_parts.append(np.array(piece_hours, dtype=np.int64))
        charge_parts.append(np.array(piece_charges, dtype=float))
        done = index + 1
    hour_parts.append(hours[done:])
    charge_parts.append(charges[done:])
    return np.concatenate(hour_parts), np.concatenate(charge_parts)


class SimulationMetrics:
    """Aggregated output of one replay run.

    All summaries (wait/completion means and percentiles, utilization) are
    maintained incrementally in mergeable accumulators, so the memory needed
    is independent of the number of replayed jobs.  With ``keep_outcomes=True``
    (the default for materialized replays) the raw per-job
    :class:`JobOutcome` list and the ``(time, active_slots)`` utilization
    samples are additionally retained for exact medians and per-job analyses;
    streaming replays disable it.

    Attributes:
        outcomes: per-job outcomes in finish order (empty when not retained).
        utilization_samples: (time, active slots) samples (empty when not
            retained).
        keep_outcomes: whether the two lists above are populated.
        total_slots: slot capacity of the simulated cluster.
        cache_stats: statistics of the attached cache policy (if any).
        horizon_s: simulated time span.
        jobs_submitted: number of jobs submitted to the simulator.
        finished_jobs: number of jobs that completed.
        wait: :class:`MetricAccumulator` over per-job wait times.
        completion: :class:`MetricAccumulator` over per-job completion times.
        utilization: :class:`UtilizationAccumulator` over active-slot samples.
    """

    def __init__(self, total_slots: int = 0, keep_outcomes: bool = True):
        self.outcomes: List[JobOutcome] = []
        self.utilization_samples: List[tuple] = []
        self.keep_outcomes = keep_outcomes
        self.total_slots = total_slots
        self.cache_stats: Optional[CacheStats] = None
        self.horizon_s = 0.0
        self.jobs_submitted = 0
        self.finished_jobs = 0
        self.wait = MetricAccumulator()
        self.completion = MetricAccumulator()
        self.utilization = UtilizationAccumulator()

    # -- recording ---------------------------------------------------------
    def record_submission(self) -> None:
        """Count one job handed to the simulator."""
        self.jobs_submitted += 1

    def record_job(self, outcome: JobOutcome) -> None:
        """Fold one finished (or abandoned) job into the summaries."""
        if outcome.finish_time_s is not None:
            self.finished_jobs += 1
        if outcome.start_time_s is not None:
            self.wait.add(outcome.wait_time_s)
        if outcome.completion_time_s is not None:
            self.completion.add(outcome.completion_time_s)
        if self.keep_outcomes:
            self.outcomes.append(outcome)

    def finalize(self) -> None:
        """Flush buffered accumulator state (called at the end of a replay)."""
        self.wait.flush()
        self.completion.flush()
        self.utilization.flush()

    # -- merging -----------------------------------------------------------
    def merge(self, other: "SimulationMetrics") -> None:
        """Merge metrics from a replay of a disjoint job set.

        Counts, extremes and percentile-sketch bins merge exactly; float sums
        are subject to addition rounding (see the module docstring).  Cache
        statistics and retained outcome lists are concatenated.
        """
        self.jobs_submitted += other.jobs_submitted
        self.finished_jobs += other.finished_jobs
        self.wait.merge(other.wait)
        self.completion.merge(other.completion)
        self.utilization.merge(other.utilization)
        self.horizon_s = max(self.horizon_s, other.horizon_s)
        self.total_slots = max(self.total_slots, other.total_slots)
        if other.cache_stats is not None:
            if self.cache_stats is None:
                self.cache_stats = CacheStats()
            for field_name in ("hits", "misses", "bytes_from_cache",
                               "bytes_from_disk", "evictions", "admissions_rejected"):
                setattr(self.cache_stats, field_name,
                        getattr(self.cache_stats, field_name)
                        + getattr(other.cache_stats, field_name))
        if self.keep_outcomes and other.keep_outcomes:
            self.outcomes.extend(other.outcomes)
            self.utilization_samples.extend(other.utilization_samples)
        else:
            # Mixed retention: a partial per-job list is worse than none —
            # exact summaries and utilization_steps() would silently cover
            # only one side's jobs.  Demote to accumulator-only.
            self.keep_outcomes = False
            self.outcomes = []
            self.utilization_samples = []

    # -- summaries ---------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        """Number of jobs recorded (submission count when known)."""
        return self.jobs_submitted or len(self.outcomes)

    def completion_times(self) -> np.ndarray:
        """Completion times of finished jobs (needs retained outcomes)."""
        return np.array([
            outcome.completion_time_s for outcome in self.outcomes
            if outcome.completion_time_s is not None
        ], dtype=float)

    def median_completion_time(self) -> float:
        """Exact median with retained outcomes, sketch-approximate otherwise."""
        return self.percentile_completion_time(50.0)

    def percentile_completion_time(self, q: float) -> float:
        """Completion-time percentile.

        Exact (``numpy.percentile`` over the retained outcomes) when
        ``keep_outcomes`` is on; otherwise read from the log-histogram sketch
        (~7% relative resolution, clamped to the observed min/max).
        """
        if self.keep_outcomes:
            times = self.completion_times()
            if times.size == 0:
                raise SimulationError("no finished jobs to summarize")
            return float(np.percentile(times, q))
        value = self.completion.percentile(q)
        if value is None:
            raise SimulationError("no finished jobs to summarize")
        return float(value)

    def mean_wait_time(self) -> float:
        value = self.wait.mean_value
        return 0.0 if value is None else float(value)

    def mean_utilization(self) -> float:
        """Mean fraction of slots busy, time-weighted over the replay."""
        return self.utilization.mean_utilization(self.total_slots)

    def hourly_active_slots(self) -> np.ndarray:
        """Average active slots per hour — the Figure-7 utilization column."""
        return self.utilization.hourly_active_slots()

    def utilization_steps(self) -> List[Tuple[float, float, float]]:
        """(start, end, busy_slots) steps of the occupancy function.

        Sample-exact when utilization samples were retained; otherwise the
        steps are reconstructed at hour granularity from the accumulator bins
        (good enough for energy integration over multi-hour horizons).

        Raises:
            SimulationError: when the replay spans zero simulated time.
        """
        if self.utilization_samples:
            samples = sorted(self.utilization_samples, key=lambda sample: sample[0])
            steps = []
            for index in range(len(samples) - 1):
                start, busy = samples[index]
                end = samples[index + 1][0]
                if end > start:
                    steps.append((float(start), float(end), float(busy)))
            if not steps:
                raise SimulationError("utilization samples span zero simulated time")
            return steps
        bins = self.utilization.hourly_slot_seconds
        if not bins:
            raise SimulationError("energy accounting needs a replay spanning "
                                  "nonzero simulated time")
        return [
            (hour * _SECONDS_PER_HOUR, (hour + 1) * _SECONDS_PER_HOUR,
             slot_seconds / _SECONDS_PER_HOUR)
            for hour, slot_seconds in enumerate(bins)
        ]

    def digest(self) -> Dict[str, object]:
        """Canonical bit-exact fingerprint of every published replay metric.

        Two replays of the same jobs produce equal digests **iff** their
        event sequences folded the same values in the same order: the digest
        covers the exact counters, the ``repr`` (shortest round-trip form) of
        every float sum/extreme, SHA-256 hashes of the percentile-sketch bin
        counts and the hourly utilization bins, and the cache counters.  It
        deliberately excludes observation *counts* and the retained raw
        sample/outcome lists — those differ in granularity (not content)
        between the vectorized engine and the legacy reference loop, which
        records one utilization sample per task transition instead of one per
        simulated instant.

        JSON round-trips losslessly (floats are ``repr`` strings), so the
        replay benchmark compares digests across subprocess boundaries and CI
        compares sharded lanes against the serial one.
        """
        import hashlib

        self.finalize()

        def sketch_digest(accumulator: MetricAccumulator) -> Dict[str, object]:
            sketch = accumulator.sketch
            return {
                "count": accumulator.count,
                "total": repr(accumulator.total),
                "minimum": repr(accumulator.minimum),
                "maximum": repr(accumulator.maximum),
                "bins_sha256": hashlib.sha256(
                    np.ascontiguousarray(sketch.counts).tobytes()).hexdigest(),
                "zero_count": sketch.zero_count,
                "n": sketch.n,
                "low": repr(sketch.low),
                "high": repr(sketch.high),
            }

        utilization = self.utilization
        hourly = np.array(utilization.hourly_slot_seconds, dtype=float)
        digest: Dict[str, object] = {
            "jobs_submitted": self.jobs_submitted,
            "finished_jobs": self.finished_jobs,
            "horizon_s": repr(self.horizon_s),
            "total_slots": self.total_slots,
            "wait": sketch_digest(self.wait),
            "completion": sketch_digest(self.completion),
            "busy_slot_seconds": repr(utilization.busy_slot_seconds),
            "utilization_first_s": repr(utilization.first_time_s),
            "utilization_last_s": repr(utilization.last_time_s),
            "hourly_bins": len(utilization.hourly_slot_seconds),
            "hourly_sha256": hashlib.sha256(hourly.tobytes()).hexdigest(),
        }
        if self.cache_stats is not None:
            stats = self.cache_stats
            digest["cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "bytes_from_cache": repr(stats.bytes_from_cache),
                "bytes_from_disk": repr(stats.bytes_from_disk),
                "evictions": stats.evictions,
                "admissions_rejected": stats.admissions_rejected,
            }
        return digest

    def summary(self) -> Dict[str, float]:
        """Accumulator-based scalar summary (identical for streamed and
        materialized replays of the same jobs)."""
        self.finalize()
        summary = {
            "jobs": self.n_jobs,
            "finished_jobs": self.finished_jobs,
            "horizon_s": self.horizon_s,
            "mean_wait_s": self.mean_wait_time(),
            "p95_wait_s": float(self.wait.percentile(95.0) or 0.0),
            "mean_completion_s": float(self.completion.mean_value or 0.0),
            "p50_completion_s": float(self.completion.percentile(50.0) or 0.0),
            "p99_completion_s": float(self.completion.percentile(99.0) or 0.0),
            "mean_utilization": self.mean_utilization(),
        }
        if self.cache_stats is not None:
            summary["cache_hit_rate"] = self.cache_stats.hit_rate
            summary["cache_byte_hit_rate"] = self.cache_stats.byte_hit_rate
        return summary
