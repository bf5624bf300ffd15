"""Property tests for the metric-accumulator merge algebra.

The sharded replayer's windowed mode (and the scenario sweep before it)
leans on one algebraic claim: folding a sample stream through *any*
partition, merged in *any* order, is equivalent to the unpartitioned fold.
The claim is exact for everything integer-valued — sample counts, min/max
extremes, log-histogram sketch bins and zero counts, observation counts —
and exact-up-to-float-addition-ordering for the float sums (mean totals,
busy-slot seconds, hourly utilization bins), which is the documented
contract of :meth:`SimulationMetrics.merge`.

Hypothesis drives the partition points, merge orders, sample values and
utilization step functions.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import (
    JobOutcome,
    MetricAccumulator,
    SimulationMetrics,
    UtilizationAccumulator,
)

# Finite, non-negative magnitudes spanning the sketch's dynamic range
# (10^-3 .. 10^16), plus exact zeros for the zero-count path.
sample_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e12, allow_nan=False,
              allow_infinity=False),
)
sample_lists = st.lists(sample_values, min_size=0, max_size=200)


def partition(values, cut_points):
    """Split ``values`` at the (deduplicated, sorted) cut indices."""
    cuts = sorted({min(c, len(values)) for c in cut_points})
    parts, last = [], 0
    for cut in cuts:
        parts.append(values[last:cut])
        last = cut
    parts.append(values[last:])
    return parts


def close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class TestMetricAccumulatorMergeAlgebra:
    @given(values=sample_lists,
           cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=5),
           order_seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(deadline=None, max_examples=150)
    def test_any_partition_any_order_matches_unpartitioned(
            self, values, cuts, order_seed):
        whole = MetricAccumulator()
        for value in values:
            whole.add(value)

        parts = []
        for chunk in partition(values, cuts):
            acc = MetricAccumulator()
            for value in chunk:
                acc.add(value)
            parts.append(acc)
        rng = np.random.default_rng(order_seed)
        rng.shuffle(parts)
        merged = parts[0]
        for acc in parts[1:]:
            merged.merge(acc)

        assert merged.count == whole.count
        assert merged.minimum == whole.minimum  # exact: min of mins
        assert merged.maximum == whole.maximum
        assert np.array_equal(merged.sketch.counts, whole.sketch.counts)
        assert merged.sketch.zero_count == whole.sketch.zero_count
        assert merged.sketch.n == whole.sketch.n
        assert close(merged.total, whole.total)  # float sums: order-sensitive

    @given(values=st.lists(sample_values, min_size=1, max_size=100))
    @settings(deadline=None, max_examples=100)
    def test_scalar_adds_equal_one_batch_update(self, values):
        """add() buffering must be invisible: same states as one update()."""
        scalars = MetricAccumulator()
        for value in values:
            scalars.add(value)
        batched = MetricAccumulator()
        batched.update(np.array(values, dtype=float))
        assert scalars.count == batched.count
        assert scalars.minimum == batched.minimum
        assert scalars.maximum == batched.maximum
        assert np.array_equal(scalars.sketch.counts, batched.sketch.counts)
        assert scalars.sketch.zero_count == batched.sketch.zero_count
        assert close(scalars.total, batched.total)

    @given(values=sample_lists)
    @settings(deadline=None, max_examples=50)
    def test_merging_empty_is_identity(self, values):
        acc = MetricAccumulator()
        acc.update(np.array(values, dtype=float))
        before = (acc.count, acc.total, acc.minimum, acc.maximum,
                  acc.sketch.counts.copy(), acc.sketch.zero_count)
        acc.merge(MetricAccumulator())
        assert acc.count == before[0]
        assert acc.total == before[1]
        assert acc.minimum == before[2]
        assert acc.maximum == before[3]
        assert np.array_equal(acc.sketch.counts, before[4])
        assert acc.sketch.zero_count == before[5]


# A utilization step function: strictly increasing times, integer slot counts.
step_streams = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=50 * 3600.0,
                        allow_nan=False, allow_infinity=False),
              st.integers(min_value=0, max_value=400)),
    min_size=2, max_size=60,
).map(lambda pairs: sorted({t: s for t, s in pairs}.items()))


def fold(accumulator, observations):
    """Fold ``(time, slots)`` pairs into a utilization accumulator."""
    accumulator.fold([time_s for time_s, _ in observations],
                     [slots for _, slots in observations])


class TestUtilizationMergeAlgebra:
    @given(stream=step_streams,
           cuts=st.lists(st.integers(min_value=1, max_value=60), max_size=4))
    @settings(deadline=None, max_examples=150)
    def test_split_streams_merge_to_the_unsplit_integral(self, stream, cuts):
        """Splitting an observation stream at observation boundaries — each
        part re-observing the boundary sample as its baseline, exactly how a
        windowed shard would seed its window — merges back to the unsplit
        integral (hour bins included) up to float-addition ordering."""
        whole = UtilizationAccumulator()
        fold(whole, stream)

        parts_acc = []
        parts = [p for p in partition(stream, cuts) if p]
        previous_last = None
        for chunk in parts:
            acc = UtilizationAccumulator()
            if previous_last is not None:
                fold(acc, [previous_last])  # baseline: no segment charged
            fold(acc, chunk)
            previous_last = chunk[-1]
            parts_acc.append(acc)
        merged = parts_acc[0]
        for acc in parts_acc[1:]:
            merged.merge(acc)

        assert close(merged.busy_slot_seconds, whole.busy_slot_seconds)
        assert merged.first_time_s == whole.first_time_s
        assert merged.last_time_s == whole.last_time_s
        assert len(merged.hourly_slot_seconds) == len(whole.hourly_slot_seconds)
        for got, expected in zip(merged.hourly_slot_seconds,
                                 whole.hourly_slot_seconds):
            assert close(got, expected)

    @given(stream=step_streams)
    @settings(deadline=None, max_examples=50)
    def test_merge_extends_shorter_hour_bins(self, stream):
        early = UtilizationAccumulator()
        fold(early, [(0.0, 10), (1800.0, 0)])  # half an hour of 10 slots
        late = UtilizationAccumulator()
        fold(late, [(time_s + 10 * 3600.0, slots)  # shifted past hour 10
                    for time_s, slots in stream])
        early.merge(late)
        assert early.busy_slot_seconds >= 10 * 1800.0 - 1e-6
        if late.hourly_slot_seconds:
            assert len(early.hourly_slot_seconds) == len(late.hourly_slot_seconds)


def outcome(index, wait, completion):
    submit = float(index)
    return JobOutcome(job_id="j%d" % index, submit_time_s=submit,
                      start_time_s=submit + wait,
                      finish_time_s=submit + wait + completion,
                      wait_time_s=wait, completion_time_s=completion,
                      total_bytes=1e6 * index, n_tasks=1 + index % 7)


class TestSimulationMetricsMergeAlgebra:
    @given(waits=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                    allow_nan=False), min_size=1, max_size=80),
           cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=3),
           order_seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(deadline=None, max_examples=100)
    def test_outcome_partition_merges_exactly(self, waits, cuts, order_seed):
        outcomes = [outcome(i, wait, wait * 2.0 + 1.0)
                    for i, wait in enumerate(waits)]
        whole = SimulationMetrics(total_slots=600, keep_outcomes=False)
        for item in outcomes:
            whole.jobs_submitted += 1
            whole.record_job(item)
        whole.finalize()

        parts = []
        for chunk in partition(outcomes, cuts):
            metrics = SimulationMetrics(total_slots=600, keep_outcomes=False)
            for item in chunk:
                metrics.jobs_submitted += 1
                metrics.record_job(item)
            metrics.finalize()
            parts.append(metrics)
        rng = np.random.default_rng(order_seed)
        rng.shuffle(parts)
        merged = parts[0]
        for metrics in parts[1:]:
            merged.merge(metrics)

        assert merged.jobs_submitted == whole.jobs_submitted
        assert merged.finished_jobs == whole.finished_jobs
        assert merged.wait.count == whole.wait.count
        assert merged.completion.count == whole.completion.count
        assert merged.wait.minimum == whole.wait.minimum
        assert merged.wait.maximum == whole.wait.maximum
        assert np.array_equal(merged.wait.sketch.counts,
                              whole.wait.sketch.counts)
        assert np.array_equal(merged.completion.sketch.counts,
                              whole.completion.sketch.counts)
        assert merged.wait.sketch.zero_count == whole.wait.sketch.zero_count
        assert close(merged.wait.total, whole.wait.total)
        assert close(merged.completion.total, whole.completion.total)
