"""The batched metric folds equal the per-sample folds they replaced.

``ScalarUtilization`` below is the previous body of
``UtilizationAccumulator.observe``: it closed one segment per observation
with Python float arithmetic.  It stays here as the differential oracle for
the vectorized fold (``np.add.accumulate`` for the busy total, ``np.add.at``
for the hourly bins), which must agree with it bit for bit — ``repr`` of
every float, bytes of the bins — whatever way the stream is cut into
folds.  The job side is pinned the same way: ``MetricAccumulator._extend``,
the path a replay takes for wait and completion samples, against one
``add`` per sample across the 4096-sample block boundaries.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulator import ClusterConfig, MetricAccumulator, WorkloadReplayer
from repro.simulator.metrics import ACCUMULATOR_BATCH, UtilizationAccumulator

HOUR = 3600.0


class ScalarUtilization:
    """The per-observation integral, as it was in simulator/metrics.py."""

    def __init__(self):
        self.first_time_s = None
        self.last_time_s = None
        self._last_slots = 0.0
        self.busy_slot_seconds = 0.0
        self.hourly_slot_seconds = []

    def observe(self, now_s, active_slots):
        if self.last_time_s is None:
            self.first_time_s = now_s
            self.last_time_s = now_s
            self._last_slots = float(active_slots)
            return
        if now_s < self.last_time_s:
            raise SimulationError(
                "utilization observations must be time-ordered "
                "(%.3f after %.3f)" % (now_s, self.last_time_s))
        start, end, value = self.last_time_s, now_s, self._last_slots
        if end > start:
            self.busy_slot_seconds += value * (end - start)
            hour = int(start // HOUR)
            while start < end:
                hour_end = min(end, (hour + 1) * HOUR)
                if hour >= len(self.hourly_slot_seconds):
                    self.hourly_slot_seconds.extend(
                        [0.0] * (hour + 1 - len(self.hourly_slot_seconds)))
                self.hourly_slot_seconds[hour] += value * (hour_end - start)
                start = hour_end
                hour += 1
        self.last_time_s = now_s
        self._last_slots = float(active_slots)


def state(accumulator):
    """Every read-out, in a form that compares floats bit for bit."""
    return {
        "busy": repr(accumulator.busy_slot_seconds),
        "first": repr(accumulator.first_time_s),
        "last": repr(accumulator.last_time_s),
        "last_slots": repr(accumulator._last_slots),
        "hourly": np.array(accumulator.hourly_slot_seconds, dtype=float).tobytes(),
    }


# -- observation streams ------------------------------------------------------
# A step is the gap to the next observation: zero (several observations at one
# instant), sub-second to minutes, whole hours, or a jump that lands on, one
# ulp before or one ulp after an hour boundary.
def land_near_boundary(choice):
    hours, where = choice
    boundary = hours * HOUR
    return ("at", {"before": math.nextafter(boundary, 0.0), "on": boundary,
                   "after": math.nextafter(boundary, math.inf)}[where])


steps = st.one_of(
    st.just(("gap", 0.0)),
    st.tuples(st.just("gap"), st.floats(min_value=1e-6, max_value=900.0)),
    st.tuples(st.just("gap"), st.floats(min_value=HOUR, max_value=5 * HOUR)),
    st.tuples(st.integers(min_value=0, max_value=30),
              st.sampled_from(["before", "on", "after"])).map(land_near_boundary),
)
slot_counts = st.one_of(st.just(0), st.integers(min_value=0, max_value=600),
                        st.floats(min_value=0.0, max_value=600.0))


@st.composite
def streams(draw, min_size=1, max_size=60):
    start = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10 * HOUR)))
    pairs = draw(st.lists(st.tuples(steps, slot_counts), min_size=min_size,
                          max_size=max_size))
    times, slots, now = [], [], start
    for (kind, amount), count in pairs:
        now = now + amount if kind == "gap" else max(now, amount)
        times.append(now)
        slots.append(count)
    return times, slots


def cut(items, points):
    bounds = [0] + sorted({p for p in points if 0 < p < len(items)}) + [len(items)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class TestUtilizationFold:
    @given(stream=streams(),
           cuts=st.lists(st.integers(min_value=1, max_value=60), max_size=8),
           every=st.booleans())
    @settings(deadline=None, max_examples=300)
    def test_fold_equals_scalar_at_every_split(self, stream, cuts, every):
        """Fold the stream in parts (the replay engine's path) and, beside
        it, observe it one sample at a time with a flush at each split; after
        every part both equal the scalar oracle fed the same prefix."""
        times, slots = stream
        points = range(1, len(times)) if every else cuts
        oracle, folded, observed = (ScalarUtilization(), UtilizationAccumulator(),
                                    UtilizationAccumulator())
        for part_times, part_slots in zip(cut(times, points), cut(slots, points)):
            for now_s, count in zip(part_times, part_slots):
                oracle.observe(now_s, count)
                observed.observe(now_s, count)
            observed.flush()
            folded._fold(list(part_times), list(part_slots))
            assert state(folded) == state(oracle)
            assert state(observed) == state(oracle)

    @given(stream=streams(min_size=2), position=st.integers(min_value=1, max_value=59),
           back=st.floats(min_value=1e-9, max_value=HOUR), flush_first=st.booleans())
    @settings(deadline=None, max_examples=150)
    def test_out_of_order_sample_raises_at_the_same_call(self, stream, position,
                                                         back, flush_first):
        times, slots = stream
        position = min(position, len(times) - 1)
        times = list(times)
        times.insert(position, times[position - 1] - back)
        slots = list(slots)
        slots.insert(position, 1)
        if not times[position] < times[position - 1]:
            return  # the step back vanished in rounding
        oracle, batched = ScalarUtilization(), UtilizationAccumulator()
        for index, (now_s, count) in enumerate(zip(times, slots)):
            if flush_first and index == position:
                batched.flush()
            try:
                oracle.observe(now_s, count)
            except SimulationError as error:
                expected = str(error)
                break
            batched.observe(now_s, count)
        assert index == position
        with pytest.raises(SimulationError) as raised:
            batched.observe(times[position], slots[position])
        assert str(raised.value) == expected

    def test_replayed_samples_fold_like_the_scalar_integral(self, replay_trace_15k):
        """At replay scale: the retained (time, slots) samples of a two-node
        replay, folded by the oracle, give the replay's own integral."""
        metrics = WorkloadReplayer(cluster_config=ClusterConfig(n_nodes=2),
                                   keep_outcomes=True).replay(replay_trace_15k)
        oracle = ScalarUtilization()
        for now_s, count in metrics.utilization_samples:
            oracle.observe(now_s, count)
        assert len(oracle.hourly_slot_seconds) > 24
        assert state(metrics.utilization) == state(oracle)


class TestJobFold:
    @pytest.mark.parametrize("n", [ACCUMULATOR_BATCH - 1, ACCUMULATOR_BATCH,
                                   ACCUMULATOR_BATCH + 1, 10000])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_extend_equals_one_add_per_sample(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.lognormal(3.0, 1.0, n)
        values[rng.random(n) < 0.1] = 0.0
        values = values.tolist()
        one_by_one, extended = MetricAccumulator(), MetricAccumulator()
        for value in values:
            one_by_one.add(value)
        done = 0
        while done < n:  # parts of 1 .. 5000 samples, as refills hand them over
            size = int(rng.integers(1, 5001))
            extended._extend(values[done:done + size])
            done += size
        assert repr(extended.total) == repr(one_by_one.total)
        assert extended.count == one_by_one.count == n
        assert repr(extended.minimum) == repr(one_by_one.minimum)
        assert repr(extended.maximum) == repr(one_by_one.maximum)
        assert extended.sketch.counts.tobytes() == one_by_one.sketch.counts.tobytes()
        assert extended.sketch.zero_count == one_by_one.sketch.zero_count

    def test_blocks_matter(self):
        """The test above can tell: for these samples one pairwise sum over
        all 10 000 differs from the 4096-sample blocks in the last bits."""
        differ = []
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            values = rng.lognormal(3.0, 1.0, 10000)
            values[rng.random(10000) < 0.1] = 0.0
            blocked = MetricAccumulator()
            for value in values.tolist():
                blocked.add(value)
            whole = MetricAccumulator()
            whole.update(values)
            differ.append(repr(whole.total) != repr(blocked.total))
        assert any(differ)
