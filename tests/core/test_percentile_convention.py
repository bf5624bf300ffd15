"""The shared percentile convention: exact paths agree bit-for-bit, the
sketch path agrees to histogram-bin resolution.

See the convention definition in :mod:`repro.core.stats` (lower nearest-rank)
and its sketch-side documentation on
:meth:`repro.engine.aggregates.HistogramSketch.percentile`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SketchCDF, empirical_cdf, percentile
from repro.engine import HistogramSketch
from repro.engine.aggregates import BINS_PER_DECADE

#: Relative value resolution of sketch-backed percentiles: one part in
#: ``10 ** (1 / BINS_PER_DECADE)``, i.e. about 7.5%.
SKETCH_RELATIVE_RESOLUTION = 10.0 ** (1.0 / BINS_PER_DECADE) - 1.0


def sketch_cdf(samples):
    """A :class:`SketchCDF` over a :class:`HistogramSketch` of ``samples``."""
    sketch = HistogramSketch()
    sketch.update(np.asarray(samples))
    return SketchCDF(sketch)


QS = (0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.5, 100.0)


class TestExactPathsAgree:
    """stats.percentile and EmpiricalCDF.quantile are the same rank rule."""

    @pytest.mark.parametrize("q", QS)
    def test_percentile_equals_cdf_quantile(self, q):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(10.0, 4.0, size=997)
        cdf = empirical_cdf(samples)
        assert percentile(samples, q) == cdf.quantile(q / 100.0)

    def test_nearest_rank_is_an_observed_value(self):
        samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for q in QS:
            assert percentile(samples, q) in samples

    def test_lower_nearest_rank_on_even_sample(self):
        # ceil(0.5 * 4) = 2 -> the 2nd smallest, not the midpoint average.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0

    def test_extremes(self):
        samples = list(range(1, 101))
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 100.0) == 100.0


class TestSketchPathAgrees:
    """HistogramSketch.percentile matches the exact rule at bin resolution."""

    @pytest.mark.parametrize("q", (1.0, 10.0, 50.0, 90.0, 99.0))
    def test_tolerance_bounded_equivalence(self, q):
        rng = np.random.default_rng(11)
        samples = rng.lognormal(12.0, 5.0, size=20_000)
        sketch = HistogramSketch()
        sketch.update(samples)
        exact = percentile(samples, q)
        approx = sketch.percentile(q)
        # One bin of drift on either side of the chosen rank's bin center.
        assert approx == pytest.approx(exact, rel=2 * SKETCH_RELATIVE_RESOLUTION)

    def test_sketch_cdf_wrapper_matches_sketch(self):
        samples = np.geomspace(1.0, 1e9, 5000)
        cdf = sketch_cdf(samples)
        sketch = HistogramSketch()
        sketch.update(np.asarray(samples))
        for q in (0.1, 0.5, 0.9):
            assert cdf.quantile(q) == sketch.percentile(100.0 * q)
        assert cdf.median() == cdf.quantile(0.5)
        assert cdf.n == 5000

    def test_zero_samples_read_out_as_zero(self):
        samples = np.array([0.0] * 50 + [10.0] * 50)
        sketch = HistogramSketch()
        sketch.update(samples)
        assert sketch.percentile(25.0) == 0.0
        assert percentile(samples, 25.0) == 0.0

    def test_clamped_to_observed_range(self):
        samples = np.array([5.0, 5.1, 5.2])
        sketch = HistogramSketch()
        sketch.update(samples)
        assert sketch.percentile(0.0) >= 5.0
        assert sketch.percentile(100.0) <= 5.2

    def test_fraction_at_or_below_tracks_exact(self):
        rng = np.random.default_rng(3)
        samples = rng.lognormal(8.0, 3.0, size=10_000)
        exact = empirical_cdf(samples)
        approx = sketch_cdf(samples)
        for value in np.geomspace(samples.min(), samples.max(), 7):
            assert approx.fraction_at_or_below(value) == pytest.approx(
                exact.fraction_at_or_below(value), abs=0.02)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(min_value=0.001, max_value=1e12, allow_nan=False),
                       min_size=1, max_size=300),
       q=st.floats(min_value=0.0, max_value=100.0))
def test_property_exact_paths_identical(values, q):
    """For any sample and any q, the two exact read-outs are the same number."""
    assert percentile(values, q) == empirical_cdf(values).quantile(q / 100.0)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(min_value=0.01, max_value=1e10, allow_nan=False),
                       min_size=20, max_size=500),
       q=st.floats(min_value=1.0, max_value=99.0))
def test_property_sketch_within_bin_resolution(values, q):
    """The sketch read-out never drifts more than ~2 bins from the exact value."""
    sketch = HistogramSketch()
    sketch.update(np.asarray(values))
    exact = percentile(values, q)
    approx = sketch.percentile(q)
    assert approx is not None
    if exact > 0:
        assert abs(approx - exact) / exact <= 2 * SKETCH_RELATIVE_RESOLUTION + 1e-9
    else:
        assert approx == 0.0
