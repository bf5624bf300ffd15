"""Tests for arrival processes and the file popularity model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SynthesisError
from repro.synth import (
    DiurnalBurstyArrivals,
    FilePopularityModel,
    PoissonArrivals,
    diurnal_rate_profile,
    sine_reference_series,
)
from repro.units import HOUR, DAY


def rng(seed=0):
    return np.random.default_rng(seed)


class TestPoissonArrivals:
    def test_count_and_bounds(self):
        times = PoissonArrivals().generate(rng(), 500, 1000.0)
        assert times.size == 500
        assert times.min() >= 0 and times.max() < 1000.0
        assert np.all(np.diff(times) >= 0)

    def test_zero_arrivals(self):
        assert PoissonArrivals().generate(rng(), 0, 10.0).size == 0

    def test_invalid_args(self):
        with pytest.raises(SynthesisError):
            PoissonArrivals().generate(rng(), -1, 10.0)
        with pytest.raises(SynthesisError):
            PoissonArrivals().generate(rng(), 1, 0.0)


class TestDiurnalProfile:
    def test_peak_hour_has_highest_rate(self):
        hours = np.arange(24)
        profile = diurnal_rate_profile(hours, diurnal_amplitude=0.5, peak_hour=15.0)
        assert int(np.argmax(profile)) == 15

    def test_weekend_scaled_down(self):
        weekday = diurnal_rate_profile(np.array([12.0]), weekend_factor=0.5)
        weekend = diurnal_rate_profile(np.array([120.0 + 12.0]), weekend_factor=0.5)
        assert weekend[0] == pytest.approx(weekday[0] * 0.5)

    def test_always_positive(self):
        profile = diurnal_rate_profile(np.arange(336), diurnal_amplitude=1.0, weekend_factor=0.1)
        assert np.all(profile > 0)


class TestDiurnalBurstyArrivals:
    def test_count_bounds_and_order(self):
        arrivals = DiurnalBurstyArrivals(burstiness=1.0)
        times = arrivals.generate(rng(), 2000, 3 * DAY)
        assert times.size == 2000
        assert times.min() >= 0 and times.max() < 3 * DAY
        assert np.all(np.diff(times) >= 0)

    def test_higher_burstiness_raises_peak_to_median(self):
        calm = DiurnalBurstyArrivals(burstiness=0.0)
        bursty = DiurnalBurstyArrivals(burstiness=2.0)
        def peak_to_median(process):
            times = process.generate(rng(42), 20000, 14 * DAY)
            hourly = np.bincount((times // HOUR).astype(int))
            hourly = hourly[hourly > 0]
            return hourly.max() / np.median(hourly)
        assert peak_to_median(bursty) > peak_to_median(calm)

    def test_hourly_weights_normalized(self):
        weights = DiurnalBurstyArrivals().hourly_weights(rng(), 100)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights >= 0)

    def test_invalid_parameters(self):
        with pytest.raises(SynthesisError):
            DiurnalBurstyArrivals(diurnal_amplitude=1.5)
        with pytest.raises(SynthesisError):
            DiurnalBurstyArrivals(weekend_factor=0.0)
        with pytest.raises(SynthesisError):
            DiurnalBurstyArrivals(burstiness=-0.1)


class TestSineReference:
    def test_period_is_24_hours(self):
        series = sine_reference_series(48, offset=2.0)
        assert series[0] == pytest.approx(series[24])

    def test_positive_everywhere(self):
        assert np.all(sine_reference_series(240, offset=2.0) > 0)

    def test_offset_must_exceed_amplitude(self):
        with pytest.raises(SynthesisError):
            sine_reference_series(24, offset=0.5, amplitude=1.0)


class TestFilePopularityModel:
    def make_model(self, **overrides):
        params = dict(n_input_files=500, n_output_files=500,
                      input_reaccess_fraction=0.4, output_reaccess_fraction=0.2,
                      reaccess_halflife_s=HOUR)
        params.update(overrides)
        return FilePopularityModel(**params)

    def test_assignment_lengths(self):
        times = np.sort(np.random.default_rng(0).uniform(0, DAY, 300))
        assignment = self.make_model().assign(times, rng())
        assert len(assignment.input_paths) == 300
        assert len(assignment.output_paths) == 300
        assert len(assignment.input_file_sizes) == 300

    def test_unrecorded_dimensions_are_none(self):
        times = np.arange(50, dtype=float)
        assignment = self.make_model().assign(times, rng(), record_inputs=False,
                                              record_outputs=False)
        assert all(path is None for path in assignment.input_paths)
        assert all(path is None for path in assignment.output_paths)

    def test_reaccess_fraction_roughly_matches_target(self):
        times = np.sort(np.random.default_rng(1).uniform(0, 5 * DAY, 4000))
        assignment = self.make_model(input_reaccess_fraction=0.5,
                                     output_reaccess_fraction=0.2).assign(times, rng(1))
        seen = set()
        repeats = 0
        for path in assignment.input_paths:
            if path in seen:
                repeats += 1
            seen.add(path)
        fraction = repeats / len(assignment.input_paths)
        assert 0.5 < fraction < 0.9  # target 0.7 plus popularity collisions

    def test_size_binned_assignment_keeps_sizes_consistent(self):
        times = np.sort(np.random.default_rng(2).uniform(0, DAY, 1000))
        sizes = np.random.default_rng(3).choice([1e6, 1e9, 1e12], size=1000)
        assignment = self.make_model().assign(times, rng(2), input_bytes=sizes,
                                              output_bytes=sizes)
        # Every assigned file size must stay within the decade of the job size.
        for job_size, file_size in zip(sizes, assignment.input_file_sizes):
            assert 0.099 * job_size <= file_size <= 10.01 * job_size

    def test_zero_reaccess_gives_all_fresh_paths(self):
        times = np.arange(200, dtype=float)
        assignment = self.make_model(input_reaccess_fraction=0.0,
                                     output_reaccess_fraction=0.0).assign(times, rng())
        assert len(set(assignment.input_paths)) == 200

    def test_invalid_parameters(self):
        with pytest.raises(SynthesisError):
            self.make_model(input_reaccess_fraction=0.8, output_reaccess_fraction=0.4)
        with pytest.raises(SynthesisError):
            self.make_model(reaccess_halflife_s=0.0)
        with pytest.raises(SynthesisError):
            self.make_model(n_input_files=0)

    def test_mismatched_size_array_rejected(self):
        with pytest.raises(SynthesisError):
            self.make_model().assign(np.arange(10, dtype=float), rng(), input_bytes=[1.0])


@settings(max_examples=20, deadline=None)
@given(n_arrivals=st.integers(min_value=1, max_value=2000),
       horizon_hours=st.integers(min_value=1, max_value=24 * 14),
       burstiness=st.floats(min_value=0.0, max_value=2.0))
def test_property_arrivals_sorted_and_in_horizon(n_arrivals, horizon_hours, burstiness):
    """Any parameterization produces exactly n sorted arrivals inside the horizon."""
    times = DiurnalBurstyArrivals(burstiness=burstiness).generate(
        np.random.default_rng(0), n_arrivals, horizon_hours * 3600.0)
    assert times.size == n_arrivals
    assert np.all(np.diff(times) >= 0)
    assert times.min() >= 0.0
    assert times.max() < horizon_hours * 3600.0
