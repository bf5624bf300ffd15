"""Job arrival processes.

Figures 7 and 8 of the paper show that MapReduce submission streams mix a weak
(sometimes visible) daily diurnal signal with a very large amount of hour-scale
burstiness: the peak-to-median ratio of hourly load ranges from 9:1 to 260:1.
The arrival processes here model exactly that structure: a base rate modulated
by a deterministic diurnal/weekly profile, multiplied by a random per-hour
burst factor, realized as a non-homogeneous Poisson process.

The module also provides the two reference sine signals the paper plots in
Figure 8 for comparison ("sine + 2" and "sine + 20").
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SynthesisError
from ..units import HOUR

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalBurstyArrivals",
    "diurnal_rate_profile",
    "sine_reference_series",
]


class ArrivalProcess:
    """Base class for arrival processes: generates submit times in ``[0, horizon)``."""

    def generate(self, rng: np.random.Generator, n_arrivals: int, horizon_s: float) -> np.ndarray:
        """Generate exactly ``n_arrivals`` submit times within ``[0, horizon_s)``.

        Returns a sorted float array of length ``n_arrivals``.
        """
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals: uniform-in-time submissions.

    This is the "no structure" baseline; with a fixed number of arrivals over a
    fixed horizon, a homogeneous Poisson process is equivalent to sorting
    uniform draws.
    """

    def generate(self, rng, n_arrivals, horizon_s):
        _check_args(n_arrivals, horizon_s)
        times = rng.uniform(0.0, horizon_s, n_arrivals)
        times.sort()
        return times


def diurnal_rate_profile(hour_of_week: np.ndarray, diurnal_amplitude: float = 0.3,
                         weekend_factor: float = 0.8, peak_hour: float = 15.0) -> np.ndarray:
    """Deterministic relative rate for each hour-of-week value.

    The daily component is a raised cosine peaking at ``peak_hour`` local time;
    weekends (hour-of-week ≥ 120, i.e. Saturday and Sunday with the trace
    origin on Monday 00:00) are scaled by ``weekend_factor``.

    Returns strictly positive relative rates (mean ≈ 1 for amplitude 0).
    """
    hour_of_week = np.asarray(hour_of_week, dtype=float)
    hour_of_day = np.mod(hour_of_week, 24.0)
    daily = 1.0 + diurnal_amplitude * np.cos(2.0 * math.pi * (hour_of_day - peak_hour) / 24.0)
    weekend = np.where(np.mod(hour_of_week, 168.0) >= 120.0, weekend_factor, 1.0)
    return np.maximum(daily * weekend, 1e-6)


class DiurnalBurstyArrivals(ArrivalProcess):
    """Non-homogeneous Poisson arrivals with diurnal modulation and hourly bursts.

    The instantaneous rate over hour ``h`` is::

        rate(h) ∝ diurnal_profile(h) * B_h,     B_h ~ LogNormal(0, burstiness)

    where ``B_h`` is an i.i.d. per-hour burst multiplier.  Larger ``burstiness``
    values produce heavier-tailed hourly load and hence larger
    peak-to-median ratios (Figure 8).

    Args:
        diurnal_amplitude: relative amplitude of the daily cosine (0..1).
        weekend_factor: rate multiplier applied on weekends.
        burstiness: sigma of the log-normal per-hour burst multiplier.
        peak_hour: local hour of day at which the diurnal profile peaks.
    """

    def __init__(self, diurnal_amplitude: float = 0.3, weekend_factor: float = 0.8,
                 burstiness: float = 1.0, peak_hour: float = 15.0):
        if not 0.0 <= diurnal_amplitude <= 1.0:
            raise SynthesisError("diurnal_amplitude must be in [0, 1]")
        if weekend_factor <= 0:
            raise SynthesisError("weekend_factor must be positive")
        if burstiness < 0:
            raise SynthesisError("burstiness must be non-negative")
        self.diurnal_amplitude = float(diurnal_amplitude)
        self.weekend_factor = float(weekend_factor)
        self.burstiness = float(burstiness)
        self.peak_hour = float(peak_hour)

    def hourly_weights(self, rng: np.random.Generator, n_hours: int) -> np.ndarray:
        """Relative probability mass of each hour in a horizon of ``n_hours``."""
        if n_hours <= 0:
            raise SynthesisError("n_hours must be positive")
        hours = np.arange(n_hours, dtype=float)
        profile = diurnal_rate_profile(
            hours, self.diurnal_amplitude, self.weekend_factor, self.peak_hour
        )
        if self.burstiness > 0:
            bursts = np.exp(rng.normal(0.0, self.burstiness, n_hours))
        else:
            bursts = np.ones(n_hours)
        weights = profile * bursts
        return weights / weights.sum()

    def generate(self, rng, n_arrivals, horizon_s):
        _check_args(n_arrivals, horizon_s)
        n_hours = max(1, int(math.ceil(horizon_s / HOUR)))
        weights = self.hourly_weights(rng, n_hours)
        # Assign each arrival to an hour bucket, then spread uniformly inside it.
        buckets = rng.choice(n_hours, size=n_arrivals, p=weights)
        offsets = rng.uniform(0.0, HOUR, n_arrivals)
        times = buckets * float(HOUR) + offsets
        # Clamp the final partial hour so every arrival stays inside the horizon.
        times = np.minimum(times, np.nextafter(horizon_s, 0.0))
        times.sort()
        return times


def sine_reference_series(n_hours: int, offset: float, amplitude: float = 1.0) -> np.ndarray:
    """Reference sinusoidal hourly series used in Figure 8.

    The paper compares workload burstiness against two artificial sine submit
    patterns: one whose min-max range equals its mean ("sine + 2") and one
    whose range is 10% of its mean ("sine + 20").  Those are sine waves with
    vertical offsets 2 and 20 respectively, which this helper generalizes:
    ``series[h] = offset + amplitude * sin(2π h / 24)``.

    Returns an array of strictly positive hourly values.
    """
    if n_hours <= 0:
        raise SynthesisError("n_hours must be positive")
    if offset <= amplitude:
        raise SynthesisError("offset must exceed amplitude so the series stays positive")
    hours = np.arange(n_hours, dtype=float)
    return offset + amplitude * np.sin(2.0 * math.pi * hours / 24.0)


def _check_args(n_arrivals: int, horizon_s: float) -> None:
    if n_arrivals < 0:
        raise SynthesisError("n_arrivals must be non-negative, got %r" % (n_arrivals,))
    if horizon_s <= 0:
        raise SynthesisError("horizon_s must be positive, got %r" % (horizon_s,))
