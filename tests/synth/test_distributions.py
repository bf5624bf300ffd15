"""Tests for the Zipf rank sampler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SynthesisError
from repro.synth import ZipfRank


def rng(seed=0):
    return np.random.default_rng(seed)


class TestZipfRank:
    def test_probabilities_sum_to_one(self):
        assert ZipfRank(100, 5 / 6).probabilities().sum() == pytest.approx(1.0)

    def test_rank_one_most_likely(self):
        probabilities = ZipfRank(50, 1.0).probabilities()
        assert probabilities[0] == probabilities.max()

    def test_samples_in_range(self):
        samples = ZipfRank(20, 0.8).sample(rng(), 5000)
        assert samples.min() >= 1 and samples.max() <= 20

    def test_empirical_frequency_matches_probabilities(self):
        dist = ZipfRank(10, 1.0)
        samples = dist.sample(rng(), 100000).astype(int)
        observed = np.bincount(samples, minlength=11)[1:] / samples.size
        assert observed[0] == pytest.approx(dist.probabilities()[0], rel=0.05)

    def test_invalid_parameters(self):
        with pytest.raises(SynthesisError):
            ZipfRank(0, 1.0)
        with pytest.raises(SynthesisError):
            ZipfRank(10, 0.0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=500),
       s=st.floats(min_value=0.1, max_value=3.0))
def test_property_zipf_ranks_within_bounds(n, s):
    """Zipf samples always fall in {1..n} and probabilities are normalized."""
    dist = ZipfRank(n, s)
    samples = dist.sample(rng(2), 128)
    assert samples.min() >= 1 and samples.max() <= n
    assert dist.probabilities().sum() == pytest.approx(1.0)
