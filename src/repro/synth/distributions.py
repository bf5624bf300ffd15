"""The Zipf rank sampler behind the synthesizer's file popularity.

The paper notes (§7, "Empirical models") that most workload dimensions do not
fit well-known statistical distributions — the single exception being the
Zipf-like distribution of file-access frequencies — and that a benchmark must
therefore rely on empirical models ("the traces are the model").  The
generators draw every other dimension from the published Table-2 centroids
and the observed traces, so the only parametric law kept here is
:class:`ZipfRank`, which :class:`~repro.synth.filepop.FilePopularityModel`
samples output-path ranks from.

A distribution has one tiny interface: ``sample(rng, size)`` returning a
numpy array, plus ``mean()``.  It takes a ``numpy.random.Generator``
explicitly so determinism is the caller's choice.
"""

from __future__ import annotations

import numpy as np

from ..errors import SynthesisError

__all__ = ["Distribution", "ZipfRank"]


class Distribution:
    """Base class: a non-negative scalar distribution with a ``sample`` method."""

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` samples using ``rng``; returns a float array."""
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic mean, when available; otherwise an estimate from sampling."""
        rng = np.random.default_rng(0)
        return float(np.mean(self.sample(rng, 4096)))


class ZipfRank(Distribution):
    """Zipf rank distribution over ``{1..n}`` with rank-frequency slope ``s``.

    ``P(rank = k) ∝ k^{-s}``.  This is the distribution behind Figure 2: when
    many accesses are drawn from it, the log-log plot of access frequency
    versus rank is a straight line of slope ``-s``.
    """

    def __init__(self, n: int, s: float):
        if n <= 0:
            raise SynthesisError("ZipfRank n must be positive, got %r" % (n,))
        if s <= 0:
            raise SynthesisError("ZipfRank s must be positive, got %r" % (s,))
        self.n = int(n)
        self.s = float(s)
        weights = np.arange(1, self.n + 1, dtype=float) ** (-self.s)
        self._probabilities = weights / weights.sum()
        self._cdf = np.cumsum(self._probabilities)

    def sample(self, rng, size=1):
        """Return ranks in ``{1..n}`` (as floats for interface consistency)."""
        uniforms = rng.uniform(0.0, 1.0, size)
        ranks = np.searchsorted(self._cdf, uniforms, side="left") + 1
        return ranks.astype(float)

    def probabilities(self) -> np.ndarray:
        """Probability of each rank, in rank order (length ``n``)."""
        return self._probabilities.copy()

    def mean(self):
        return float(np.dot(np.arange(1, self.n + 1), self._probabilities))

    def __repr__(self):
        return "ZipfRank(n=%d, s=%g)" % (self.n, self.s)
