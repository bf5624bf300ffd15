"""Zipf / power-law rank-frequency analysis (Figure 2 of the paper).

The paper plots file-access frequency against frequency rank on log-log axes
and observes approximately straight lines — Zipf-like behaviour — with a slope
of about 5/6 for every workload and for both inputs and outputs.  This module
fits that slope from observed access counts and exposes the points needed to
regenerate the figure.

:func:`column_rank_frequencies` is the out-of-core entry point: it streams one
string column (``input_path`` / ``output_path``) chunk by chunk from any
:class:`~repro.engine.source.TraceSource`-wrappable representation, so memory
is bounded by the number of *distinct* paths rather than the number of jobs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.pipeline import ChunkConsumer, ScanChunk
from ..errors import AnalysisError

__all__ = [
    "RankFrequency",
    "RankFrequencyConsumer",
    "rank_frequencies",
    "rank_frequencies_from_counts",
    "column_rank_frequencies",
    "fit_zipf_slope",
]


@dataclass
class RankFrequency:
    """Rank-frequency data plus the fitted Zipf slope.

    Attributes:
        ranks: 1-based ranks in decreasing order of frequency.
        frequencies: access count at each rank.
        slope: magnitude of the fitted log-log slope (``None`` if unfittable).
        intercept: fitted log10 intercept (``None`` if unfittable).
        r_squared: coefficient of determination of the log-log fit.
    """

    ranks: np.ndarray
    frequencies: np.ndarray
    slope: Optional[float]
    intercept: Optional[float]
    r_squared: Optional[float]

    @property
    def n_items(self) -> int:
        return int(self.ranks.size)

    @property
    def total_accesses(self) -> int:
        return int(self.frequencies.sum())

    def top_share(self, fraction_of_items: float) -> float:
        """Fraction of all accesses captured by the top ``fraction_of_items``.

        ``top_share(0.2)`` answers the classic 80-20 question (§4.2): how much
        of the access volume goes to the most popular 20% of files.
        """
        if not 0.0 < fraction_of_items <= 1.0:
            raise AnalysisError("fraction_of_items must be in (0, 1]")
        count = max(1, int(round(self.n_items * fraction_of_items)))
        return float(self.frequencies[:count].sum() / max(1, self.total_accesses))

    def as_points(self) -> List[Tuple[int, int]]:
        """(rank, frequency) pairs in rank order (the Figure-2 series)."""
        return list(zip(self.ranks.astype(int).tolist(), self.frequencies.astype(int).tolist()))


def rank_frequencies(paths: Iterable[Optional[str]], min_items: int = 2) -> RankFrequency:
    """Count accesses per path and fit the Zipf slope.

    Args:
        paths: one entry per access; ``None`` entries (unrecorded paths) are
            skipped.
        min_items: minimum number of distinct paths needed for a slope fit;
            below it the slope is reported as ``None``.

    Raises:
        AnalysisError: when no recorded paths are present at all.
    """
    counts = Counter(path for path in paths if path is not None)
    return rank_frequencies_from_counts(counts, min_items=min_items)


def rank_frequencies_from_counts(counts: Dict[str, int], min_items: int = 2) -> RankFrequency:
    """Build a :class:`RankFrequency` from item -> access-count totals.

    This is the finalize step shared by every counting path: the iterable
    front-end above, the chunked :class:`RankFrequencyConsumer`, and the
    shared-scan path-statistics fold (whose per-path counts double as the
    Figure-2 frequencies).

    Raises:
        AnalysisError: when ``counts`` is empty.
    """
    if not counts:
        raise AnalysisError("no recorded file paths to analyze")
    frequencies = np.array(sorted(counts.values(), reverse=True), dtype=float)
    ranks = np.arange(1, frequencies.size + 1, dtype=float)
    if frequencies.size >= min_items and frequencies.max() > frequencies.min():
        fit_ranks, fit_frequencies = _log_spaced_points(ranks, frequencies)
        slope, intercept, r_squared = fit_zipf_slope(fit_ranks, fit_frequencies)
    else:
        slope, intercept, r_squared = None, None, None
    return RankFrequency(
        ranks=ranks, frequencies=frequencies, slope=slope, intercept=intercept,
        r_squared=r_squared,
    )


class RankFrequencyConsumer(ChunkConsumer):
    """Shared-scan fold counting accesses per distinct value of one column.

    Each chunk contributes a ``bincount`` over its per-row codes (empty
    strings — the trace encoding of "not recorded" — are skipped), so the
    fold cost is one vectorized pass per chunk and memory stays bounded by
    the distinct-value dictionary.  Counts are integers: serial, merged, and
    per-row results are all exactly equal.
    """

    def __init__(self, column: str, name: Optional[str] = None, min_items: int = 2):
        self.name = name or ("ranks_%s" % column)
        self.column = column
        self.columns = (column,)
        self.min_items = min_items

    def make_state(self) -> Dict[str, int]:
        return {}

    def fold(self, state, chunk: ScanChunk):
        # Code-native on a v3 store: the counting is a bincount over the
        # dictionary codes and only the chunk's *distinct* values are looked
        # up as strings.
        codes, table = chunk.codes(self.column)
        counts = np.bincount(codes)
        present = np.flatnonzero(counts)
        for code, count in zip(present.tolist(), counts[present].tolist()):
            value = table.values[code]
            if value:
                state[value] = state.get(value, 0) + count
        return state

    def merge(self, a, b):
        for value, count in b.items():
            a[value] = a.get(value, 0) + count
        return a

    def finalize(self, state) -> RankFrequency:
        return rank_frequencies_from_counts(state, min_items=self.min_items)


def column_rank_frequencies(source, column: str, min_items: int = 2) -> RankFrequency:
    """Access frequency vs rank for one string column of a trace source.

    Folds the column chunk by chunk (empty strings — the trace encoding of
    "not recorded" — are skipped), so arbitrarily large stores are counted
    with memory bounded by the distinct-path dictionary.

    Raises:
        AnalysisError: when the source does not record the column at all.
    """
    from ..engine.pipeline import fold_consumer
    from ..engine.source import TraceSource

    src = TraceSource.wrap(source)
    if not src.has_column(column):
        raise AnalysisError("trace %r records no %s values" % (src.name, column))
    return fold_consumer(src, RankFrequencyConsumer(column, min_items=min_items))


def _log_spaced_points(ranks: np.ndarray, frequencies: np.ndarray,
                       points: int = 25) -> Tuple[np.ndarray, np.ndarray]:
    """Sample the rank-frequency curve at log-spaced ranks before fitting.

    A plain least-squares fit over every rank is dominated by the long tail of
    files accessed exactly once (most of the points), whereas the paper's
    "slope ≈ 5/6" describes the straight line the curve traces on the log-log
    axes of Figure 2.  Fitting on log-spaced rank samples weights each decade
    of rank equally, which matches that visual/graphical slope.
    """
    positions = np.unique(np.round(np.logspace(0.0, np.log10(ranks.size), points)).astype(int))
    positions = positions[(positions >= 1) & (positions <= ranks.size)]
    return ranks[positions - 1], frequencies[positions - 1]


def fit_zipf_slope(ranks: Sequence[float], frequencies: Sequence[float]) -> Tuple[float, float, float]:
    """Least-squares fit of ``log10(frequency) = intercept - slope * log10(rank)``.

    Returns ``(slope, intercept, r_squared)`` where ``slope`` is reported as a
    positive magnitude (the paper quotes "slope ≈ 5/6" in this sense).

    Raises:
        AnalysisError: with fewer than two points or non-positive values.
    """
    ranks = np.asarray(list(ranks), dtype=float)
    frequencies = np.asarray(list(frequencies), dtype=float)
    if ranks.size != frequencies.size:
        raise AnalysisError("ranks and frequencies must have the same length")
    if ranks.size < 2:
        raise AnalysisError("Zipf fit needs at least two points")
    if np.any(ranks <= 0) or np.any(frequencies <= 0):
        raise AnalysisError("Zipf fit needs positive ranks and frequencies")
    log_rank = np.log10(ranks)
    log_freq = np.log10(frequencies)
    slope, intercept = np.polyfit(log_rank, log_freq, 1)
    predicted = intercept + slope * log_rank
    residual = log_freq - predicted
    total = log_freq - log_freq.mean()
    denominator = float(np.dot(total, total))
    r_squared = 1.0 - float(np.dot(residual, residual)) / denominator if denominator > 0 else 1.0
    return float(-slope), float(intercept), float(r_squared)
