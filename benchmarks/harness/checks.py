"""Correctness oracles.  They run outside the timed sections, compare the
product's answers with the numpy ground truth in ``corpus.columns`` (or with
the product's own slow path), and return ``(label, ok)`` pairs that the
workload counts as operations attempted / failed.
"""

from __future__ import annotations

import numpy as np


def results_identical(left, right) -> bool:
    """Bit-identical comparison of two ``QueryResult``s (no tolerance)."""
    if left.aggregates is not None or right.aggregates is not None:
        return left.aggregates == right.aggregates
    if left.groups is not None or right.groups is not None:
        return left.groups == right.groups
    return left.row_dicts() == right.row_dicts()


def suite_rows(store, bundle):
    """Every characterization table/figure row built from one scan bundle."""
    from repro.bench.suite import CHARACTERIZATION_EXPERIMENT_IDS, run_suite

    results = run_suite(traces={store.name: store},
                        experiments=list(CHARACTERIZATION_EXPERIMENT_IDS),
                        include_ablations=False, include_simulation=False,
                        analyses={store.name: bundle})
    return {result.experiment_id: result.rows for result in results}


def resumed_equals_cold(store, checkpoint_path: str) -> bool:
    """A scan resumed from ``checkpoint_path`` == a cold rescan, row for row."""
    from repro.core.sharedscan import run_characterization_scan

    resumed = run_characterization_scan(store, resume_from=checkpoint_path)
    cold = run_characterization_scan(store)
    return suite_rows(store, resumed) == suite_rows(store, cold)


def index_is_fresh(store) -> bool:
    from repro.engine import load_indexes

    return load_indexes(store, strict=True) is not None


class GroundTruth:
    """Answers computed from the generated columns alone."""

    def __init__(self, cols):
        self.cols = cols
        names, counts = np.unique(cols["name"], return_counts=True)
        self.name_counts = dict(zip(names.tolist(), counts.tolist()))
        self.submit = cols["submit_time_s"]  # sorted by construction
        self._descending = {}

    def name_count(self, name: str) -> int:
        return self.name_counts.get(name, 0)

    def submit_at(self, fraction: float) -> float:
        """The submit time ``fraction`` of the way through the trace."""
        position = fraction * (self.submit.size - 1)
        low = int(position)
        high = min(low + 1, self.submit.size - 1)
        return float(self.submit[low] + (position - low) * (self.submit[high] - self.submit[low]))

    def rows_after(self, cut: float) -> int:
        """``submit_time_s > cut`` row count."""
        return int(self.submit.size - np.searchsorted(self.submit, cut, side="right"))

    def top_values(self, column: str, k: int):
        """The ``k`` largest values of ``column``, largest first."""
        if column not in self._descending:
            self._descending[column] = np.sort(self.cols[column])[::-1]
        return self._descending[column][:k].tolist()
