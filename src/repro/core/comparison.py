"""Cross-workload comparison and workload-suite selection (§7 of the paper).

The paper's closing argument is that MapReduce workloads are so diverse that
no single workload is "representative"; a TPC-style benchmark would instead
need "a small suite of workload classes that cover a large range of behavior".
This module provides the machinery for that argument:

* :func:`workload_features` condenses one trace into a fixed-length numeric
  feature vector covering the three analysis axes (data, temporal, compute);
* :func:`workload_distance` quantifies how different two workloads are
  (normalized L2 on the feature vectors);
* :func:`select_workload_suite` picks the smallest set of workloads that
  covers the observed behavior range, using greedy k-center selection — the
  "workload suites" recommendation of §7 made executable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.source import TraceSource
from ..errors import AnalysisError
from ..units import GB
from .profile import WorkloadProfile, profile_source

__all__ = [
    "WorkloadFeatures",
    "features_from_profile",
    "workload_features",
    "workload_distance",
    "WorkloadSuite",
    "select_workload_suite",
]

#: Order of the scalar features in :meth:`WorkloadFeatures.vector`.
FEATURE_NAMES = (
    "log_median_input_bytes",
    "log_median_shuffle_bytes",
    "log_median_output_bytes",
    "small_job_fraction",
    "map_only_fraction",
    "log_peak_to_median",
    "diurnal_strength",
    "bytes_compute_correlation",
    "framework_share",
)


@dataclass
class WorkloadFeatures:
    """Fixed-length numeric description of one workload.

    Attributes:
        workload: workload name.
        values: mapping of feature name -> value; see ``FEATURE_NAMES`` for
            the canonical ordering.
    """

    workload: str
    values: Dict[str, float]

    def vector(self) -> np.ndarray:
        """The features as a numpy vector in ``FEATURE_NAMES`` order."""
        return np.array([self.values[name] for name in FEATURE_NAMES], dtype=float)


def features_from_profile(profile: WorkloadProfile) -> WorkloadFeatures:
    """Read the comparison feature vector out of a computed profile.

    Pure read-out — no further scanning — so a federation layer that already
    profiled each member store gets every member's features for free.
    """
    sizes = profile.sizes
    values = {
        "log_median_input_bytes": float(np.log10(max(1.0, sizes.median("input_bytes")))),
        "log_median_shuffle_bytes": float(np.log10(max(1.0, sizes.median("shuffle_bytes")))),
        "log_median_output_bytes": float(np.log10(max(1.0, sizes.median("output_bytes")))),
        "small_job_fraction": profile.small_job_fraction,
        "map_only_fraction": sizes.map_only_fraction,
        "log_peak_to_median": float(np.log10(max(1.0, profile.burstiness.peak_to_median))),
        "diurnal_strength": profile.diurnal.diurnal_strength,
        "bytes_compute_correlation": (profile.correlations.bytes_task_seconds
                                      if profile.correlations else 0.0),
        "framework_share": profile.framework_share,
    }
    return WorkloadFeatures(workload=profile.workload, values=values)


def workload_features(trace, small_job_threshold_bytes: float = 10 * GB) -> WorkloadFeatures:
    """Condense a trace into the scalar features used for workload comparison.

    The features deliberately mirror the quantities the paper's summary
    (§8) reports per workload: median job sizes, the dominance of small jobs,
    the map-only share, burstiness, diurnality, the bytes-compute correlation,
    and the share of query-like frameworks (0 when the trace records no names).

    Accepts any :class:`TraceSource`-wrappable representation; store-backed
    sources are folded in **one** shared chunk scan (via
    :func:`~repro.core.profile.profile_source` — the service daemon's
    workload-drift subscriptions recompute this on every append).

    Raises:
        AnalysisError: for an empty trace.
    """
    source = TraceSource.wrap(trace)
    if source.is_empty():
        raise AnalysisError("cannot compute features of an empty trace")
    return features_from_profile(
        profile_source(source, small_job_threshold_bytes=small_job_threshold_bytes))


def _normalize_matrix(vectors: np.ndarray) -> np.ndarray:
    """Scale each feature column to [0, 1] range (constant columns become 0)."""
    mins = vectors.min(axis=0)
    spans = vectors.max(axis=0) - mins
    spans[spans == 0] = 1.0
    return (vectors - mins) / spans


def workload_distance(features_a: WorkloadFeatures, features_b: WorkloadFeatures,
                      all_features: Optional[Sequence[WorkloadFeatures]] = None) -> float:
    """Normalized Euclidean distance between two workloads' feature vectors.

    When ``all_features`` is given, each feature dimension is rescaled to the
    [0, 1] range observed across that whole population before measuring, so no
    single dimension dominates; otherwise the raw vectors are compared.
    """
    if all_features:
        population = list(all_features)
        names = [feature.workload for feature in population]
        matrix = np.vstack([feature.vector() for feature in population])
        scaled = _normalize_matrix(matrix)
        lookup = {name: scaled[index] for index, name in enumerate(names)}
        vec_a = lookup.get(features_a.workload, features_a.vector())
        vec_b = lookup.get(features_b.workload, features_b.vector())
    else:
        vec_a, vec_b = features_a.vector(), features_b.vector()
    return float(np.linalg.norm(np.asarray(vec_a) - np.asarray(vec_b)))


@dataclass
class WorkloadSuite:
    """A representative subset of workloads (§7 "Workload suites").

    Attributes:
        selected: names of the chosen workloads, in selection order.
        coverage_radius: largest distance from any workload to its nearest
            selected representative (smaller is better coverage).
        assignment: mapping of every workload to its nearest representative.
        distances: full pairwise distance matrix keyed by (name, name).
    """

    selected: List[str]
    coverage_radius: float
    assignment: Dict[str, str]
    distances: Dict[Tuple[str, str], float] = field(default_factory=dict)


def select_workload_suite(features: Sequence[WorkloadFeatures], suite_size: int,
                          first: Optional[str] = None) -> WorkloadSuite:
    """Pick ``suite_size`` representative workloads by greedy k-center selection.

    The first representative is the workload closest to the population centroid
    (or the one named by ``first``); each subsequent pick is the workload
    farthest from all representatives chosen so far.  This is the classic
    2-approximation to the k-center cover and directly operationalizes the
    paper's suggestion to "identify a small suite of workload classes that
    cover a large range of behavior".

    The selection is deterministic under permutation of the input: the
    centroid is summed in name-sorted row order and every greedy pick breaks
    exact distance ties by workload name, so equal populations presented in
    any order select the same suite (pinned by the federation property tests).

    Raises:
        AnalysisError: when the suite size is invalid or ``first`` is unknown.
    """
    population = list(features)
    if not population:
        raise AnalysisError("cannot select a suite from zero workloads")
    if not 1 <= suite_size <= len(population):
        raise AnalysisError("suite_size must be between 1 and %d" % len(population))

    names = [feature.workload for feature in population]
    matrix = _normalize_matrix(np.vstack([feature.vector() for feature in population]))
    n = len(names)
    distance = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(matrix[i] - matrix[j]))
            distance[i, j] = distance[j, i] = d

    def pick(scores: np.ndarray, target: float) -> int:
        """Index whose score equals ``target``; exact ties break by name."""
        candidates = [index for index in range(n) if scores[index] == target]
        return min(candidates, key=lambda index: (names[index], index))

    if first is not None:
        if first not in names:
            raise AnalysisError("unknown workload %r for the first representative" % (first,))
        start = names.index(first)
    else:
        # Sum in name-sorted row order so the centroid (and therefore the
        # whole greedy selection) is invariant under input permutation.
        name_order = sorted(range(n), key=lambda index: (names[index], index))
        centroid = matrix[name_order].mean(axis=0)
        gaps = np.linalg.norm(matrix - centroid, axis=1)
        start = pick(gaps, float(gaps.min()))

    selected = [start]
    nearest = distance[start].copy()
    while len(selected) < suite_size:
        candidate = pick(nearest, float(nearest.max()))
        if nearest[candidate] == 0:
            break
        selected.append(candidate)
        nearest = np.minimum(nearest, distance[candidate])

    assignment = {}
    for index, name in enumerate(names):
        representative = min(selected, key=lambda s: distance[index, s])
        assignment[name] = names[representative]
    distances = {(names[i], names[j]): float(distance[i, j]) for i in range(n) for j in range(n)}
    return WorkloadSuite(
        selected=[names[index] for index in selected],
        coverage_radius=float(nearest.max()),
        assignment=assignment,
        distances=distances,
    )
