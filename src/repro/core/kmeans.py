"""k-means clustering with automatic selection of k (§6.2 of the paper).

The paper groups jobs by their six-dimensional numeric description (input,
shuffle and output bytes; duration; map and reduce task time) using k-means,
choosing k by incrementing it until the decrease in intra-cluster (residual)
variance shows diminishing returns.  This module implements:

* k-means from scratch on numpy arrays with k-means++ seeding, with the
  assignment and update steps fully vectorized (the (n, k) squared-distance
  matrix comes from the Gram expansion ``|x|² + |c|² - 2x·c`` — no (n, k, d)
  tensor — and per-cluster sums from ``bincount``), so a million-job
  assignment is a handful of BLAS calls rather than per-point Python work;
* the elbow-style k selection rule;
* feature scaling appropriate for job dimensions that span many orders of
  magnitude (log transform + standardization), since raw byte values would
  let the largest dimension dominate Euclidean distance.

Randomness: every entry point accepts either a ``seed`` (each restart derives
its own stream, the historical behaviour) or an explicit ``rng``
(:class:`numpy.random.Generator`), which makes k-means++ seeding deterministic
under caller-controlled generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ClusteringError

__all__ = [
    "KMeansResult",
    "KSelectionResult",
    "kmeans",
    "assign_labels",
    "select_k",
    "log_standardize",
]


@dataclass
class KMeansResult:
    """Result of one k-means run.

    Attributes:
        centroids: (k, d) array of cluster centers in the *input* feature space.
        labels: cluster index of each point.
        inertia: total within-cluster sum of squared distances.
        n_iterations: iterations until convergence.
        converged: whether the assignment stopped changing before the limit.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iterations: int
    converged: bool

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])


@dataclass
class KSelectionResult:
    """Result of the automatic k selection sweep.

    Attributes:
        chosen_k: the selected number of clusters.
        inertias: mapping of k -> inertia for every k tried, in order.
        result: the :class:`KMeansResult` at the chosen k.
    """

    chosen_k: int
    inertias: List[Tuple[int, float]]
    result: KMeansResult


def log_standardize(features: np.ndarray, floor: float = 1.0) -> np.ndarray:
    """Log-transform and standardize a feature matrix.

    Byte and second dimensions span 10+ orders of magnitude, so distances in
    raw space are meaningless.  Each column is mapped to
    ``log10(max(x, floor))`` and then standardized to zero mean / unit
    variance (constant columns are left at zero).
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ClusteringError("feature matrix must be 2-D")
    logged = np.log10(np.maximum(features, floor))
    means = logged.mean(axis=0)
    stds = logged.std(axis=0)
    stds[stds == 0] = 1.0
    return (logged - means) / stds


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances via the Gram expansion (no tensor)."""
    point_sq = np.einsum("ij,ij->i", points, points)
    centroid_sq = np.einsum("ij,ij->i", centroids, centroids)
    cross = points @ centroids.T
    distances = point_sq[:, None] + centroid_sq[None, :] - 2.0 * cross
    # The expansion can go a hair negative for near-coincident points.
    np.maximum(distances, 0.0, out=distances)
    return distances


def assign_labels(points: np.ndarray, centroids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Assign each point to its nearest centroid.

    Returns ``(labels, squared_distances_to_assigned)`` — the vectorized
    assignment step shared by batch k-means, mini-batch training, and the
    streaming per-chunk assignment pass in :mod:`repro.core.clustering`.
    """
    points = np.asarray(points, dtype=float)
    distances = _squared_distances(points, np.asarray(centroids, dtype=float))
    labels = np.argmin(distances, axis=1)
    assigned = distances[np.arange(points.shape[0]), labels]
    return labels, assigned


def _kmeans_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to distance²."""
    n_points = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=float)
    first = int(rng.integers(n_points))
    centroids[0] = points[first]
    closest_sq = np.full(n_points, np.inf)
    for index in range(1, k):
        distances = np.sum((points - centroids[index - 1]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, distances)
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with an existing centroid.
            centroids[index:] = points[int(rng.integers(n_points))]
            break
        probabilities = closest_sq / total
        pick = int(rng.choice(n_points, p=probabilities))
        centroids[index] = points[pick]
    return centroids


def kmeans(points: np.ndarray, k: int, seed: int = 0, max_iterations: int = 300,
           tolerance: float = 1e-6, n_init: int = 3,
           rng: Optional[np.random.Generator] = None) -> KMeansResult:
    """Run k-means with k-means++ seeding; keep the best of ``n_init`` restarts.

    Args:
        points: (n, d) feature matrix (already scaled appropriately).
        k: number of clusters; must not exceed the number of points.
        seed: RNG seed (each restart derives its own stream from it).
        max_iterations: iteration cap per restart.
        tolerance: relative inertia improvement below which a run stops.
        n_init: number of restarts.
        rng: explicit generator for the k-means++ seeding.  When given it is
            drawn from sequentially across restarts (and ``seed`` is ignored),
            so callers can make seeding deterministic under their own stream.

    Raises:
        ClusteringError: for an empty matrix, k < 1 or k > n.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ClusteringError("k-means needs a non-empty 2-D feature matrix")
    n_points = points.shape[0]
    if k < 1:
        raise ClusteringError("k must be at least 1")
    if k > n_points:
        raise ClusteringError("k=%d exceeds the number of points (%d)" % (k, n_points))

    best: Optional[KMeansResult] = None
    for restart in range(max(1, n_init)):
        restart_rng = rng if rng is not None else np.random.default_rng(seed + restart * 7919)
        result = _kmeans_single(points, k, restart_rng, max_iterations, tolerance)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def _kmeans_single(points: np.ndarray, k: int, rng: np.random.Generator,
                   max_iterations: int, tolerance: float) -> KMeansResult:
    centroids = _kmeans_plus_plus(points, k, rng)
    labels = np.zeros(points.shape[0], dtype=int)
    dimensions = points.shape[1]
    previous_inertia = np.inf
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        # Assignment step: one (n, k) distance matrix, no per-point loop.
        labels, assigned_sq = assign_labels(points, centroids)
        inertia = float(assigned_sq.sum())
        # Update step: per-cluster sums via bincount; re-seed empty clusters
        # on the farthest point.
        counts = np.bincount(labels, minlength=k)
        sums = np.empty((k, dimensions), dtype=float)
        for dim in range(dimensions):
            sums[:, dim] = np.bincount(labels, weights=points[:, dim], minlength=k)
        non_empty = counts > 0
        centroids[non_empty] = sums[non_empty] / counts[non_empty, None]
        if not non_empty.all():
            farthest = int(np.argmax(assigned_sq))
            centroids[~non_empty] = points[farthest]
        if previous_inertia - inertia <= tolerance * max(previous_inertia, 1e-12):
            converged = True
            previous_inertia = inertia
            break
        previous_inertia = inertia
    return KMeansResult(
        centroids=centroids.copy(),
        labels=labels.copy(),
        inertia=float(previous_inertia),
        n_iterations=iteration,
        converged=converged,
    )


def select_k(points: np.ndarray, max_k: int = 12, seed: int = 0,
             improvement_threshold: float = 0.10, min_k: int = 1,
             rng: Optional[np.random.Generator] = None) -> KSelectionResult:
    """Choose k by the paper's diminishing-returns rule.

    k is incremented from ``min_k``; for each step the relative decrease in
    residual variance (inertia) is measured, and the sweep stops at the first
    k whose improvement over k-1 falls below ``improvement_threshold`` (the
    previous k is chosen), or at ``max_k``.  ``rng`` (if given) seeds each
    k's restarts from one shared stream; otherwise ``seed`` reproduces the
    historical per-k derivation.

    Raises:
        ClusteringError: if the matrix is empty or ``max_k`` < ``min_k``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ClusteringError("k selection needs a non-empty 2-D feature matrix")
    if max_k < min_k:
        raise ClusteringError("max_k must be >= min_k")
    max_k = min(max_k, points.shape[0])
    min_k = min(min_k, max_k)

    inertias: List[Tuple[int, float]] = []
    results = {}
    chosen = min_k
    previous_inertia: Optional[float] = None
    for k in range(min_k, max_k + 1):
        result = kmeans(points, k, seed=seed, rng=rng)
        results[k] = result
        inertias.append((k, result.inertia))
        if previous_inertia is not None and previous_inertia > 0:
            improvement = (previous_inertia - result.inertia) / previous_inertia
            if improvement < improvement_threshold:
                chosen = k - 1
                break
        chosen = k
        previous_inertia = result.inertia
        if result.inertia == 0.0:
            break
    return KSelectionResult(chosen_k=chosen, inertias=inertias, result=results[chosen])
