"""Job clustering pipeline (Table 2 of the paper).

This module applies the k-means machinery of :mod:`repro.core.kmeans` to a
trace: it builds the six-dimensional job description (input, shuffle and
output bytes; duration; map and reduce task time), selects k automatically,
and labels each resulting cluster with a human-readable description following
the paper's vocabulary ("Small jobs", "Map only transform", "Aggregate",
"Expand and aggregate", ...), producing a Table-2-style summary.

Any :class:`~repro.engine.source.TraceSource`-wrappable representation is
accepted.  The default (``method="exact"``) gathers the feature matrix from
chunked column batches — 48 bytes/job, three orders of magnitude lighter than
materialized ``Job`` objects — and runs full vectorized k-means, so results
are identical across representations.  ``method="minibatch"`` never holds the
matrix at all: it trains with :func:`~repro.core.kmeans.mini_batch_kmeans`
over streamed batches and reads per-cluster median centroids out of mergeable
log-histogram sketches (bin-resolution accurate), keeping memory bounded by
one chunk for arbitrarily large stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.aggregates import HistogramSketch
from ..engine.columnar import ColumnarTrace
from ..engine.pipeline import ChunkConsumer, ScanChunk
from ..engine.source import TraceSource
from ..errors import AnalysisError, ClusteringError
from ..traces.schema import FEATURE_DIMENSIONS, NUMERIC_DIMENSIONS
from ..units import GB, HOUR, MINUTE, format_bytes, format_duration
from .kmeans import (
    KMeansResult,
    KSelectionResult,
    assign_labels,
    kmeans,
    log_standardize,
    mini_batch_kmeans,
    select_k,
)

__all__ = ["JobCluster", "ClusteringResult", "FeatureMatrixConsumer",
           "ClusterSampleConsumer", "cluster_jobs", "label_centroid",
           "small_job_fraction"]


class FeatureMatrixConsumer(ChunkConsumer):
    """Shared-scan fold gathering the (n_jobs, 6) k-means feature matrix.

    Chunks contribute ``np.column_stack`` batches (missing values as zero,
    exactly like :meth:`TraceSource.feature_batches`); partials re-assemble in
    chunk order, so the matrix is identical to a standalone gather.  Feed the
    result to :func:`cluster_jobs` via its ``features`` argument to cluster a
    store without a second scan.
    """

    columns = tuple(NUMERIC_DIMENSIONS)
    resumable = True

    def __init__(self, name: str = "features"):
        self.name = name

    def make_state(self):
        return []  # [(chunk index, (rows, 6) batch)]

    def snapshot(self, state) -> Dict[str, object]:
        # The assembled prefix matrix; restored as a single pseudo-batch at
        # index -1 so appended chunks (global indices >= watermark) sort
        # after it and ``finalize`` stacks rows in the original order.
        return {"matrix": self.finalize(state)}

    def restore(self, payload):
        matrix = np.asarray(payload["matrix"], dtype=float)
        return [(-1, matrix.copy())] if matrix.size else []

    def fold(self, state, chunk: ScanChunk):
        batch = np.column_stack([
            np.where(np.isnan(chunk.column(dim)), 0.0, chunk.column(dim))
            for dim in NUMERIC_DIMENSIONS])
        state.append((chunk.index, batch))
        return state

    def merge(self, a, b):
        a.extend(b)
        return a

    def finalize(self, state) -> np.ndarray:
        if not state:
            return np.zeros((0, len(NUMERIC_DIMENSIONS)))
        return np.vstack([batch for _index, batch in sorted(state, key=lambda p: p[0])])


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """splitmix64 over a ``uint64`` array: a bijection with full avalanche."""
    with np.errstate(over="ignore"):
        z = values + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class ClusterSampleConsumer(ChunkConsumer):
    """Shared-scan fold drawing the Table-2 job sample: a seeded bottom-k.

    Global row ``r`` gets the key ``splitmix64(r XOR splitmix64(seed))``;
    the sample is the ``cap`` rows with the smallest keys.  Both steps are
    bijections on ``uint64``, so keys never tie and the sample is a function
    of (seed, cap, row count) alone — cold, resumed, serial, parallel and any
    chunking draw the same rows.  The state keeps those rows' keys, row
    numbers and six raw :data:`NUMERIC_DIMENSIONS` columns (all
    :func:`cluster_jobs` reads); ``merge`` keeps the ``cap`` smallest of the
    union, so an appended chunk extends the sample without a rescan.  A
    snapshot pins (seed, cap): restoring under another pair raises
    :class:`AnalysisError`, and the resume driver rescans instead.
    """

    columns = tuple(NUMERIC_DIMENSIONS)
    resumable = True

    def __init__(self, cap: int, seed: int, name: str = "cluster_sample",
                 trace_name: str = "trace", machines: Optional[int] = None):
        self.cap = int(cap)
        self.seed = int(seed)
        self.name = name
        self.trace_name = trace_name
        self.machines = machines
        seed_word = np.array([self.seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        self._seed_key = _splitmix64(seed_word)[0]

    @classmethod
    def for_source(cls, source, cap: Optional[int],
                   seed: int) -> Optional["ClusterSampleConsumer"]:
        """The sample fold for ``source``, or ``None`` when it holds at most
        ``cap`` jobs (or ``cap`` is ``None``): Table 2 then clusters them all."""
        if cap is None or len(source) <= cap:
            return None
        return cls(cap, seed, trace_name=source.name, machines=source.machines)

    def make_state(self):
        state = {"key": np.zeros(0, dtype=np.uint64), "row": np.zeros(0, dtype=np.int64)}
        state.update((dim, np.zeros(0)) for dim in NUMERIC_DIMENSIONS)
        return state

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        return _splitmix64(rows.astype(np.uint64) ^ self._seed_key)

    def fold(self, state, chunk: ScanChunk):
        rows = np.arange(chunk.start_row, chunk.start_row + chunk.n_rows, dtype=np.int64)
        keys = self._keys(rows)
        picked = (keys < state["key"].max() if state["key"].size >= self.cap
                  else np.ones(keys.size, dtype=bool))
        batch = {"key": keys[picked], "row": rows[picked]}
        batch.update((dim, chunk.column(dim)[picked]) for dim in NUMERIC_DIMENSIONS)
        return self.merge(state, batch)

    def merge(self, a, b):
        merged = {field: np.concatenate([a[field], b[field]]) for field in a}
        if merged["key"].size > self.cap:
            smallest = np.argpartition(merged["key"], self.cap - 1)[:self.cap]
            merged = {field: values[smallest] for field, values in merged.items()}
        return merged

    def finalize(self, state):
        order = np.argsort(state["row"])
        return ColumnarTrace({dim: state[dim][order] for dim in NUMERIC_DIMENSIONS},
                             name=self.trace_name, machines=self.machines)

    def snapshot(self, state) -> Dict[str, object]:
        # Keys are a function of the row numbers; restore recomputes them.
        payload = {field: values for field, values in state.items() if field != "key"}
        return dict(payload, seed=self.seed, cap=self.cap)

    def restore(self, payload):
        if (payload["seed"], payload["cap"]) != (self.seed, self.cap):
            raise AnalysisError(
                "checkpointed sample was drawn with seed %s, cap %s; this scan "
                "asks for seed %d, cap %d" % (payload["seed"], payload["cap"],
                                              self.seed, self.cap))
        state = {field: np.array(payload[field], dtype=values.dtype)
                 for field, values in self.make_state().items() if field != "key"}
        return dict(state, key=self._keys(state["row"]))


@dataclass
class JobCluster:
    """One Table-2 row: a cluster of similarly behaving jobs.

    Attributes:
        label: human-readable description of the cluster.
        n_jobs: number of jobs in the cluster.
        centroid: per-dimension medians of the member jobs in natural units
            (bytes, seconds, task-seconds) — more robust and more comparable
            to the paper's table than means over heavy-tailed members.
        fraction: cluster size divided by total job count.
    """

    label: str
    n_jobs: int
    centroid: Tuple[float, float, float, float, float, float]
    fraction: float

    def as_row(self) -> List[str]:
        """Render as a Table-2 style row of strings."""
        input_b, shuffle_b, output_b, duration, map_s, reduce_s = self.centroid
        return [
            str(self.n_jobs),
            format_bytes(input_b),
            format_bytes(shuffle_b),
            format_bytes(output_b),
            format_duration(duration),
            "%d" % round(map_s),
            "%d" % round(reduce_s),
            self.label,
        ]


@dataclass
class ClusteringResult:
    """Full clustering output for one workload.

    Attributes:
        workload: workload name.
        clusters: clusters sorted by decreasing size (Table 2 ordering).
        k_selection: the k-sweep record (inertia per k, chosen k).
        small_job_fraction: fraction of jobs in clusters labelled small.
    """

    workload: str
    clusters: List[JobCluster]
    k_selection: KSelectionResult
    small_job_fraction: float

    @property
    def k(self) -> int:
        return len(self.clusters)


def label_centroid(centroid: Sequence[float]) -> str:
    """Assign a paper-style label to a 6-D centroid (natural units).

    The rules follow the vocabulary of Table 2:

    * jobs touching under ~10 GB of total data and finishing within minutes
      are "Small jobs";
    * jobs with no shuffle and no reduce time are "Map only" (summary when the
      output is much smaller than the input, transform otherwise);
    * otherwise the input:output ratio decides between "Aggregate" (output
      much smaller), "Expand" (output much larger) and "Transform";
    * long-duration jobs gain a duration qualifier.
    """
    input_b, shuffle_b, output_b, duration, map_s, reduce_s = [float(v) for v in centroid]
    total_data = input_b + shuffle_b + output_b

    # The paper's own Table 2 labels clusters with centroids of up to ~10 GB of
    # combined data and minutes-scale durations as "Small jobs" (e.g. CC-c);
    # the thresholds below reproduce that labelling.
    if total_data < 30 * GB and duration < 15 * MINUTE:
        return "Small jobs"

    if shuffle_b == 0 and reduce_s == 0:
        if output_b < input_b / 100.0:
            base = "Map only summary"
        else:
            base = "Map only transform"
    else:
        if output_b < input_b / 10.0:
            base = "Aggregate"
        elif output_b > input_b * 10.0:
            base = "Expand"
        else:
            base = "Transform"
        if shuffle_b > 0 and output_b < shuffle_b / 50.0 and base != "Aggregate":
            base = "%s and aggregate" % base

    if duration >= 12 * HOUR:
        return "%s, long (%s)" % (base, format_duration(duration))
    if duration >= 2 * HOUR:
        return "%s, %s" % (base, format_duration(duration))
    return base


def small_job_fraction(result: "ClusteringResult") -> float:
    """Fraction of jobs in clusters labelled "Small jobs" (paper: >92%)."""
    total = sum(cluster.n_jobs for cluster in result.clusters)
    if total == 0:
        return 0.0
    small = sum(cluster.n_jobs for cluster in result.clusters if cluster.label == "Small jobs")
    return small / total


def cluster_jobs(trace, k: Optional[int] = None, max_k: int = 12, seed: int = 0,
                 improvement_threshold: float = 0.10,
                 rng: Optional[np.random.Generator] = None,
                 method: str = "exact",
                 features: Optional[np.ndarray] = None) -> ClusteringResult:
    """Cluster a trace's jobs into Table-2 style job types.

    Args:
        trace: the workload trace, in any :class:`TraceSource`-wrappable
            representation.
        k: fixed number of clusters; when ``None`` the paper's
            diminishing-returns rule picks it automatically.
        max_k: upper bound of the automatic k sweep.
        seed: RNG seed for k-means.
        improvement_threshold: relative inertia-improvement cutoff of the
            automatic rule.
        rng: explicit generator for k-means++ seeding (overrides ``seed``).
        method: ``"exact"`` (default — gather the feature matrix from column
            batches, full k-means, representation-independent results) or
            ``"minibatch"`` (stream batches through mini-batch k-means with
            sketch-backed median centroids; needs an explicit ``k``; memory
            bounded by one chunk).
        features: optional pre-gathered (n_jobs, 6) feature matrix (e.g. from
            a shared-scan :class:`FeatureMatrixConsumer`), skipping the
            feature-gather scan; must match :meth:`TraceSource.feature_matrix`
            of ``trace``.  Ignored by ``method="minibatch"``.

    Raises:
        ClusteringError: for an empty trace, an invalid fixed ``k``, or
            ``method="minibatch"`` without ``k``.
    """
    source = TraceSource.wrap(trace)
    if source.is_empty():
        raise ClusteringError("cannot cluster an empty trace")
    if method == "minibatch":
        return _cluster_jobs_minibatch(source, k, seed=seed, rng=rng)
    if method != "exact":
        raise ClusteringError("unknown clustering method %r" % (method,))

    if features is None:
        features = source.feature_matrix()
    scaled = log_standardize(features)

    if k is not None:
        result = kmeans(scaled, k, seed=seed, rng=rng)
        selection = KSelectionResult(chosen_k=k, inertias=[(k, result.inertia)], result=result)
    else:
        selection = select_k(scaled, max_k=max_k, seed=seed,
                             improvement_threshold=improvement_threshold, rng=rng)
        result = selection.result

    clusters: List[JobCluster] = []
    total_jobs = features.shape[0]
    for cluster_index in range(result.k):
        member_mask = result.labels == cluster_index
        n_members = int(member_mask.sum())
        if n_members == 0:
            continue
        members = features[member_mask]
        centroid = tuple(float(np.median(members[:, dim])) for dim in range(len(FEATURE_DIMENSIONS)))
        clusters.append(
            JobCluster(
                label=label_centroid(centroid),
                n_jobs=n_members,
                centroid=centroid,  # type: ignore[arg-type]
                fraction=n_members / total_jobs,
            )
        )
    clusters.sort(key=lambda cluster: cluster.n_jobs, reverse=True)
    clustering = ClusteringResult(
        workload=source.name,
        clusters=clusters,
        k_selection=selection,
        small_job_fraction=0.0,
    )
    clustering.small_job_fraction = small_job_fraction(clustering)
    return clustering


def _cluster_jobs_minibatch(source: TraceSource, k: Optional[int], seed: int,
                            rng: Optional[np.random.Generator]) -> ClusteringResult:
    """Bounded-memory clustering: mini-batch training + sketch centroids."""
    if k is None:
        raise ClusteringError("method='minibatch' needs an explicit k "
                              "(the elbow sweep would re-stream the store per k)")
    n_dims = len(FEATURE_DIMENSIONS)

    # Pass 1: global log-standardization statistics (exact, one scan).
    count = 0
    sums = np.zeros(n_dims)
    sum_squares = np.zeros(n_dims)
    for batch in source.feature_batches():
        logged = np.log10(np.maximum(batch, 1.0))
        count += logged.shape[0]
        sums += logged.sum(axis=0)
        sum_squares += (logged ** 2).sum(axis=0)
    if count == 0:
        raise ClusteringError("cannot cluster an empty trace")
    if k > count:
        raise ClusteringError("k=%d exceeds the number of points (%d)" % (k, count))
    means = sums / count
    variances = np.maximum(sum_squares / count - means ** 2, 0.0)
    stds = np.sqrt(variances)
    stds[stds == 0] = 1.0

    def scaled_batches():
        for raw in source.feature_batches():
            yield (np.log10(np.maximum(raw, 1.0)) - means) / stds

    # Pass 2: mini-batch training over the scaled stream.
    trained = mini_batch_kmeans(scaled_batches(), k, seed=seed, rng=rng)

    # Pass 3: final assignment — counts plus per-(cluster, dimension) median
    # sketches over the *natural-unit* features.
    counts = np.zeros(k, dtype=np.int64)
    inertia = 0.0
    sketches = [[HistogramSketch() for _ in range(n_dims)] for _ in range(k)]
    for raw in source.feature_batches():
        scaled = (np.log10(np.maximum(raw, 1.0)) - means) / stds
        labels, assigned_sq = assign_labels(scaled, trained.centroids)
        inertia += float(assigned_sq.sum())
        counts += np.bincount(labels, minlength=k)
        for cluster_index in np.unique(labels):
            members = raw[labels == cluster_index]
            for dim in range(n_dims):
                sketches[cluster_index][dim].update(members[:, dim])

    clusters: List[JobCluster] = []
    for cluster_index in range(k):
        n_members = int(counts[cluster_index])
        if n_members == 0:
            continue
        centroid = tuple(
            float(sketches[cluster_index][dim].percentile(50.0) or 0.0)
            for dim in range(n_dims)
        )
        clusters.append(JobCluster(
            label=label_centroid(centroid),
            n_jobs=n_members,
            centroid=centroid,  # type: ignore[arg-type]
            fraction=n_members / count,
        ))
    clusters.sort(key=lambda cluster: cluster.n_jobs, reverse=True)
    final = KMeansResult(
        centroids=trained.centroids,
        labels=np.zeros(0, dtype=int),  # per-point labels are never retained
        inertia=inertia,
        n_iterations=trained.n_batches,
        converged=True,
    )
    clustering = ClusteringResult(
        workload=source.name,
        clusters=clusters,
        k_selection=KSelectionResult(chosen_k=k, inertias=[(k, inertia)], result=final),
        small_job_fraction=0.0,
    )
    clustering.small_job_fraction = small_job_fraction(clustering)
    return clustering
