"""Tests for k-means, automatic k selection, and the Table-2 clustering pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    assign_labels,
    cluster_jobs,
    kmeans,
    label_centroid,
    log_standardize,
    select_k,
)
from repro.errors import ClusteringError
from repro.traces import Trace, load_workload
from repro.units import GB, HOUR, MB, MINUTE, TB


def well_separated_points(seed=0, per_cluster=50):
    """Three obvious clusters in 2-D."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    points = np.vstack([
        center + rng.normal(0, 0.3, size=(per_cluster, 2)) for center in centers
    ])
    return points


class TestKMeans:
    def test_recovers_separated_clusters(self):
        points = well_separated_points()
        result = kmeans(points, 3, seed=0)
        assert result.k == 3
        sizes = sorted(np.bincount(result.labels, minlength=result.k).tolist())
        assert sizes == [50, 50, 50]
        assert result.converged

    def test_inertia_decreases_with_k(self):
        points = well_separated_points()
        inertia_1 = kmeans(points, 1, seed=0).inertia
        inertia_3 = kmeans(points, 3, seed=0).inertia
        assert inertia_3 < inertia_1

    def test_k_equals_n_gives_zero_inertia(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert kmeans(points, 3, seed=0).inertia == pytest.approx(0.0, abs=1e-12)

    def test_invalid_inputs(self):
        points = well_separated_points()
        with pytest.raises(ClusteringError):
            kmeans(points, 0)
        with pytest.raises(ClusteringError):
            kmeans(points, points.shape[0] + 1)
        with pytest.raises(ClusteringError):
            kmeans(np.zeros((0, 2)), 1)

    def test_deterministic_given_seed(self):
        points = well_separated_points()
        a = kmeans(points, 3, seed=5)
        b = kmeans(points, 3, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_deterministic_given_explicit_rng(self):
        points = well_separated_points()
        a = kmeans(points, 3, rng=np.random.default_rng(42))
        b = kmeans(points, 3, rng=np.random.default_rng(42))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)

    def test_assign_labels_matches_brute_force(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(200, 4))
        centroids = rng.normal(size=(5, 4))
        labels, assigned_sq = assign_labels(points, centroids)
        brute = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        assert np.array_equal(labels, np.argmin(brute, axis=1))
        assert np.allclose(assigned_sq, brute.min(axis=1) ** 2)


class TestSelectK:
    def test_finds_three_clusters(self):
        points = well_separated_points()
        # With a 20% diminishing-returns threshold the sweep stops right after
        # the three genuine clusters are separated.
        selection = select_k(points, max_k=8, seed=0, improvement_threshold=0.2)
        assert selection.chosen_k == 3
        assert selection.inertias[0][0] == 1

    def test_single_cluster_data(self):
        rng = np.random.default_rng(0)
        points = rng.normal(0, 1.0, size=(100, 3))
        selection = select_k(points, max_k=6, seed=0, improvement_threshold=0.3)
        assert selection.chosen_k <= 3

    def test_invalid_inputs(self):
        with pytest.raises(ClusteringError):
            select_k(np.zeros((0, 2)))
        with pytest.raises(ClusteringError):
            select_k(well_separated_points(), max_k=1, min_k=2)


class TestLogStandardize:
    def test_output_standardized(self):
        rng = np.random.default_rng(0)
        features = np.exp(rng.normal(10, 3, size=(500, 4)))
        scaled = log_standardize(features)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_stays_finite(self):
        features = np.column_stack([np.ones(10), np.arange(1, 11)])
        scaled = log_standardize(features)
        assert np.all(np.isfinite(scaled))
        assert np.allclose(scaled[:, 0], 0.0)

    def test_rejects_non_2d(self):
        with pytest.raises(ClusteringError):
            log_standardize(np.ones(5))


class TestLabelCentroid:
    def test_small_jobs(self):
        assert label_centroid((1 * MB, 0, 1 * MB, 30, 20, 0)) == "Small jobs"

    def test_map_only_transform_and_summary(self):
        assert label_centroid((1 * TB, 0, 500 * GB, 30 * MINUTE, 1e5, 0)).startswith("Map only transform")
        assert label_centroid((3 * TB, 0, 200, 5 * MINUTE, 1e5, 0)).startswith("Map only summary")

    def test_aggregate_expand_transform(self):
        assert label_centroid((1 * TB, 100 * GB, 1 * GB, 30 * MINUTE, 1e5, 1e4)).startswith("Aggregate")
        assert label_centroid((1 * GB, 100 * GB, 500 * GB, 30 * MINUTE, 1e5, 1e4)).startswith("Expand")
        assert label_centroid((1 * TB, 1 * TB, 1 * TB, 30 * MINUTE, 1e5, 1e4)).startswith("Transform")

    def test_long_jobs_get_duration_qualifier(self):
        label = label_centroid((1 * TB, 1 * TB, 1 * TB, 20 * HOUR, 1e6, 1e6))
        assert "long" in label


class TestClusterJobs:
    def test_cluster_cc_e_small_jobs_dominate(self, cc_e_trace):
        """Table 2 shape: small jobs form the overwhelming majority."""
        clustering = cluster_jobs(cc_e_trace[:6000], max_k=8, seed=0)
        assert clustering.small_job_fraction > 0.85
        assert clustering.clusters[0].label == "Small jobs"
        assert clustering.k >= 2
        assert sum(cluster.n_jobs for cluster in clustering.clusters) == len(cc_e_trace[:6000])

    def test_fixed_k(self, cc_b_small_trace):
        clustering = cluster_jobs(cc_b_small_trace, k=4, seed=0)
        assert clustering.k <= 4
        fractions = [cluster.fraction for cluster in clustering.clusters]
        assert sum(fractions) == pytest.approx(1.0)

    def test_cluster_rows_render(self, cc_b_small_trace):
        clustering = cluster_jobs(cc_b_small_trace, k=3, seed=0)
        for cluster in clustering.clusters:
            row = cluster.as_row()
            assert len(row) == 8
            assert all(isinstance(cell, str) for cell in row)

    def test_empty_trace_rejected(self):
        with pytest.raises(ClusteringError):
            cluster_jobs(Trace([], name="e"))

    def test_recovers_spec_structure(self):
        """Clusters found in a generated workload resemble the generating classes."""
        trace = load_workload("CC-b", seed=11, scale=0.2)
        clustering = cluster_jobs(trace, max_k=8, seed=0)
        # The generating spec has 5 classes; the elbow rule should find a
        # moderate number of clusters, not 1 and not the maximum.
        assert 2 <= clustering.k <= 8
        assert clustering.small_job_fraction > 0.8


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_kmeans_labels_within_range(seed):
    """Labels are always valid cluster indices and every cluster is non-empty."""
    points = well_separated_points(seed=seed, per_cluster=20)
    result = kmeans(points, 3, seed=seed)
    assert result.labels.min() >= 0
    assert result.labels.max() < 3
    assert all(size > 0 for size in np.bincount(result.labels, minlength=3))
