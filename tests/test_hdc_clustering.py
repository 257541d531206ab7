"""Unit tests for repro.hdc.clustering (dot-similarity K-means)."""

import numpy as np
import pytest

from repro.hdc.clustering import classwise_clustering, dot_kmeans


def _blobs(num_blobs, per_blob, dimension, separation, rng):
    """Well-separated Gaussian blobs plus their blob labels."""
    gen = np.random.default_rng(rng)
    centers = gen.normal(0.0, separation, size=(num_blobs, dimension))
    samples = np.vstack(
        [centers[i] + gen.normal(0, 0.3, size=(per_blob, dimension)) for i in range(num_blobs)]
    )
    labels = np.repeat(np.arange(num_blobs), per_blob)
    return samples, labels


class TestDotKMeans:
    def test_result_shapes(self):
        samples, _ = _blobs(3, 20, 8, 5.0, 0)
        result = dot_kmeans(samples, 3, rng=0)
        assert result.centroids.shape == (3, 8)
        assert result.assignments.shape == (60,)
        assert result.num_clusters == 3

    def test_assignments_within_range(self):
        samples, _ = _blobs(4, 10, 6, 4.0, 1)
        result = dot_kmeans(samples, 4, rng=1)
        assert result.assignments.min() >= 0
        assert result.assignments.max() < 4

    def test_separated_blobs_are_recovered(self):
        samples, blob_labels = _blobs(3, 30, 10, 8.0, 2)
        result = dot_kmeans(samples, 3, rng=2)
        # Every blob should map (almost) entirely to a single cluster.
        for blob in range(3):
            assigned = result.assignments[blob_labels == blob]
            dominant_fraction = np.bincount(assigned, minlength=3).max() / assigned.size
            assert dominant_fraction > 0.9

    def test_single_cluster_is_mean(self):
        samples = np.random.default_rng(3).normal(size=(20, 5))
        result = dot_kmeans(samples, 1, rng=3)
        assert np.allclose(result.centroids[0], samples.mean(axis=0))
        assert result.converged

    def test_no_empty_clusters(self):
        samples, _ = _blobs(2, 50, 6, 5.0, 4)
        result = dot_kmeans(samples, 8, rng=4)
        sizes = result.cluster_sizes()
        assert sizes.shape == (8,)
        assert np.all(sizes > 0)

    def test_deterministic_with_seed(self):
        samples, _ = _blobs(3, 15, 7, 4.0, 5)
        a = dot_kmeans(samples, 3, rng=42)
        b = dot_kmeans(samples, 3, rng=42)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.allclose(a.centroids, b.centroids)

    def test_random_init_also_works(self):
        samples, _ = _blobs(3, 20, 6, 6.0, 6)
        result = dot_kmeans(samples, 3, rng=6, init="random")
        assert result.centroids.shape == (3, 6)

    def test_unknown_init_raises(self):
        with pytest.raises(ValueError):
            dot_kmeans(np.zeros((5, 3)), 2, init="bogus")

    def test_more_clusters_than_samples_raises(self):
        with pytest.raises(ValueError):
            dot_kmeans(np.zeros((3, 2)), 4)

    def test_zero_clusters_raises(self):
        with pytest.raises(ValueError):
            dot_kmeans(np.zeros((3, 2)), 0)

    def test_1d_input_raises(self):
        with pytest.raises(ValueError):
            dot_kmeans(np.zeros(5), 2)

    def test_iterations_bounded(self):
        samples, _ = _blobs(4, 25, 8, 3.0, 7)
        result = dot_kmeans(samples, 4, max_iterations=3, rng=7)
        assert result.iterations <= 3

    def test_inertia_improves_with_more_clusters(self):
        samples, _ = _blobs(4, 25, 8, 5.0, 8)
        few = dot_kmeans(samples, 2, rng=8)
        many = dot_kmeans(samples, 6, rng=8)
        assert many.inertia <= few.inertia

    def test_assignment_is_argmax_dot(self):
        samples, _ = _blobs(3, 20, 6, 5.0, 9)
        result = dot_kmeans(samples, 3, rng=9)
        sims = samples @ result.centroids.T
        assert np.array_equal(result.assignments, np.argmax(sims, axis=1))


class TestClasswiseClustering:
    def test_returns_one_result_per_class(self):
        samples, labels = _blobs(4, 20, 6, 5.0, 0)
        results = classwise_clustering(samples, labels, clusters_per_class=2, rng=0)
        assert set(results.keys()) == {0, 1, 2, 3}

    def test_requested_cluster_count(self):
        samples, labels = _blobs(3, 30, 6, 5.0, 1)
        results = classwise_clustering(samples, labels, clusters_per_class=3, rng=1)
        for result in results.values():
            assert result.num_clusters == 3

    def test_per_class_mapping(self):
        samples, labels = _blobs(3, 20, 5, 5.0, 2)
        results = classwise_clustering(
            samples, labels, clusters_per_class={0: 1, 1: 2, 2: 3}, rng=2
        )
        assert results[0].num_clusters == 1
        assert results[1].num_clusters == 2
        assert results[2].num_clusters == 3

    def test_sequence_mapping(self):
        samples, labels = _blobs(2, 15, 5, 5.0, 3)
        results = classwise_clustering(samples, labels, clusters_per_class=[2, 4], rng=3)
        assert results[0].num_clusters == 2
        assert results[1].num_clusters == 4

    def test_request_clipped_to_sample_count(self):
        samples, labels = _blobs(2, 3, 4, 5.0, 4)
        results = classwise_clustering(samples, labels, clusters_per_class=10, rng=4)
        for result in results.values():
            assert result.num_clusters == 3

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            classwise_clustering(np.zeros((4, 3)), np.zeros(5), 1)

    def test_deterministic(self):
        samples, labels = _blobs(3, 20, 6, 4.0, 5)
        a = classwise_clustering(samples, labels, 2, rng=99)
        b = classwise_clustering(samples, labels, 2, rng=99)
        for class_label in a:
            assert np.allclose(a[class_label].centroids, b[class_label].centroids)


# ------------------------------------------------- fast-path exactness
def _reference_seeding(samples, k, rng):
    """k-means++ seeding that rescores every chosen centroid at each step."""
    n = samples.shape[0]
    chosen = [int(rng.integers(0, n))]
    for _ in range(1, k):
        best = (samples @ samples[chosen].T).max(axis=1)
        weights = best.max() - best
        total = float(weights.sum())
        if total <= 0.0:
            chosen.append(int(rng.integers(0, n)))
        else:
            chosen.append(int(rng.choice(n, p=weights / total)))
    return samples[chosen].astype(np.float64).copy()


def _reference_kmeans(samples, k, max_iterations, rng):
    """Lloyd iterations with per-cluster masked means and a fresh inertia."""
    n = samples.shape[0]
    centroids = _reference_seeding(samples, k, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    converged = False
    for _ in range(max_iterations):
        sims = samples @ centroids.T
        new_assignments = np.argmax(sims, axis=1)
        counts = np.bincount(new_assignments, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            best = sims[np.arange(n), new_assignments]
            for cluster, sample in zip(empty, np.argsort(best)[: empty.size]):
                new_assignments[sample] = cluster
        if np.array_equal(new_assignments, assignments):
            converged = True
            break
        assignments = new_assignments
        for cluster in range(k):
            members = samples[assignments == cluster]
            if members.size:
                centroids[cluster] = members.mean(axis=0)
    sims = samples @ centroids.T
    inertia = -float(sims[np.arange(n), assignments].sum())
    return centroids, assignments, inertia, converged


def _binary_samples(seed, n, dimension):
    """{0, 1} samples around a few prototypes, like encoded hypervectors."""
    gen = np.random.default_rng(seed)
    prototypes = gen.integers(0, 2, size=(4, dimension))
    flips = gen.random((n, dimension)) < 0.2
    return (prototypes[gen.integers(0, 4, size=n)] ^ flips).astype(np.float64)


class TestExactOnBinarySamples:
    """Running-max seeding, indicator-GEMM sums and the reused inertia are
    bit-identical to the per-cluster formulation on {0, 1} samples."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [2, 5, 17])
    def test_seeding_matches_all_chosen_recompute(self, seed, k):
        from repro.hdc.clustering import _init_centroids_kmeanspp

        samples = _binary_samples(seed, 120, 37)
        fast = _init_centroids_kmeanspp(samples, k, np.random.default_rng(seed))
        reference = _reference_seeding(samples, k, np.random.default_rng(seed))
        np.testing.assert_array_equal(fast, reference)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_iterations", [1, 3, 50])
    def test_kmeans_matches_per_cluster_means(self, seed, max_iterations):
        samples = _binary_samples(100 + seed, 150, 64)
        result = dot_kmeans(samples, 7, max_iterations=max_iterations, rng=seed)
        centroids, assignments, inertia, converged = _reference_kmeans(
            samples, 7, max_iterations, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(result.centroids, centroids)
        np.testing.assert_array_equal(result.assignments, assignments)
        assert result.inertia == inertia
        assert result.converged == converged

    def test_real_valued_samples_agree_to_rounding(self):
        samples, _ = _blobs(3, 25, 9, 4.0, 11)
        result = dot_kmeans(samples, 3, rng=5)
        centroids, assignments, inertia, _ = _reference_kmeans(
            samples, 3, 50, np.random.default_rng(5)
        )
        np.testing.assert_allclose(result.centroids, centroids, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(result.assignments, assignments)
        assert result.inertia == pytest.approx(inertia, rel=1e-12)
