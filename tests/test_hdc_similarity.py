"""Unit tests for repro.hdc.similarity."""

import numpy as np
import pytest

from repro.hdc import similarity as sim
from repro.hdc.hypervector import random_bipolar_hypervectors, to_binary


class TestDotSimilarity:
    def test_single_pair_returns_scalar(self):
        value = sim.dot_similarity(np.array([1, 2, 3]), np.array([4, 5, 6]))
        assert value == pytest.approx(32.0)

    def test_batch_vs_single_reference(self):
        queries = np.array([[1, 0], [0, 1]])
        reference = np.array([2, 3])
        result = sim.dot_similarity(queries, reference)
        assert result.shape == (2,)
        assert np.allclose(result, [2, 3])

    def test_single_query_vs_batch(self):
        query = np.array([1, 1])
        references = np.array([[1, 0], [0, 1], [1, 1]])
        result = sim.dot_similarity(query, references)
        assert np.allclose(result, [1, 1, 2])

    def test_full_matrix_shape(self):
        queries = np.ones((3, 5))
        references = np.ones((4, 5))
        assert sim.dot_similarity(queries, references).shape == (3, 4)

    def test_matches_matmul(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(6, 10))
        r = rng.normal(size=(4, 10))
        assert np.allclose(sim.dot_similarity(q, r), q @ r.T)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            sim.dot_similarity(np.ones((2, 3)), np.ones((2, 4)))

    def test_3d_input_raises(self):
        with pytest.raises(ValueError):
            sim.dot_similarity(np.ones((2, 3, 4)), np.ones((2, 4)))

    def test_self_similarity_of_bipolar_equals_dimension(self):
        vec = random_bipolar_hypervectors(1, 200, rng=0)[0]
        assert sim.dot_similarity(vec, vec) == 200


class TestCosineSimilarity:
    def test_identical_vectors_give_one(self):
        vec = np.array([1.0, 2.0, 3.0])
        assert sim.cosine_similarity(vec, vec) == pytest.approx(1.0)

    def test_opposite_vectors_give_minus_one(self):
        vec = np.array([1.0, -2.0, 0.5])
        assert sim.cosine_similarity(vec, -vec) == pytest.approx(-1.0)

    def test_orthogonal_vectors_give_zero(self):
        assert sim.cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_scale_invariance(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([0.5, -1.0, 2.0])
        assert sim.cosine_similarity(a, b) == pytest.approx(
            sim.cosine_similarity(10 * a, 0.1 * b)
        )

    def test_zero_vector_does_not_blow_up(self):
        value = sim.cosine_similarity(np.zeros(4), np.ones(4))
        assert np.isfinite(value)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(5, 20))
        r = rng.normal(size=(6, 20))
        values = sim.cosine_similarity(q, r)
        assert np.all(values <= 1.0 + 1e-12)
        assert np.all(values >= -1.0 - 1e-12)

    def test_matrix_shape(self):
        assert sim.cosine_similarity(np.ones((3, 4)), np.ones((2, 4))).shape == (3, 2)


class TestHamming:
    def test_distance_counts_mismatches(self):
        a = np.array([0, 1, 1, 0])
        b = np.array([1, 1, 0, 0])
        assert sim.hamming_distance(a, b) == 2

    def test_distance_zero_for_identical(self):
        a = np.array([0, 1, 0, 1])
        assert sim.hamming_distance(a, a) == 0

    def test_batch_shapes(self):
        a = np.zeros((3, 8), dtype=int)
        b = np.ones((2, 8), dtype=int)
        assert sim.hamming_distance(a, b).shape == (3, 2)
        assert np.all(sim.hamming_distance(a, b) == 8)

    def test_relation_between_dot_and_hamming_for_bipolar(self):
        # For bipolar vectors: dot = D - 2 * hamming_distance.
        a = random_bipolar_hypervectors(1, 300, rng=0)[0]
        b = random_bipolar_hypervectors(1, 300, rng=1)[0]
        dot = sim.dot_similarity(a, b)
        dist = sim.hamming_distance(a, b)
        assert dot == 300 - 2 * dist

    def test_binary_dot_counts_common_ones(self):
        a_bipolar = random_bipolar_hypervectors(1, 100, rng=2)[0]
        b_bipolar = random_bipolar_hypervectors(1, 100, rng=3)[0]
        a, b = to_binary(a_bipolar), to_binary(b_bipolar)
        expected = int(np.sum((a == 1) & (b == 1)))
        assert sim.dot_similarity(a, b) == expected

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            sim.hamming_distance(np.zeros(3), np.zeros(4))
