"""Unit tests for repro.core.quantization."""

import numpy as np
import pytest

from repro.core.quantization import mean_threshold_binarize, normalize_rows


class TestMeanThresholdBinarize:
    def test_global_mean_threshold(self):
        memory = np.array([[0.0, 1.0], [2.0, 3.0]])
        # Global mean is 1.5; entries strictly greater become 1.
        expected = np.array([[0, 0], [1, 1]], dtype=np.int8)
        assert np.array_equal(mean_threshold_binarize(memory), expected)

    def test_output_dtype_and_alphabet(self):
        memory = np.random.default_rng(0).normal(size=(6, 10))
        binary = mean_threshold_binarize(memory)
        assert binary.dtype == np.int8
        assert set(np.unique(binary)) <= {0, 1}

    def test_row_mean_threshold(self):
        memory = np.array([[0.0, 1.0], [10.0, 20.0]])
        expected = np.array([[0, 1], [0, 1]], dtype=np.int8)
        assert np.array_equal(mean_threshold_binarize(memory, "row-mean"), expected)

    def test_gaussian_memory_is_roughly_balanced(self):
        memory = np.random.default_rng(1).normal(size=(50, 200))
        binary = mean_threshold_binarize(memory)
        assert 0.45 < binary.mean() < 0.55

    def test_strictly_greater_semantics(self):
        memory = np.full((2, 4), 3.0)
        # Every entry equals the mean, so nothing exceeds it strictly.
        assert mean_threshold_binarize(memory).sum() == 0

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            mean_threshold_binarize(np.zeros((2, 2)), "bogus")

    def test_1d_input_raises(self):
        with pytest.raises(ValueError):
            mean_threshold_binarize(np.zeros(4))


class TestNormalizeRows:
    def test_zscore_rows(self):
        memory = np.random.default_rng(2).normal(3.0, 2.0, size=(8, 64))
        normalized = normalize_rows(memory, "zscore")
        assert np.allclose(normalized.mean(axis=1), 0.0, atol=1e-10)
        assert np.allclose(normalized.std(axis=1), 1.0, atol=1e-10)

    def test_l2_rows(self):
        memory = np.random.default_rng(3).normal(size=(8, 64))
        normalized = normalize_rows(memory, "l2")
        assert np.allclose(np.linalg.norm(normalized, axis=1), 1.0)

    def test_none_is_copy(self):
        memory = np.random.default_rng(4).normal(size=(3, 5))
        normalized = normalize_rows(memory, "none")
        assert np.array_equal(normalized, memory)
        normalized[0, 0] = 99.0
        assert memory[0, 0] != 99.0

    def test_degenerate_rows_survive(self):
        memory = np.vstack([np.zeros(5), np.ones(5)])
        for mode in ("zscore", "l2"):
            normalized = normalize_rows(memory, mode)
            assert np.all(np.isfinite(normalized))

    def test_does_not_mutate_input(self):
        memory = np.random.default_rng(5).normal(size=(3, 5))
        original = memory.copy()
        normalize_rows(memory, "zscore")
        assert np.array_equal(memory, original)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            normalize_rows(np.zeros((2, 2)), "bogus")

    def test_1d_raises(self):
        with pytest.raises(ValueError):
            normalize_rows(np.zeros(4))

    def test_zscore_preserves_rowwise_ranking(self):
        memory = np.random.default_rng(6).normal(size=(4, 20))
        normalized = normalize_rows(memory, "zscore")
        for row, normalized_row in zip(memory, normalized):
            assert np.array_equal(np.argsort(row), np.argsort(normalized_row))
