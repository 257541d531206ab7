"""Unit tests for repro.eval.metrics."""

import numpy as np
import pytest

from repro.eval.metrics import (
    accuracy,
    confusion_matrix,
    misclassification_counts,
)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0

    def test_none_correct(self):
        assert accuracy(np.array([1, 2, 0]), np.array([0, 1, 2])) == 0.0

    def test_partial(self):
        assert accuracy(np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0])) == 0.5

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(3), np.zeros(4))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))


class TestConfusionMatrix:
    def test_layout_true_rows_pred_columns(self):
        actual = np.array([0, 0, 1, 1])
        predicted = np.array([0, 1, 1, 1])
        matrix = confusion_matrix(predicted, actual)
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == 1
        assert matrix[0, 1] == 1
        assert matrix[1, 1] == 2
        assert matrix[1, 0] == 0

    def test_total_equals_sample_count(self):
        gen = np.random.default_rng(0)
        actual = gen.integers(0, 5, 100)
        predicted = gen.integers(0, 5, 100)
        assert confusion_matrix(predicted, actual).sum() == 100

    def test_explicit_num_classes_pads(self):
        matrix = confusion_matrix(np.array([0]), np.array([0]), num_classes=4)
        assert matrix.shape == (4, 4)

    def test_diagonal_counts_correct_predictions(self):
        actual = np.array([0, 1, 2, 2])
        predicted = np.array([0, 1, 2, 0])
        matrix = confusion_matrix(predicted, actual)
        assert np.trace(matrix) == 3

    def test_negative_labels_raise(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([-1]), np.array([0]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([]), np.array([]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0, 1]), np.array([0]))


class TestMisclassification:
    def test_counts(self):
        actual = np.array([0, 0, 0, 1, 1, 2])
        predicted = np.array([0, 1, 2, 1, 1, 2])
        counts = misclassification_counts(predicted, actual)
        assert np.array_equal(counts, [2, 0, 0])

    def test_counts_with_explicit_classes(self):
        counts = misclassification_counts(
            np.array([1]), np.array([0]), num_classes=4
        )
        assert np.array_equal(counts, [1, 0, 0, 0])

    def test_counts_plus_diagonal_equals_class_totals(self):
        gen = np.random.default_rng(1)
        actual = gen.integers(0, 4, 60)
        predicted = gen.integers(0, 4, 60)
        matrix = confusion_matrix(predicted, actual)
        counts = misclassification_counts(predicted, actual)
        assert np.array_equal(counts + np.diag(matrix), np.bincount(actual, minlength=4))
