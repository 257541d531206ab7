"""Classification metrics.

Only the handful of metrics the paper's evaluation needs are implemented:
top-1 accuracy, the confusion matrix (which also drives MEMHD's cluster
allocation, Sec. III-A-2), per-class accuracy and misclassification rates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def accuracy(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Fraction of predictions equal to the ground-truth labels."""
    pred = np.asarray(predicted)
    true = np.asarray(actual)
    if pred.shape != true.shape:
        raise ValueError(
            f"shape mismatch: predicted {pred.shape} vs actual {true.shape}"
        )
    if pred.size == 0:
        raise ValueError("cannot compute accuracy of empty arrays")
    return float(np.mean(pred == true))


def confusion_matrix(
    predicted: np.ndarray,
    actual: np.ndarray,
    num_classes: Optional[int] = None,
) -> np.ndarray:
    """Row-indexed-by-truth confusion matrix.

    ``matrix[i, j]`` counts samples whose true class is ``i`` and predicted
    class is ``j``.
    """
    pred = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(actual, dtype=np.int64)
    if pred.shape != true.shape:
        raise ValueError("predicted and actual must have the same shape")
    if pred.size == 0:
        raise ValueError("cannot compute a confusion matrix of empty arrays")
    if np.any(pred < 0) or np.any(true < 0):
        raise ValueError("labels must be non-negative integers")
    if num_classes is None:
        num_classes = int(max(pred.max(), true.max())) + 1
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (true, pred), 1)
    return matrix


def misclassification_counts(
    predicted: np.ndarray,
    actual: np.ndarray,
    num_classes: Optional[int] = None,
) -> np.ndarray:
    """Number of misclassified samples per true class.

    This is the quantity MEMHD's cluster-allocation loop ranks classes by:
    classes with more mispredictions receive additional centroids.
    """
    matrix = confusion_matrix(predicted, actual, num_classes)
    return matrix.sum(axis=1) - np.diag(matrix)
