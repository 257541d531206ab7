"""Associative-memory quantization and normalization (paper Sec. III-B).

After clustering-based initialization the floating-point AM values follow a
roughly Gaussian distribution (they are means of many binary hypervectors).
MEMHD performs 1-bit quantization with the *mean* as the threshold: entries
greater than the mean become 1, the rest 0.  The same binarization is
re-applied after every quantization-aware training epoch; before it, a row
normalization evens out the learning influence across the multiple class
vectors of one class so that no single centroid dominates (Sec. III-C-4).
"""

from __future__ import annotations

import numpy as np


def mean_threshold_binarize(
    fp_memory: np.ndarray, mode: str = "global-mean"
) -> np.ndarray:
    """1-bit quantization of a floating-point AM.

    Parameters
    ----------
    fp_memory:
        ``(C, D)`` floating-point associative memory.
    mode:
        ``"global-mean"`` (paper default): a single threshold, the mean of
        the whole matrix.  ``"row-mean"``: each row is thresholded at its
        own mean, which guarantees every centroid keeps a balanced number
        of ones even without prior normalization.

    Returns
    -------
    numpy.ndarray
        ``(C, D)`` ``int8`` matrix with values in ``{0, 1}``.
    """
    arr = np.asarray(fp_memory, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("fp_memory must be a 2-D array")
    if mode == "global-mean":
        threshold = arr.mean()
        return (arr > threshold).astype(np.int8)
    if mode == "row-mean":
        thresholds = arr.mean(axis=1, keepdims=True)
        return (arr > thresholds).astype(np.int8)
    raise ValueError(f"unknown threshold mode {mode!r}")


def normalize_rows(fp_memory: np.ndarray, mode: str = "zscore") -> np.ndarray:
    """Row-normalize the FP AM before re-binarization (Sec. III-C-4).

    ``"zscore"`` maps each row to zero mean and unit variance, ``"l2"``
    rescales each row to unit Euclidean norm, ``"none"`` returns a copy
    unchanged.  Degenerate rows (zero variance / zero norm) are left as-is.
    """
    arr = np.asarray(fp_memory, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("fp_memory must be a 2-D array")
    if mode == "none":
        return arr.copy()
    if mode == "zscore":
        mean = arr.mean(axis=1, keepdims=True)
        std = arr.std(axis=1, keepdims=True)
        # Rows that are (numerically) constant have no shape to preserve;
        # dividing by their vanishing std would only amplify rounding noise.
        degenerate = std <= 1e-12 * (1.0 + np.abs(mean))
        safe_std = np.where(degenerate, 1.0, std)
        return (arr - mean) / safe_std
    if mode == "l2":
        norms = np.linalg.norm(arr, axis=1, keepdims=True)
        safe_norms = np.where(norms > 0.0, norms, 1.0)
        return arr / safe_norms
    raise ValueError(f"unknown normalization mode {mode!r}")
