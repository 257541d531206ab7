"""Similarity metrics for associative search.

The paper performs associative search with the *dot similarity* (Eq. 3),
because a dot product is exactly the operation an IMC crossbar computes in a
single matrix-vector multiplication.  Cosine and Hamming similarity are
provided for completeness (they are the metrics used by several of the
baseline models' original papers) and for the test suite, which checks the
well-known equivalences between them for binary/bipolar data.

Every pairwise metric accepts ``packed=True`` to route 1-bit inputs through
the bit-packed popcount engine (:mod:`repro.hdc.packed`), which is bit-exact
with the unpacked path while moving 64x less memory.  Integer inputs are
evaluated in exact integer arithmetic on the unpacked path as well (no more
silent ``float64`` round-trips).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _atleast_2d(x: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Promote a 1-D vector to a single-row matrix, remembering the squeeze."""
    arr = np.asarray(x)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ValueError(f"expected a 1-D or 2-D array, got ndim={arr.ndim}")


def _int_magnitude_bound(arr: np.ndarray) -> int:
    """Largest absolute value in an integer array (overflow-safe, 0 if empty)."""
    if arr.size == 0:
        return 0
    # int() before abs(): np.abs(int8(-128)) overflows back to -128.
    return max(abs(int(arr.max())), abs(int(arr.min())))


def _matmul_sims(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``q @ r.T`` without wasteful dtype round-trips.

    Float inputs are used as-is (no ``astype(np.float64)`` copies).  Integer
    inputs return exact ``int64`` counts rather than the historical float64:
    whenever every accumulated product fits a float64 mantissa the matmul
    runs through BLAS (an order of magnitude faster than numpy's integer
    matmul) and the exactly-integral result is cast back; otherwise exact
    ``int64`` accumulation is used.
    """
    if np.issubdtype(q.dtype, np.integer) and np.issubdtype(r.dtype, np.integer):
        bound = _int_magnitude_bound(q) * _int_magnitude_bound(r) * q.shape[1]
        if bound < 2**53:
            sims = q.astype(np.float64) @ r.astype(np.float64).T
            return sims.astype(np.int64)
        return q.astype(np.int64, copy=False) @ r.astype(np.int64, copy=False).T
    common = np.result_type(q.dtype, r.dtype)
    if not np.issubdtype(common, np.floating):
        common = np.float64
    return q.astype(common, copy=False) @ r.astype(common, copy=False).T


def _packed_alphabet(q: np.ndarray, r: np.ndarray) -> str:
    """Classify a pair of operands for the packed kernels.

    Returns ``"binary"`` when every value is in ``{0, 1}`` and ``"bipolar"``
    for ``{-1, +1}``.  Degenerate all-ones inputs fit both alphabets and are
    treated as binary, which yields the same dot similarity.
    """
    if ((q == 0) | (q == 1)).all() and ((r == 0) | (r == 1)).all():
        return "binary"
    if ((q == -1) | (q == 1)).all() and ((r == -1) | (r == 1)).all():
        return "bipolar"
    raise ValueError(
        "packed=True requires binary {0, 1} or bipolar {-1, +1} inputs "
        "(with both operands drawn from the same alphabet)"
    )


def _pack_pair(q: np.ndarray, r: np.ndarray):
    from repro.hdc.packed import pack_binary, pack_bipolar

    # _packed_alphabet already proved membership; skip the packers' rescan.
    if _packed_alphabet(q, r) == "binary":
        return pack_binary(q, validate=False), pack_binary(r, validate=False)
    return pack_bipolar(q, validate=False), pack_bipolar(r, validate=False)


def dot_similarity(
    queries: np.ndarray, references: np.ndarray, packed: bool = False
) -> np.ndarray:
    """Dot-product similarity between query and reference hypervectors.

    Parameters
    ----------
    queries:
        ``(n, D)`` or ``(D,)`` array of query hypervectors.
    references:
        ``(m, D)`` or ``(D,)`` array of reference (class) hypervectors.
    packed:
        When ``True``, route binary/bipolar inputs through the bit-packed
        popcount engine (:mod:`repro.hdc.packed`).  The result is bit-exact
        with the unpacked path; inputs outside the two 1-bit alphabets
        raise :class:`ValueError`.

    Returns
    -------
    numpy.ndarray
        ``(n, m)`` similarity matrix (squeezed when either input was 1-D).
        Exact ``int64`` for integer (or packed) inputs, floating point
        otherwise.
    """
    q, q_squeeze = _atleast_2d(queries)
    r, r_squeeze = _atleast_2d(references)
    if q.shape[1] != r.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries have D={q.shape[1]}, "
            f"references have D={r.shape[1]}"
        )
    if packed:
        from repro.hdc.packed import packed_dot_similarity

        q_packed, r_packed = _pack_pair(q, r)
        sims = packed_dot_similarity(q_packed, r_packed)
    else:
        sims = _matmul_sims(q, r)
    if q_squeeze and r_squeeze:
        return sims[0, 0]
    if q_squeeze:
        return sims[0]
    if r_squeeze:
        return sims[:, 0]
    return sims


def cosine_similarity(queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Cosine similarity (dot similarity of L2-normalized vectors)."""
    q, q_squeeze = _atleast_2d(queries)
    r, r_squeeze = _atleast_2d(references)
    if q.shape[1] != r.shape[1]:
        raise ValueError("dimension mismatch between queries and references")
    # Norms need floating point, but float inputs are used without a copy.
    qf = q if np.issubdtype(q.dtype, np.floating) else q.astype(np.float64)
    rf = r if np.issubdtype(r.dtype, np.floating) else r.astype(np.float64)
    q_norm = np.linalg.norm(qf, axis=1, keepdims=True)
    r_norm = np.linalg.norm(rf, axis=1, keepdims=True)
    q_norm[q_norm == 0.0] = 1.0
    r_norm[r_norm == 0.0] = 1.0
    sims = (qf / q_norm) @ (rf / r_norm).T
    # Rounding (and denormal underflow in the norms) can push the result a
    # hair outside [-1, 1]; clamp so callers can rely on the cosine bound.
    sims = np.clip(sims, -1.0, 1.0)
    if q_squeeze and r_squeeze:
        return sims[0, 0]
    if q_squeeze:
        return sims[0]
    if r_squeeze:
        return sims[:, 0]
    return sims


def hamming_distance(
    queries: np.ndarray, references: np.ndarray, packed: bool = False
) -> np.ndarray:
    """Element-count Hamming distance between binary (or bipolar) vectors.

    With ``packed=True`` the distance is computed as an XOR-popcount over
    bit-packed words (bit-exact, but restricted to the ``{0, 1}`` and
    ``{-1, +1}`` alphabets).
    """
    q, q_squeeze = _atleast_2d(queries)
    r, r_squeeze = _atleast_2d(references)
    if q.shape[1] != r.shape[1]:
        raise ValueError("dimension mismatch between queries and references")
    if packed:
        from repro.hdc.packed import packed_hamming_distance

        q_packed, r_packed = _pack_pair(q, r)
        dist = packed_hamming_distance(q_packed, r_packed)
    else:
        dist = (q[:, None, :] != r[None, :, :]).sum(axis=-1).astype(np.int64)
    if q_squeeze and r_squeeze:
        return dist[0, 0]
    if q_squeeze:
        return dist[0]
    if r_squeeze:
        return dist[:, 0]
    return dist
