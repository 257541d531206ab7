"""K-means clustering under the dot-similarity metric.

MEMHD's clustering-based initialization (Sec. III-A) runs K-means *per
class* over the encoded sample hypervectors.  The paper is explicit that the
distance metric used by the clustering must be the same dot similarity later
used for associative search, so that the resulting centroids are optimized
for the search operation the IMC array actually performs.

For unit-norm (or equal-norm bipolar) vectors, maximizing dot similarity is
equivalent to classical Euclidean K-means, but encoded hypervectors after
bundling are not equal-norm in general, so the assignment step here uses the
dot product directly.

Seeding keeps a running closest-centroid similarity, and a converged run
reuses its last similarities for the inertia.  A Lloyd step costs what its
moved samples cost: the member sums ``S`` are built once with a one-hot
product, and each later update adds ``delta @ samples[moved]`` (+1 in a
moved sample's new cluster, -1 in its old one).  Centroids are
``S_k / n_k``.

For ``{0, 1}`` samples of an integer dtype (the init rounds pass the int8
encodings and their packed words), every score that decides is an exact
integer taken from the packed words or from the member sums:

* k-means++ scores each new centroid as ``popcount(X & x_new)``, and the
  first iteration, whose centroids are samples, takes ``np.argmax`` of
  ``popcount(X & X_chosen)``: the float64 products are these integers.
* Later iterations score ``P = X . S^T``: a float32 GEMM after the first
  update (exact below ``2**24``), kept across updates by adding
  ``+-popcount(X & x_j)`` for each moved row ``j`` wherever
  :func:`_moved_rows_cheaper` rates that cheaper than the GEMM.  The native
  ``certified_argmax`` picks each row's first best ``P_k / n_k`` when its
  top two ratios are further apart than the float64 dot's error bound (see
  :func:`_certified_ratio`).  Member sums accumulate from the float32
  operand; they are integers either way.
* float64 is made only where it is read: the block's float64 copy and
  scores are built for an iteration with a row inside the bound (so exact
  ties keep float64's order), for empty-cluster re-seeding after the first
  iteration, for a cluster the re-seeding left with no members (it keeps
  its old centroid), and for :attr:`KMeansResult.inertia`, which such a
  run computes on first read.

The fitted result is bit-identical to the per-cluster formulation for
integer-valued samples, whose sums are exact integers in any order;
real-valued samples take the float64 path and agree with it to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Union

import numpy as np

from repro.hdc import _packed_kernels as _kernels
from repro.hdc.hypervector import _as_generator
from repro.hdc.packed import pack_binary, words_per_vector
from repro.hdc.similarity import dot_similarity

#: What :func:`_moved_rows_cheaper` charges a moved row per sample, in
#: multiply-adds of the float32 GEMM it would replace: a fixed cost for the
#: pair's count, its cast and its signed adds, and a cost per popcount word.
#: Fitted to native-backend timings at D = 128 and D = 8192.
_PAIR_COST = 200
_WORD_COST = 2


@dataclass
class KMeansResult:
    """Outcome of a :func:`dot_kmeans` run.

    Attributes
    ----------
    centroids:
        ``(k, D)`` float64 centroid matrix.
    assignments:
        ``(n,)`` integer cluster index per input sample.
    inertia:
        Sum over samples of the (negative) dot similarity to the assigned
        centroid; lower is better.  Kept for convergence diagnostics; a run
        on ``{0, 1}`` integer samples computes it on first read.
    iterations:
        Number of Lloyd iterations actually executed.
    converged:
        True when the assignment vector stopped changing before
        ``max_iterations`` was reached.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    _inertia: Union[float, Callable[[], float]] = field(repr=False)
    iterations: int
    converged: bool

    @property
    def inertia(self) -> float:
        if callable(self._inertia):
            self._inertia = self._inertia()
        return self._inertia

    @property
    def num_clusters(self) -> int:
        return int(self.centroids.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        """Number of samples assigned to each cluster."""
        return np.bincount(self.assignments, minlength=self.num_clusters)


def _kmeanspp_indices(
    samples: np.ndarray,
    k: int,
    rng: np.random.Generator,
    words: Optional[np.ndarray] = None,
) -> List[int]:
    """K-means++ style seeding adapted to the dot-similarity metric.

    The first centroid is a uniformly random sample; each subsequent
    centroid is drawn with probability proportional to the sample's
    "dissimilarity gap" to the closest already-chosen centroid, which spreads
    the initial centroids across the point cloud.  The closest-centroid
    similarity is kept as a running maximum, so each step scores only the
    newest centroid (``k`` similarity columns instead of ``~k^2 / 2``).
    Given the packed ``words`` of ``{0, 1}`` samples, a column is
    ``popcount(X & x_new)``: the float64 product's integers.
    """
    n = samples.shape[0]
    chosen = [int(rng.integers(0, n))]
    best = np.full(n, -np.inf)
    for _ in range(1, k):
        newest = chosen[-1]
        if words is None:
            scores = dot_similarity(samples, samples[newest : newest + 1])[:, 0]
        else:
            scores = _kernels.and_popcount(words, words[newest : newest + 1])[:, 0]
        np.maximum(best, scores, out=best)
        # Convert "most similar" into a non-negative dissimilarity weight.
        weights = best.max() - best
        total = float(weights.sum())
        if total <= 0.0:
            # All samples equally similar to the chosen set: pick uniformly.
            candidate = int(rng.integers(0, n))
        else:
            candidate = int(rng.choice(n, p=weights / total))
        chosen.append(candidate)
    return chosen


def _init_centroids_kmeanspp(
    samples: np.ndarray,
    k: int,
    rng: np.random.Generator,
    words: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The k-means++ seeds (:func:`_kmeanspp_indices`) as float64 rows."""
    return samples[_kmeanspp_indices(samples, k, rng, words)].astype(np.float64)


def _binary_integer(samples: np.ndarray) -> bool:
    """Whether ``samples`` are ``{0, 1}`` values of an integer dtype.

    Only an integer dtype is scanned (its min and max): float samples take
    the float64 path without a rescan, and so do empty ones.
    """
    if not np.issubdtype(samples.dtype, np.integer) or not samples.size:
        return False
    return bool(samples.min() >= 0 and samples.max() <= 1)


def _certified_ratio(dimension: int) -> float:
    """Ratio that certifies an exact-product pick as float64's ``argmax``.

    With ``t_k = P_k / n_k`` exact, the float64 score ``s_k = x . c_k`` of
    ``c_k = fl(S_k / n_k)`` has ``|s_k - t_k| <= gamma_D * t_k`` in any
    summation order: the products with ``x_d in {0, 1}`` are exact, and
    each term meets one division and at most ``D - 1`` additions (Higham,
    *Accuracy and Stability of Numerical Algorithms*, sec. 3.1).
    ``certified_argmax`` keeps a pick ``b`` when ``fl(P_k * n_b) <
    fl(fl(P_b * n_k) * ratio)`` for every other ``k``; its three roundings
    give ``t_k < t_b * ratio * (1 + u)**2 / (1 - u)``, so ``s_b > s_k``
    whenever ``ratio * (1 + u)**2 * (1 + gamma_D) <= (1 - gamma_D) * (1 -
    u)``.  The right side over the left's factors is at least ``1 - 2 *
    gamma_D - 3u``; the returned ratio is at most ``1 - 2 * gamma_D -
    3.5u`` after its own roundings (a test checks the inequality in exact
    rationals).
    """
    unit = 2.0**-53
    gamma = dimension * unit / (1.0 - dimension * unit)
    return 1.0 - (2.0 * gamma + 4.0 * unit) * (1.0 + 2.0**-40)


def _signed_one_hot(
    moved: np.ndarray, old: np.ndarray, new: np.ndarray, num_clusters: int, dtype
) -> np.ndarray:
    """``(k, moved)`` matrix with +1 in each moved sample's new cluster and
    -1 in its old one."""
    delta = np.zeros((num_clusters, moved.size), dtype=dtype)
    columns = np.arange(moved.size)
    delta[new[moved], columns] = 1
    delta[old[moved], columns] = -1
    return delta


def _member_sums(
    sums: Optional[np.ndarray],
    arr: np.ndarray,
    old: np.ndarray,
    new: np.ndarray,
    num_clusters: int,
) -> np.ndarray:
    """Every cluster's member sum after ``old`` assignments become ``new``.

    The first update sums every cluster with one ``(k x n)`` one-hot
    product; later ones add ``delta @ arr[moved]`` in place (see
    :func:`_signed_one_hot`).  Both run in ``arr``'s dtype; sums of integer
    samples are exact integers either way.
    """
    if sums is None:
        indicator = np.zeros((num_clusters, arr.shape[0]), dtype=arr.dtype)
        indicator[new, np.arange(arr.shape[0])] = 1
        return indicator @ arr
    moved = np.flatnonzero(old != new)
    sums += _signed_one_hot(moved, old, new, num_clusters, arr.dtype) @ arr[moved]
    return sums


def _moved_rows_cheaper(moved: int, words: int, dimension: int, k: int) -> bool:
    """Whether adding ``moved`` rows' popcount columns to ``P`` costs less
    than the ``(n, D) x (D, k)`` GEMM that recomputes it.

    Per sample, the GEMM costs ``D * k`` multiply-adds, and a moved row
    :data:`_PAIR_COST` plus :data:`_WORD_COST` per word.  With ``k = 10``,
    the update wins for up to 179 moved rows at ``D = 8192`` (128 words)
    and for up to 6 at ``D = 128`` (2 words).
    """
    return moved * (_PAIR_COST + _WORD_COST * words) < dimension * k


def _inertia(
    samples: np.ndarray,
    centroids: np.ndarray,
    assignments: np.ndarray,
    sims: Optional[np.ndarray] = None,
) -> float:
    """Negative summed dot similarity of each sample to its centroid."""
    if sims is None:
        sims = dot_similarity(samples, centroids)
    return -float(sims[np.arange(assignments.shape[0]), assignments].sum())


def _lloyd(
    samples: np.ndarray,
    words: Optional[np.ndarray],
    chosen: np.ndarray,
    max_iterations: int,
) -> KMeansResult:
    """Lloyd iterations from the seeds ``samples[chosen]``.

    ``words`` are the packed rows of ``{0, 1}`` integer samples, which are
    scored from exact integers (see the module docstring); None means
    float64 samples, scored by float64 GEMMs throughout.
    """
    n, dimension = samples.shape
    num_clusters = len(chosen)
    binary = words is not None
    rows = np.arange(n)
    centroids = samples[chosen].astype(np.float64)
    # The sums' and GEMM's operand: float32 is exact while every score (at
    # most D * n) is below 2**24.
    small = binary and samples.size < 2**24
    operand = samples.astype(np.float32 if small else np.float64, copy=False)
    wide = operand if operand.dtype == np.float64 else None

    def float64_scores() -> np.ndarray:
        nonlocal wide
        if wide is None:
            wide = samples.astype(np.float64)
        return dot_similarity(wide, centroids)

    ratio = _certified_ratio(dimension)
    # The centroids are samples: popcounts are the float64 scores exactly.
    scores = _kernels.and_popcount(words, words[chosen]) if binary else None
    assignments = np.full(n, -1, dtype=np.int64)
    sums: Optional[np.ndarray] = None
    sizes: Optional[np.ndarray] = None
    converged = False
    iterations = 0
    sims = None
    for iterations in range(1, max_iterations + 1):
        sims = new_assignments = None
        if binary and sums is None:
            new_assignments = np.argmax(scores, axis=1)
        elif binary and sizes.all():
            # A cluster the re-seeding emptied keeps a centroid that is not
            # sums / sizes: only float64 scores it.
            if scores is None:
                scores = operand @ sums.T
            new_assignments = _kernels.certified_argmax(scores, sizes, ratio)
        if new_assignments is None:
            sims = float64_scores()  # (n, k)
            new_assignments = np.argmax(sims, axis=1)
        # Re-seed empty clusters from the least-well-represented samples so
        # that every initial class vector covers part of the point cloud.
        counts = np.bincount(new_assignments, minlength=num_clusters)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            if sims is None:
                sims = scores.astype(np.float64) if sums is None else float64_scores()
            best = sims[rows, new_assignments]
            worst_samples = np.argsort(best)[: empty.size]
            for cluster, sample in zip(empty, worst_samples):
                new_assignments[sample] = cluster
        if np.array_equal(new_assignments, assignments):
            converged = True
            break
        # Keep P = X . S^T through the update where that is cheaper.
        moved = np.flatnonzero(assignments != new_assignments)
        if sums is None or scores is None or not _moved_rows_cheaper(
            moved.size, words.shape[1], dimension, num_clusters
        ):
            scores = None
        else:
            delta = _signed_one_hot(
                moved, assignments, new_assignments, num_clusters, scores.dtype
            )
            pairs = _kernels.and_popcount(words, words[moved])
            scores += pairs.astype(scores.dtype) @ delta.T
        sums = _member_sums(sums, operand, assignments, new_assignments, num_clusters)
        assignments = new_assignments
        sizes = np.bincount(assignments, minlength=num_clusters)
        filled = sizes > 0
        centroids[filled] = sums[filled] / sizes[filled, None]

    # Unless converged, the last Lloyd step moved the centroids after they
    # were scored.  A binary run's inertia waits for its first read and
    # keeps no float64 copy of the samples.
    last = sims if converged else None
    inertia = partial(_inertia, samples, centroids, assignments, last)
    return KMeansResult(
        centroids, assignments, inertia if binary else inertia(), iterations, converged
    )


def dot_kmeans(
    samples: np.ndarray,
    num_clusters: int,
    max_iterations: int = 50,
    rng: Optional[Union[int, np.random.Generator]] = None,
    init: str = "kmeans++",
    words: Optional[np.ndarray] = None,
) -> KMeansResult:
    """Lloyd-style K-means using dot similarity for the assignment step.

    Parameters
    ----------
    samples:
        ``(n, D)`` array of (encoded) sample hypervectors.
    num_clusters:
        Number of clusters ``k``; must satisfy ``1 <= k <= n``.
    max_iterations:
        Maximum number of Lloyd iterations.
    rng:
        Seed or generator controlling the initialization and empty-cluster
        re-seeding.
    init:
        ``"kmeans++"`` (default) or ``"random"`` (uniform sample choice).
    words:
        For ``{0, 1}`` samples of an integer dtype, their packed ``(n, W)``
        uint64 rows (``pack_binary(samples).words``), so a caller that
        clusters one block repeatedly packs it once; packed here when
        omitted, ignored for other samples.

    Returns
    -------
    KMeansResult
    """
    raw = np.asarray(samples)
    if raw.ndim != 2:
        raise ValueError("samples must be a 2-D array")
    n = raw.shape[0]
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    if num_clusters > n:
        raise ValueError(
            f"num_clusters ({num_clusters}) cannot exceed the number of "
            f"samples ({n})"
        )
    gen = _as_generator(rng)
    binary = _binary_integer(raw)
    arr = raw if binary else np.asarray(raw, dtype=np.float64)

    if num_clusters == 1:
        centroid = arr.mean(axis=0, dtype=np.float64, keepdims=True)
        assignments = np.zeros(n, dtype=np.int64)
        inertia = partial(_inertia, arr, centroid, assignments)
        return KMeansResult(
            centroid, assignments, inertia if binary else inertia(), 0, True
        )

    if binary and words is None:
        words = pack_binary(raw, validate=False).words
    elif binary and words.shape != (n, words_per_vector(raw.shape[1])):
        raise ValueError(
            f"words of shape {words.shape} do not pack samples of shape {raw.shape}"
        )
    if init == "kmeans++":
        seeds = _kmeanspp_indices(arr, num_clusters, gen, words if binary else None)
        chosen = np.asarray(seeds)
    elif init == "random":
        chosen = gen.choice(n, size=num_clusters, replace=False)
    else:
        raise ValueError(f"unknown init method: {init!r}")

    return _lloyd(arr, words if binary else None, chosen, max_iterations)
