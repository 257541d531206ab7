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
encodings), the assignment comes from the exact integer products ``P =
X . S^T`` (a float32 GEMM, exact below ``2**24``): the native
``certified_argmax`` picks each row's first best ``P_k / n_k`` when its
top two ratios are further apart than the float64 dot's error bound (see
:func:`_certified_ratio`), and the first iteration, whose centroids are
samples, needs no bound.  Everything else uses the float64 scores and
``np.argmax`` as before: an iteration with a row inside the bound (so
exact ties keep float64's order), empty-cluster re-seeding, a cluster the
re-seeding left with no members (it keeps its old centroid) and the final
inertia.  The fitted result is bit-identical to the per-cluster
formulation for integer-valued samples, whose sums are exact integers in
any order; real-valued samples agree with it to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.hdc import _packed_kernels as _kernels
from repro.hdc.hypervector import _as_generator
from repro.hdc.similarity import dot_similarity


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
        centroid; lower is better.  Kept for convergence diagnostics.
    iterations:
        Number of Lloyd iterations actually executed.
    converged:
        True when the assignment vector stopped changing before
        ``max_iterations`` was reached.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations: int
    converged: bool

    @property
    def num_clusters(self) -> int:
        return int(self.centroids.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        """Number of samples assigned to each cluster."""
        return np.bincount(self.assignments, minlength=self.num_clusters)


def _init_centroids_kmeanspp(
    samples: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """K-means++ style seeding adapted to the dot-similarity metric.

    The first centroid is a uniformly random sample; each subsequent
    centroid is drawn with probability proportional to the sample's
    "dissimilarity gap" to the closest already-chosen centroid, which spreads
    the initial centroids across the point cloud.  The closest-centroid
    similarity is kept as a running maximum, so each step scores only the
    newest centroid (``k`` similarity columns instead of ``~k^2 / 2``).
    """
    n = samples.shape[0]
    chosen = [int(rng.integers(0, n))]
    best = np.full(n, -np.inf)
    for _ in range(1, k):
        newest = samples[chosen[-1] : chosen[-1] + 1]
        np.maximum(best, dot_similarity(samples, newest)[:, 0], out=best)
        # Convert "most similar" into a non-negative dissimilarity weight.
        weights = best.max() - best
        total = float(weights.sum())
        if total <= 0.0:
            # All samples equally similar to the chosen set: pick uniformly.
            candidate = int(rng.integers(0, n))
        else:
            candidate = int(rng.choice(n, p=weights / total))
        chosen.append(candidate)
    return samples[chosen].astype(np.float64).copy()


def _exact_operand(samples: np.ndarray, arr: np.ndarray) -> Optional[np.ndarray]:
    """``{0, 1}`` integer samples in the dtype whose GEMM against the member
    sums is exact; None for any other samples.

    Every score ``x . S_k`` is an integer at most ``D * n``, and so is every
    partial sum, so float32 is exact while ``D * n < 2**24``; beyond that
    the float64 ``arr`` is exact.  Only an integer dtype is checked (by its
    min and max): float samples take the float64 path without a rescan.
    """
    raw = np.asarray(samples)
    if not np.issubdtype(raw.dtype, np.integer):
        return None
    if raw.size and (raw.min() < 0 or raw.max() > 1):
        return None
    return raw.astype(np.float32) if raw.size < 2**24 else arr


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


def _exact_assignment(
    exact: np.ndarray,
    centroids: np.ndarray,
    sums: Optional[np.ndarray],
    sizes: Optional[np.ndarray],
    ratio: float,
) -> Optional[np.ndarray]:
    """float64's ``argmax`` of the scores, from exact integer products.

    Before the first update (``sums`` None) the centroids are samples, so
    the float64 scores are the exact products and decide directly.  After
    it, ``P = X . S^T`` scores ``P_k / n_k``, decided only when every row
    is certified; None asks for the float64 scores.
    """
    if sums is None:
        return np.argmax(exact @ centroids.astype(exact.dtype, copy=False).T, axis=1)
    products = exact @ sums.astype(exact.dtype, copy=False).T
    return _kernels.certified_argmax(products, sizes, ratio)


def _member_sums(
    sums: Optional[np.ndarray],
    arr: np.ndarray,
    old: np.ndarray,
    new: np.ndarray,
    num_clusters: int,
) -> np.ndarray:
    """Every cluster's member sum after ``old`` assignments become ``new``.

    The first update sums every cluster with one ``(k x n)`` one-hot
    product; later ones add ``delta @ arr[moved]`` in place, with ``delta``
    +1 in each moved sample's new cluster and -1 in its old one.  Sums of
    integer samples are exact integers either way.
    """
    if sums is None:
        indicator = np.zeros((num_clusters, arr.shape[0]))
        indicator[new, np.arange(arr.shape[0])] = 1.0
        return indicator @ arr
    moved = np.flatnonzero(old != new)
    delta = np.zeros((num_clusters, moved.size))
    columns = np.arange(moved.size)
    delta[new[moved], columns] = 1.0
    delta[old[moved], columns] = -1.0
    sums += delta @ arr[moved]
    return sums


def dot_kmeans(
    samples: np.ndarray,
    num_clusters: int,
    max_iterations: int = 50,
    rng: Optional[Union[int, np.random.Generator]] = None,
    init: str = "kmeans++",
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

    Returns
    -------
    KMeansResult
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("samples must be a 2-D array")
    n = arr.shape[0]
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    if num_clusters > n:
        raise ValueError(
            f"num_clusters ({num_clusters}) cannot exceed the number of "
            f"samples ({n})"
        )
    gen = _as_generator(rng)

    if num_clusters == 1:
        centroid = arr.mean(axis=0, keepdims=True)
        assignments = np.zeros(n, dtype=np.int64)
        inertia = -float(dot_similarity(arr, centroid).sum())
        return KMeansResult(centroid, assignments, inertia, 0, True)

    if init == "kmeans++":
        centroids = _init_centroids_kmeanspp(arr, num_clusters, gen)
    elif init == "random":
        indices = gen.choice(n, size=num_clusters, replace=False)
        centroids = arr[indices].astype(np.float64).copy()
    else:
        raise ValueError(f"unknown init method: {init!r}")

    exact = _exact_operand(samples, arr)
    ratio = _certified_ratio(arr.shape[1])
    rows = np.arange(n)
    assignments = np.full(n, -1, dtype=np.int64)
    sums: Optional[np.ndarray] = None
    sizes: Optional[np.ndarray] = None
    converged = False
    iterations = 0
    sims = None
    for iterations in range(1, max_iterations + 1):
        sims = new_assignments = None
        # A cluster the re-seeding emptied keeps a centroid that is not
        # sums / sizes: only float64 scores it.
        if exact is not None and (sizes is None or sizes.all()):
            new_assignments = _exact_assignment(exact, centroids, sums, sizes, ratio)
        if new_assignments is None:
            sims = dot_similarity(arr, centroids)  # (n, k)
            new_assignments = np.argmax(sims, axis=1)
        # Re-seed empty clusters from the least-well-represented samples so
        # that every initial class vector covers part of the point cloud.
        counts = np.bincount(new_assignments, minlength=num_clusters)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            if sims is None:
                sims = dot_similarity(arr, centroids)
            best = sims[rows, new_assignments]
            worst_samples = np.argsort(best)[: empty.size]
            for cluster, sample in zip(empty, worst_samples):
                new_assignments[sample] = cluster
        if np.array_equal(new_assignments, assignments):
            converged = True
            break
        sums = _member_sums(sums, arr, assignments, new_assignments, num_clusters)
        assignments = new_assignments
        sizes = np.bincount(assignments, minlength=num_clusters)
        filled = sizes > 0
        centroids[filled] = sums[filled] / sizes[filled, None]

    if sims is None or not converged:
        # The last Lloyd step moved the centroids after they were scored,
        # or a certified assignment scored them without float64.
        sims = dot_similarity(arr, centroids)
    inertia = -float(sims[rows, assignments].sum())
    return KMeansResult(centroids, assignments, inertia, iterations, converged)


def classwise_clustering(
    samples: np.ndarray,
    labels: np.ndarray,
    clusters_per_class: Union[int, Sequence[int], Dict[int, int]],
    max_iterations: int = 50,
    rng: Optional[Union[int, np.random.Generator]] = None,
    init: str = "kmeans++",
) -> Dict[int, KMeansResult]:
    """Run :func:`dot_kmeans` independently on each class.

    Parameters
    ----------
    samples:
        ``(n, D)`` encoded sample hypervectors.
    labels:
        ``(n,)`` integer class labels.
    clusters_per_class:
        Either a single integer applied to every class, a sequence indexed
        by class id, or an explicit ``{class: k}`` mapping.  A requested
        cluster count larger than the number of class samples is clipped.
    rng:
        Seed or generator; each class gets an independent child stream.

    Returns
    -------
    dict
        ``{class_label: KMeansResult}`` for every class present in
        ``labels``.
    """
    arr = np.asarray(samples, dtype=np.float64)
    lab = np.asarray(labels)
    if arr.shape[0] != lab.shape[0]:
        raise ValueError("samples and labels must have the same length")
    gen = _as_generator(rng)
    classes = np.unique(lab)

    def clusters_for(class_label: int) -> int:
        if isinstance(clusters_per_class, dict):
            return int(clusters_per_class[class_label])
        if isinstance(clusters_per_class, (list, tuple, np.ndarray)):
            return int(clusters_per_class[int(class_label)])
        return int(clusters_per_class)

    results: Dict[int, KMeansResult] = {}
    for class_label in classes:
        class_samples = arr[lab == class_label]
        requested = clusters_for(int(class_label))
        k = max(1, min(requested, class_samples.shape[0]))
        child = np.random.default_rng(gen.integers(0, 2**63 - 1))
        results[int(class_label)] = dot_kmeans(
            class_samples, k, max_iterations=max_iterations, rng=child, init=init
        )
    return results
