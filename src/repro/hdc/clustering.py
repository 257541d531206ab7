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

Seeding keeps a running closest-centroid similarity, the Lloyd update
sums every cluster's members with one indicator-matrix product, and a
converged run reuses its last similarities for the inertia.  Each of these
is exact for integer-valued samples (every in-repo caller clusters
``{0, 1}`` encodings), where all sums are exact integers whatever their
order; real-valued samples agree with the per-cluster formulation to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

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

    assignments = np.full(n, -1, dtype=np.int64)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        sims = dot_similarity(arr, centroids)  # (n, k)
        new_assignments = np.argmax(sims, axis=1)
        # Re-seed empty clusters from the least-well-represented samples so
        # that every initial class vector covers part of the point cloud.
        counts = np.bincount(new_assignments, minlength=num_clusters)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            best = sims[np.arange(n), new_assignments]
            worst_samples = np.argsort(best)[: empty.size]
            for cluster, sample in zip(empty, worst_samples):
                new_assignments[sample] = cluster
        if np.array_equal(new_assignments, assignments):
            converged = True
            break
        assignments = new_assignments
        # Every cluster's member sum in one (k x n) indicator GEMM (exact
        # for integer-valued samples); a cluster the re-seeding emptied
        # keeps its centroid.
        indicator = np.zeros((num_clusters, n))
        indicator[assignments, np.arange(n)] = 1.0
        sizes = np.bincount(assignments, minlength=num_clusters)
        filled = sizes > 0
        centroids[filled] = (indicator @ arr)[filled] / sizes[filled, None]

    if not converged:
        # The last Lloyd step moved the centroids after they were scored.
        sims = dot_similarity(arr, centroids)
    inertia = -float(sims[np.arange(n), assignments].sum())
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
