"""Multi-centroid AM initialization (paper Sec. III-A).

Two initializers are provided:

``clustering_initialization``
    The paper's method.  A fraction ``R`` of the ``C`` available columns is
    assigned up front by running dot-similarity K-means *per class* over the
    encoded training hypervectors (Sec. III-A-1).  The remaining
    ``C * (1 - R)`` columns are then handed out over several validation
    rounds: the current (quantized) AM is evaluated on the whole training
    set, a confusion matrix is computed, and classes with more
    misclassifications receive additional centroids before being
    re-clustered (Sec. III-A-2).  The loop ends when every column is in
    use, i.e. the IMC array is fully utilized.

``random_sampling_initialization``
    The baseline initializer the paper compares against in Fig. 5: columns
    are split evenly across classes and each initial class vector is a
    randomly chosen sample hypervector of that class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.associative_memory import MultiCentroidAM
from repro.core.training import pack_encodings
from repro.eval.metrics import misclassification_counts
from repro.hdc.clustering import dot_kmeans
from repro.hdc.hypervector import _as_generator
from repro.hdc.packed import PackedVectors


@dataclass
class InitializationResult:
    """Outcome of an AM initialization.

    Attributes
    ----------
    fp_memory:
        ``(C, D)`` floating-point initial class-vector matrix.
    column_classes:
        ``(C,)`` class label of every AM row.
    clusters_per_class:
        Final number of centroids allocated to each class.
    method:
        ``"clustering"`` or ``"random"``.
    allocation_rounds:
        One record per validation round of the cluster-allocation loop
        (empty for random initialization or when ``R == 1``).  Each record
        stores the number of columns that were still unallocated at the
        start of the round and the per-class misclassification counts that
        drove the allocation.
    padded_columns:
        Number of columns that could not be backed by distinct training
        samples (tiny datasets) and were filled with perturbed copies of
        existing centroids to preserve full utilization.
    """

    fp_memory: np.ndarray
    column_classes: np.ndarray
    clusters_per_class: Dict[int, int]
    method: str
    allocation_rounds: List[Dict[str, object]] = field(default_factory=list)
    padded_columns: int = 0

    @property
    def num_columns(self) -> int:
        return int(self.fp_memory.shape[0])


def initial_clusters_per_class(columns: int, num_classes: int, ratio: float) -> int:
    """Initial per-class cluster count ``n = max(1, floor(C * R / k))``."""
    if columns < num_classes:
        raise ValueError("columns must be at least num_classes")
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio (R) must be in (0, 1]")
    return max(1, int(np.floor(columns * ratio / num_classes)))


def _cluster_class(
    samples: np.ndarray,
    words: np.ndarray,
    requested: int,
    max_iterations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Class vectors for one class; clips the request to the sample count.

    ``words`` are the class's packed rows, shared by every run on it.

    Each returned row is the *sum* of the hypervectors assigned to that
    cluster (centroid scaled by the cluster size), matching classical HDC
    class-vector construction where class vectors accumulate sample
    hypervectors.  The scaling does not change the binarized pattern (row
    normalization removes it) but it keeps the Eq. (6) updates -- whose
    magnitude is ``learning_rate * H`` -- small relative to the memory, so
    the paper's 0.01--0.1 learning-rate range trains stably.
    """
    k = max(1, min(requested, samples.shape[0]))
    result = dot_kmeans(samples, k, max_iterations=max_iterations, rng=rng, words=words)
    sizes = np.maximum(result.cluster_sizes(), 1)
    return result.centroids * sizes[:, None]


def _assemble(
    centroids_by_class: Dict[int, np.ndarray], num_classes: int
) -> tuple:
    """Stack per-class centroid blocks into (fp_memory, column_classes)."""
    blocks = []
    labels = []
    for class_label in range(num_classes):
        block = centroids_by_class[class_label]
        blocks.append(block)
        labels.append(np.full(block.shape[0], class_label, dtype=np.int64))
    return np.vstack(blocks), np.concatenate(labels)


def _pad_to_full_utilization(
    centroids_by_class: Dict[int, np.ndarray],
    deficit: int,
    num_classes: int,
    rng: np.random.Generator,
) -> int:
    """Fill columns that no distinct sample can back with perturbed copies.

    Only triggers for datasets so small that the requested ``C`` exceeds the
    total number of training samples; full utilization of the IMC array is
    preserved by duplicating existing centroids with a small perturbation,
    distributed round-robin across classes.
    """
    padded = 0
    class_cycle = list(range(num_classes))
    position = 0
    while padded < deficit:
        class_label = class_cycle[position % num_classes]
        position += 1
        block = centroids_by_class[class_label]
        source = block[int(rng.integers(0, block.shape[0]))]
        noise = rng.normal(0.0, 1e-3, size=source.shape)
        centroids_by_class[class_label] = np.vstack([block, source + noise])
        padded += 1
    return padded


def clustering_initialization(
    encoded: np.ndarray,
    labels: np.ndarray,
    columns: int,
    num_classes: int,
    cluster_ratio: float = 0.8,
    kmeans_iterations: int = 25,
    allocation_rounds: int = 4,
    threshold_mode: str = "global-mean",
    normalization: str = "zscore",
    rng: Optional[Union[int, np.random.Generator]] = None,
    packed: Optional[PackedVectors] = None,
) -> InitializationResult:
    """Clustering-based initialization with confusion-matrix allocation.

    Parameters
    ----------
    encoded:
        ``(n, D)`` encoded training hypervectors (binary ``{0, 1}``, any
        dtype); other values raise :class:`ValueError`.
    labels:
        ``(n,)`` integer class labels.
    columns:
        Total AM columns ``C`` (the IMC array's column count).
    num_classes:
        Number of classes ``k``.
    cluster_ratio:
        The paper's ``R``: fraction of columns assigned by the initial
        class-wise clustering.
    kmeans_iterations:
        Lloyd iteration budget per K-means run.
    allocation_rounds:
        Maximum validation rounds used to hand out the remaining columns;
        the final round always allocates everything left so the AM ends
        fully utilized.
    threshold_mode / normalization:
        Quantization settings used for the validation passes (they should
        match the downstream model so allocation optimizes the memory that
        will actually be deployed).
    rng:
        Seed or generator.
    packed:
        ``pack_encodings(encoded)``, when the caller already has it: used
        instead of checking and packing ``encoded`` again.
    """
    samples = np.asarray(encoded)
    y = np.asarray(labels, dtype=np.int64)
    if samples.ndim != 2:
        raise ValueError("encoded must be a 2-D array")
    if samples.shape[0] != y.shape[0]:
        raise ValueError("encoded and labels must have the same length")
    if columns < num_classes:
        raise ValueError("columns must be >= num_classes")
    # Packed once: the contract check, every validation round's queries and
    # every k-means run's words.
    packed_samples = pack_encodings(samples) if packed is None else packed
    if packed_samples.words.shape[0] != samples.shape[0]:
        raise ValueError("packed and encoded must hold the same samples")
    # Checked {0, 1}: int8 class blocks take dot_kmeans's exact path.
    samples = samples.astype(np.int8, copy=False)
    present = np.unique(y)
    if present.size != num_classes or present.min() != 0 or present.max() != num_classes - 1:
        missing = sorted(set(range(num_classes)) - set(int(c) for c in present))
        if missing:
            raise ValueError(f"training data is missing classes: {missing}")
    gen = _as_generator(rng)

    class_samples = {}
    class_words = {}
    for class_label in range(num_classes):
        members = y == class_label
        class_samples[class_label] = samples[members]
        class_words[class_label] = packed_samples.words[members]
    class_counts = {label: block.shape[0] for label, block in class_samples.items()}

    # --- Phase 1: class-wise clustering of the first C * R columns.
    per_class = initial_clusters_per_class(columns, num_classes, cluster_ratio)
    allocation = {label: per_class for label in range(num_classes)}
    centroids_by_class: Dict[int, np.ndarray] = {}
    for class_label in range(num_classes):
        child = np.random.default_rng(gen.integers(0, 2**63 - 1))
        centroids_by_class[class_label] = _cluster_class(
            class_samples[class_label], class_words[class_label],
            allocation[class_label], kmeans_iterations, child,
        )

    rounds: List[Dict[str, object]] = []
    used = sum(block.shape[0] for block in centroids_by_class.values())
    remaining = columns - used

    # --- Phase 2: confusion-matrix-driven allocation of the remaining columns.
    round_index = 0
    while remaining > 0 and round_index < allocation_rounds:
        round_index += 1
        rounds_left = allocation_rounds - round_index + 1
        batch = remaining if rounds_left == 1 else max(1, int(np.ceil(remaining / rounds_left)))

        fp_memory, column_classes = _assemble(centroids_by_class, num_classes)
        am = MultiCentroidAM(
            fp_memory,
            column_classes,
            num_classes=num_classes,
            threshold_mode=threshold_mode,
            normalization=normalization,
        )
        predictions = am.predict(packed_samples, packed=True)
        wrong = misclassification_counts(predictions, y, num_classes)

        # Distribute the batch proportionally to misclassification counts,
        # skipping classes that cannot support more distinct centroids.
        capacity = np.array(
            [
                max(0, class_counts[label] - centroids_by_class[label].shape[0])
                for label in range(num_classes)
            ],
            dtype=np.int64,
        )
        weights = wrong.astype(np.float64) + 1e-9
        weights[capacity == 0] = 0.0
        granted = np.zeros(num_classes, dtype=np.int64)
        if weights.sum() > 0:
            ideal = weights / weights.sum() * batch
            granted = np.minimum(np.floor(ideal).astype(np.int64), capacity)
            # Hand out any left-over columns one at a time to the classes
            # with the largest fractional remainder that still have capacity.
            leftover = batch - int(granted.sum())
            if leftover > 0:
                order = np.argsort(-(ideal - granted))
                for class_label in order:
                    if leftover == 0:
                        break
                    if granted[class_label] < capacity[class_label]:
                        granted[class_label] += 1
                        leftover -= 1

        if granted.sum() == 0:
            # No class can absorb more distinct centroids; stop allocating.
            rounds.append(
                {
                    "remaining_before": int(remaining),
                    "misclassified": wrong.tolist(),
                    "granted": granted.tolist(),
                }
            )
            break

        for class_label in np.flatnonzero(granted):
            allocation[class_label] = (
                centroids_by_class[class_label].shape[0] + int(granted[class_label])
            )
            child = np.random.default_rng(gen.integers(0, 2**63 - 1))
            centroids_by_class[class_label] = _cluster_class(
                class_samples[class_label],
                class_words[class_label],
                allocation[class_label],
                kmeans_iterations,
                child,
            )

        rounds.append(
            {
                "remaining_before": int(remaining),
                "misclassified": wrong.tolist(),
                "granted": granted.tolist(),
            }
        )
        used = sum(block.shape[0] for block in centroids_by_class.values())
        remaining = columns - used

    # --- Phase 3: guarantee full utilization even for tiny datasets.
    padded = 0
    used = sum(block.shape[0] for block in centroids_by_class.values())
    if used < columns:
        padded = _pad_to_full_utilization(
            centroids_by_class, columns - used, num_classes, gen
        )

    fp_memory, column_classes = _assemble(centroids_by_class, num_classes)
    clusters_per_class = {
        label: int(block.shape[0]) for label, block in centroids_by_class.items()
    }
    return InitializationResult(
        fp_memory=fp_memory,
        column_classes=column_classes,
        clusters_per_class=clusters_per_class,
        method="clustering",
        allocation_rounds=rounds,
        padded_columns=padded,
    )


def random_sampling_initialization(
    encoded: np.ndarray,
    labels: np.ndarray,
    columns: int,
    num_classes: int,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> InitializationResult:
    """Random-sampling initialization (the Fig. 5 baseline).

    Columns are split as evenly as possible across classes and each initial
    class vector is a training hypervector drawn uniformly at random from
    that class (with replacement when a class owns fewer samples than
    columns).
    """
    samples = np.asarray(encoded, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if samples.shape[0] != y.shape[0]:
        raise ValueError("encoded and labels must have the same length")
    if columns < num_classes:
        raise ValueError("columns must be >= num_classes")
    gen = _as_generator(rng)

    base = columns // num_classes
    extra = columns - base * num_classes
    centroids_by_class: Dict[int, np.ndarray] = {}
    for class_label in range(num_classes):
        count = base + (1 if class_label < extra else 0)
        members = samples[y == class_label]
        if members.shape[0] == 0:
            raise ValueError(f"class {class_label} has no training samples")
        replace = members.shape[0] < count
        chosen = gen.choice(members.shape[0], size=count, replace=replace)
        centroids_by_class[class_label] = members[chosen].astype(np.float64)

    fp_memory, column_classes = _assemble(centroids_by_class, num_classes)
    clusters_per_class = {
        label: int(block.shape[0]) for label, block in centroids_by_class.items()
    }
    return InitializationResult(
        fp_memory=fp_memory,
        column_classes=column_classes,
        clusters_per_class=clusters_per_class,
        method="random",
    )
