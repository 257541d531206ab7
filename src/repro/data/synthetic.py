"""Synthetic multi-modal classification workload generators.

The evaluation datasets of the paper (MNIST, FMNIST, ISOLET) are not
shippable offline, so the benchmarks run on synthetic surrogates produced
here.  The generators are designed around the property the paper's
contribution exploits: *classes are multi-modal in feature space*, i.e. a
single prototype per class under-fits while a handful of per-class centroids
captures the class well.  Each synthetic class is therefore a mixture of
several Gaussian "modes" living on a low-dimensional latent manifold that is
randomly embedded into the full feature space, which also gives the data the
strong feature correlations image/speech data exhibit.

Determinism: every function takes a seed (or generator) and the same seed
always produces bit-identical data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.hdc.hypervector import _as_generator


@dataclass(frozen=True)
class SyntheticSpec:
    """Specification of a synthetic multi-modal classification dataset.

    Attributes
    ----------
    num_classes:
        Number of classes ``k``.
    num_features:
        Feature dimensionality ``f`` of the generated samples.
    train_per_class / test_per_class:
        Samples generated per class for the train and test splits.
    modes_per_class:
        Number of Gaussian modes composing each class.  Values above 1 make
        the workload favour multi-centroid associative memories.
    latent_dim:
        Dimensionality of the latent manifold the modes live on before the
        random embedding into ``num_features`` dimensions.
    class_separation:
        Distance scale between mode centers in latent space (relative to the
        unit within-mode standard deviation).  Larger values make the task
        easier.
    mode_spread:
        Distance scale between the modes of one class in ``"compact"``
        assignment mode, relative to ``class_separation``.
    noise_scale:
        Standard deviation of the isotropic observation noise added in the
        full feature space.
    mode_assignment:
        ``"interleaved"`` (default): all ``k * modes_per_class`` mode
        centers are drawn from one common pool and dealt out to classes at
        random, so a class is a union of *distant* clusters interleaved with
        other classes' clusters -- the regime where a single prototype per
        class underfits and a multi-centroid AM wins (the paper's premise).
        ``"compact"``: each class has one center and its modes are small
        offsets around it, giving nearly unimodal, linearly separable
        classes.
    """

    num_classes: int = 10
    num_features: int = 64
    train_per_class: int = 100
    test_per_class: int = 30
    modes_per_class: int = 3
    latent_dim: int = 16
    class_separation: float = 4.0
    mode_spread: float = 1.6
    noise_scale: float = 0.25
    mode_assignment: str = "interleaved"

    def __post_init__(self) -> None:
        if self.mode_assignment not in ("interleaved", "compact"):
            raise ValueError(
                "mode_assignment must be 'interleaved' or 'compact', "
                f"got {self.mode_assignment!r}"
            )
        for name in (
            "num_classes",
            "num_features",
            "train_per_class",
            "test_per_class",
            "modes_per_class",
            "latent_dim",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("class_separation", "mode_spread", "noise_scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _sample_modes(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw per-class mode centers in latent space.

    Returns ``mode_centers`` with shape ``(k, modes_per_class, latent_dim)``.
    In ``"interleaved"`` mode the centers of all classes come from a single
    pool and are dealt out at random (classes are unions of distant
    clusters); in ``"compact"`` mode each class has one center with small
    per-mode offsets.
    """
    if spec.mode_assignment == "interleaved":
        total_modes = spec.num_classes * spec.modes_per_class
        pool = rng.normal(
            0.0, spec.class_separation, size=(total_modes, spec.latent_dim)
        )
        order = rng.permutation(total_modes)
        return pool[order].reshape(
            spec.num_classes, spec.modes_per_class, spec.latent_dim
        )
    class_centers = rng.normal(
        0.0, spec.class_separation, size=(spec.num_classes, spec.latent_dim)
    )
    mode_offsets = rng.normal(
        0.0,
        spec.mode_spread,
        size=(spec.num_classes, spec.modes_per_class, spec.latent_dim),
    )
    return class_centers[:, None, :] + mode_offsets


def _generate_split(
    spec: SyntheticSpec,
    mode_centers: np.ndarray,
    embedding: np.ndarray,
    offset: np.ndarray,
    samples_per_class: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate one split by sampling modes, embedding, and adding noise.

    Each class block is computed in its rows of the split, so besides the
    split the only working set is one class block of noise.
    """
    features = np.empty(
        (spec.num_classes * samples_per_class, spec.num_features), dtype=np.float64
    )
    labels = np.empty(spec.num_classes * samples_per_class, dtype=np.int64)
    row = 0
    for class_index in range(spec.num_classes):
        modes = rng.integers(0, spec.modes_per_class, size=samples_per_class)
        latent = mode_centers[class_index, modes] + rng.normal(
            0.0, 1.0, size=(samples_per_class, spec.latent_dim)
        )
        observed = features[row : row + samples_per_class]
        np.matmul(latent, embedding, out=observed)
        observed += offset
        observed += rng.normal(0.0, spec.noise_scale, size=observed.shape)
        labels[row : row + samples_per_class] = class_index
        row += samples_per_class
    return features, labels


def make_multimodal_classification(
    spec: SyntheticSpec,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generate a multi-modal classification dataset from a spec.

    Returns
    -------
    tuple
        ``(train_x, train_y, test_x, test_y)``.  Features are scaled into
        ``[0, 1]`` per feature (min-max over the union of both splits) so
        downstream encoders can assume a normalized value range.
    """
    gen = _as_generator(rng)
    mode_centers = _sample_modes(spec, gen)
    # Random orthogonal-ish embedding of the latent manifold into feature
    # space; correlated columns mimic the pixel correlations of image data.
    embedding = gen.normal(
        0.0, 1.0 / np.sqrt(spec.latent_dim), size=(spec.latent_dim, spec.num_features)
    )
    offset = gen.normal(0.0, 0.5, size=spec.num_features)
    train_x, train_y = _generate_split(
        spec, mode_centers, embedding, offset, spec.train_per_class, gen
    )
    test_x, test_y = _generate_split(
        spec, mode_centers, embedding, offset, spec.test_per_class, gen
    )

    # Joint min-max normalization into [0, 1], in place: the extremes of
    # the union are the extremes of the per-split extremes.
    low = np.minimum(train_x.min(axis=0), test_x.min(axis=0))
    high = np.maximum(train_x.max(axis=0), test_x.max(axis=0))
    span = np.where(high > low, high - low, 1.0)
    for split in (train_x, test_x):
        split -= low
        split /= span

    # Shuffle within each split so class blocks are not contiguous.
    train_order = gen.permutation(train_x.shape[0])
    test_order = gen.permutation(test_x.shape[0])
    _permute_rows(train_x, train_order)
    _permute_rows(test_x, test_order)
    return train_x, train_y[train_order], test_x, test_y[test_order]


def _permute_rows(array: np.ndarray, order: np.ndarray) -> None:
    """Reorder the rows of ``array`` in place to ``array[order]``.

    Follows each cycle of the permutation ``order`` with one row held
    aside, so the shuffle needs one row of scratch, not a copy of the
    array.
    """
    order = order.tolist()
    done = bytearray(len(order))
    held = np.empty(array.shape[1:], dtype=array.dtype)
    for start, source in enumerate(order):
        if done[start]:
            continue
        done[start] = 1
        if source == start:
            continue
        held[...] = array[start]
        target = start
        while source != start:
            array[target] = array[source]
            done[source] = 1
            target, source = source, order[source]
        array[target] = held


def make_synthetic_dataset(
    name: str,
    spec: SyntheticSpec,
    rng: Optional[Union[int, np.random.Generator]] = None,
):
    """Build a named :class:`repro.data.datasets.Dataset` from a spec."""
    from repro.data.datasets import Dataset  # local import to avoid a cycle

    train_x, train_y, test_x, test_y = make_multimodal_classification(spec, rng)
    return Dataset(
        name=name,
        train_features=train_x,
        train_labels=train_y,
        test_features=test_x,
        test_labels=test_y,
        synthetic=True,
    )
