"""Dataset container and named dataset loaders.

The paper's three evaluation workloads are exposed here by name:

``"mnist"``
    784 features, 10 classes, ~6000 training samples per class.
``"fmnist"``
    784 features, 10 classes, ~6000 training samples per class.
``"isolet"``
    617 features, 26 classes, ~240 training samples per class (the small
    per-class budget is what drives the column-count overfitting effect the
    paper reports in Fig. 4).

Because the repository must run offline, :func:`load_dataset` generates a
synthetic surrogate with the same structural profile by default (see the
README's "Datasets: synthetic surrogates" section).  If a file
``<data_dir>/<name>.npz`` exists with arrays ``train_x, train_y, test_x,
test_y`` it is loaded instead, so dropping in the real datasets
transparently upgrades every benchmark.

A ``scale`` parameter shrinks the per-class sample budget proportionally so
that the full benchmark suite completes in minutes on a laptop; the feature
and class counts are never scaled because the memory model (Table I) and IMC
mapping (Table II) depend on them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.data.synthetic import SyntheticSpec, make_multimodal_classification
from repro.hdc.hypervector import _as_generator


@dataclass
class Dataset:
    """A supervised classification dataset with a train and test split.

    Attributes
    ----------
    name:
        Dataset identifier (``"mnist"``, ``"fmnist"``, ``"isolet"`` or a
        custom name).
    train_features / test_features:
        ``(n, f)`` float arrays with values normalized into ``[0, 1]``.
    train_labels / test_labels:
        ``(n,)`` integer class labels in ``[0, num_classes)``.
    synthetic:
        True when the data came from the synthetic generator rather than a
        real dataset file.
    """

    name: str
    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    synthetic: bool = True

    def __post_init__(self) -> None:
        self.train_features = np.asarray(self.train_features, dtype=np.float64)
        self.test_features = np.asarray(self.test_features, dtype=np.float64)
        self.train_labels = np.asarray(self.train_labels, dtype=np.int64)
        self.test_labels = np.asarray(self.test_labels, dtype=np.int64)
        if self.train_features.ndim != 2 or self.test_features.ndim != 2:
            raise ValueError("features must be 2-D arrays")
        if self.train_features.shape[0] != self.train_labels.shape[0]:
            raise ValueError("train features/labels length mismatch")
        if self.test_features.shape[0] != self.test_labels.shape[0]:
            raise ValueError("test features/labels length mismatch")
        if self.train_features.shape[1] != self.test_features.shape[1]:
            raise ValueError("train/test feature dimensionality mismatch")

    @property
    def num_features(self) -> int:
        return int(self.train_features.shape[1])

    @property
    def num_classes(self) -> int:
        labels = np.concatenate([self.train_labels, self.test_labels])
        return int(labels.max()) + 1

    @property
    def num_train(self) -> int:
        return int(self.train_features.shape[0])

    @property
    def num_test(self) -> int:
        return int(self.test_features.shape[0])

    def class_counts(self, split: str = "train") -> np.ndarray:
        """Per-class sample counts for the requested split."""
        labels = self.train_labels if split == "train" else self.test_labels
        return np.bincount(labels, minlength=self.num_classes)

    def summary(self) -> Dict[str, Union[str, int, bool]]:
        """Compact description used by example scripts and reports."""
        return {
            "name": self.name,
            "num_features": self.num_features,
            "num_classes": self.num_classes,
            "num_train": self.num_train,
            "num_test": self.num_test,
            "synthetic": self.synthetic,
        }


@dataclass(frozen=True)
class DatasetProfile:
    """Structural profile of one of the paper's evaluation datasets.

    The profile records the quantities the paper's analysis depends on
    (feature count, class count, per-class sample budget) plus the synthetic
    generator parameters used to mimic the dataset's difficulty.
    """

    name: str
    num_features: int
    num_classes: int
    train_per_class: int
    test_per_class: int
    modes_per_class: int
    latent_dim: int
    class_separation: float
    mode_spread: float
    noise_scale: float

    def spec(self, scale: float = 1.0) -> SyntheticSpec:
        """Build the synthetic generator spec, optionally scaling sample counts."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        train = max(self.modes_per_class * 4, int(round(self.train_per_class * scale)))
        test = max(10, int(round(self.test_per_class * scale)))
        return SyntheticSpec(
            num_classes=self.num_classes,
            num_features=self.num_features,
            train_per_class=train,
            test_per_class=test,
            modes_per_class=self.modes_per_class,
            latent_dim=self.latent_dim,
            class_separation=self.class_separation,
            mode_spread=self.mode_spread,
            noise_scale=self.noise_scale,
        )


#: Structural profiles of the paper's three evaluation datasets.  Per-class
#: training budgets match the paper's description (~6000 for MNIST/FMNIST,
#: ~240 for ISOLET); the default ``scale`` used by benchmarks shrinks them.
DATASET_PROFILES: Dict[str, DatasetProfile] = {
    "mnist": DatasetProfile(
        name="mnist",
        num_features=784,
        num_classes=10,
        train_per_class=6000,
        test_per_class=1000,
        modes_per_class=6,
        latent_dim=24,
        class_separation=2.5,
        mode_spread=1.8,
        noise_scale=0.50,
    ),
    "fmnist": DatasetProfile(
        name="fmnist",
        num_features=784,
        num_classes=10,
        train_per_class=6000,
        test_per_class=1000,
        modes_per_class=6,
        latent_dim=24,
        class_separation=2.2,
        mode_spread=2.0,
        noise_scale=0.60,
    ),
    "isolet": DatasetProfile(
        name="isolet",
        num_features=617,
        num_classes=26,
        train_per_class=240,
        test_per_class=60,
        modes_per_class=3,
        latent_dim=20,
        class_separation=2.8,
        mode_spread=1.2,
        noise_scale=0.45,
    ),
}


def available_datasets() -> Tuple[str, ...]:
    """Names accepted by :func:`load_dataset`."""
    return tuple(sorted(DATASET_PROFILES))


def _load_npz(path: str, name: str) -> Dataset:
    """Load a real dataset from ``<path>`` in the documented npz layout."""
    with np.load(path) as archive:
        required = ("train_x", "train_y", "test_x", "test_y")
        missing = [key for key in required if key not in archive]
        if missing:
            raise ValueError(f"{path} is missing arrays: {missing}")
        train_x = archive["train_x"].astype(np.float64)
        test_x = archive["test_x"].astype(np.float64)
        # Normalize into [0, 1] so the encoders can assume a fixed range.
        high = max(train_x.max(), test_x.max())
        if high > 1.0:
            # In place: astype already made the float64 copies.
            train_x /= high
            test_x /= high
        return Dataset(
            name=name,
            train_features=train_x,
            train_labels=archive["train_y"].astype(np.int64),
            test_features=test_x,
            test_labels=archive["test_y"].astype(np.int64),
            synthetic=False,
        )


def load_dataset(
    name: str,
    scale: float = 1.0,
    rng: Optional[Union[int, np.random.Generator]] = None,
    data_dir: Optional[str] = None,
) -> Dataset:
    """Load one of the paper's evaluation datasets (or its synthetic surrogate).

    Parameters
    ----------
    name:
        ``"mnist"``, ``"fmnist"`` or ``"isolet"`` (case-insensitive).
    scale:
        Fraction of the paper-scale per-class sample budget to generate when
        falling back to the synthetic surrogate.  ``1.0`` reproduces the
        paper-scale sample counts; benchmarks default to much smaller values
        so the suite runs quickly.  Ignored when a real ``.npz`` is found.
    rng:
        Seed or generator for the synthetic fallback.  A fixed default seed
        derived from the dataset name is used when omitted so repeated calls
        return identical data.
    data_dir:
        Directory searched for ``<name>.npz``; defaults to the
        ``REPRO_DATA_DIR`` environment variable or ``./data``.
    """
    key = name.lower()
    if key not in DATASET_PROFILES:
        raise ValueError(
            f"unknown dataset {name!r}; available: {available_datasets()}"
        )
    directory = data_dir or os.environ.get("REPRO_DATA_DIR", "data")
    npz_path = os.path.join(directory, f"{key}.npz")
    if os.path.isfile(npz_path):
        return _load_npz(npz_path, key)

    profile = DATASET_PROFILES[key]
    if rng is None:
        # Stable per-dataset default seed so callers get identical surrogates.
        rng = {"mnist": 1001, "fmnist": 2002, "isolet": 3003}[key]
    gen = _as_generator(rng)
    spec = profile.spec(scale=scale)
    train_x, train_y, test_x, test_y = make_multimodal_classification(spec, gen)
    return Dataset(
        name=key,
        train_features=train_x,
        train_labels=train_y,
        test_features=test_x,
        test_labels=test_y,
        synthetic=True,
    )
