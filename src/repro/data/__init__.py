"""Dataset containers, loaders and synthetic workload generators.

The paper evaluates on MNIST, Fashion-MNIST and ISOLET.  This reproduction
runs entirely offline, so :func:`repro.data.load_dataset` serves
deterministic synthetic datasets that mirror the shape and the *structure*
of those workloads (feature count, class count, per-class sample budget and
intra-class multi-modality); the README's "Datasets: synthetic
surrogates" section gives the substitution rationale.  If the real
datasets are placed under a data directory in the simple ``.npz`` format
documented in :mod:`repro.data.datasets`, they are picked up
automatically.
"""

from repro.data.datasets import (
    Dataset,
    DATASET_PROFILES,
    DatasetProfile,
    load_dataset,
    available_datasets,
)
from repro.data.synthetic import (
    SyntheticSpec,
    make_multimodal_classification,
    make_synthetic_dataset,
)

__all__ = [
    "Dataset",
    "DATASET_PROFILES",
    "DatasetProfile",
    "load_dataset",
    "available_datasets",
    "SyntheticSpec",
    "make_multimodal_classification",
    "make_synthetic_dataset",
]
