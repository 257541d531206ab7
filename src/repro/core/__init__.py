"""MEMHD core: the paper's primary contribution.

The sub-modules follow the structure of Sec. III of the paper:

* :mod:`repro.core.config` -- :class:`MEMHDConfig`, the single dataclass
  holding every hyperparameter (dimension ``D``, columns ``C``, cluster
  ratio ``R``, learning rate, epochs, ...).
* :mod:`repro.core.associative_memory` -- :class:`MultiCentroidAM`, the
  ``C x D`` multi-centroid associative memory with its column-to-class map.
* :mod:`repro.core.initialization` -- clustering-based initialization and
  confusion-matrix-driven cluster allocation (Sec. III-A), plus the
  random-sampling initializer used as the Fig. 5 baseline.
* :mod:`repro.core.quantization` -- mean-threshold 1-bit AM quantization
  (Sec. III-B) and the row-normalization used before re-binarization.
* :mod:`repro.core.training` -- quantization-aware iterative learning
  (Sec. III-C).
* :mod:`repro.core.model` -- :class:`MEMHDModel`, the end-to-end classifier
  tying encoder, initialization, quantization and training together
  (Sec. III-D provides the in-memory inference path, implemented in
  :mod:`repro.imc`).
"""

from repro.core.config import MEMHDConfig
from repro.core.associative_memory import MultiCentroidAM
from repro.core.initialization import (
    InitializationResult,
    clustering_initialization,
    random_sampling_initialization,
    initial_clusters_per_class,
)
from repro.core.quantization import (
    mean_threshold_binarize,
    normalize_rows,
)
from repro.core.training import QuantizationAwareTrainer
from repro.core.model import MEMHDModel
from repro.core.online import OnlineMEMHD
from repro.core.compression import (
    CompressionReport,
    centroid_usage,
    merge_similar_centroids,
    prune_centroids,
)

__all__ = [
    "MEMHDConfig",
    "MultiCentroidAM",
    "InitializationResult",
    "clustering_initialization",
    "random_sampling_initialization",
    "initial_clusters_per_class",
    "mean_threshold_binarize",
    "normalize_rows",
    "QuantizationAwareTrainer",
    "MEMHDModel",
    "OnlineMEMHD",
    "CompressionReport",
    "centroid_usage",
    "merge_similar_centroids",
    "prune_centroids",
]
