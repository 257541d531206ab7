"""Hyperdimensional computing (HDC) substrate.

This package provides the building blocks every classifier in the
reproduction rests on:

* :mod:`repro.hdc.hypervector` -- creation of random hypervectors and the
  conversions between the binary and bipolar alphabets (sign/binarize).
* :mod:`repro.hdc.similarity` -- dot, cosine and Hamming similarity between
  hypervectors or batches of hypervectors.
* :mod:`repro.hdc.encoders` -- the two encoders the paper uses:
  random-projection encoding (MVM-compatible, used by BasicHDC and MEMHD) and
  ID-Level encoding (used by SearcHD / QuantHD / LeHDC).
* :mod:`repro.hdc.clustering` -- K-means clustering under the dot-similarity
  metric, used for MEMHD's clustering-based initialization.
* :mod:`repro.hdc.memory_model` -- the Table I memory-requirement formulas
  for every model family.
* :mod:`repro.hdc.packed` -- bit-packed (``uint64``-word) hypervectors and
  the popcount similarity engine behind every ``packed=True`` /
  ``engine="packed"`` fast path in the library.
* :mod:`repro.hdc.pruned` -- centroid-pruned shortlist search over the
  packed engine (the ``engine="pruned"`` sublinear hot path), exact by
  construction.
"""

from repro.hdc.hypervector import (
    BIPOLAR,
    BINARY,
    random_binary_hypervectors,
    random_bipolar_hypervectors,
    random_gaussian_hypervectors,
    level_hypervectors,
    binarize,
    bipolarize,
    to_bipolar,
    to_binary,
)
from repro.hdc.similarity import (
    dot_similarity,
    cosine_similarity,
    hamming_distance,
)
from repro.hdc.encoders import (
    Encoder,
    RandomProjectionEncoder,
    IDLevelEncoder,
)
from repro.hdc.clustering import (
    KMeansResult,
    dot_kmeans,
)
from repro.hdc.packed import (
    PackedAM,
    PackedVectors,
    kernel_backend,
    pack_binary,
    pack_bipolar,
    packed_dot_similarity,
    packed_hamming_distance,
    words_per_vector,
)
from repro.hdc.pruned import (
    PrunedAM,
    default_prune_topk,
)
from repro.hdc.memory_model import (
    MemoryReport,
    bits_to_kib,
    projection_encoder_bits,
    id_level_encoder_bits,
    associative_memory_bits,
    model_memory_report,
    TABLE1_MODEL_FAMILIES,
)

__all__ = [
    "BIPOLAR",
    "BINARY",
    "random_binary_hypervectors",
    "random_bipolar_hypervectors",
    "random_gaussian_hypervectors",
    "level_hypervectors",
    "binarize",
    "bipolarize",
    "to_bipolar",
    "to_binary",
    "dot_similarity",
    "cosine_similarity",
    "hamming_distance",
    "Encoder",
    "RandomProjectionEncoder",
    "IDLevelEncoder",
    "KMeansResult",
    "dot_kmeans",
    "PackedAM",
    "PackedVectors",
    "kernel_backend",
    "pack_binary",
    "pack_bipolar",
    "packed_dot_similarity",
    "packed_hamming_distance",
    "words_per_vector",
    "PrunedAM",
    "default_prune_topk",
    "MemoryReport",
    "bits_to_kib",
    "projection_encoder_bits",
    "id_level_encoder_bits",
    "associative_memory_bits",
    "model_memory_report",
    "TABLE1_MODEL_FAMILIES",
]
