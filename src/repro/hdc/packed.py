"""Bit-packed binary hypervectors and the popcount similarity engine.

The paper's whole premise is that 1-bit associative memories make
classification cheap, yet the reference float path evaluates every
similarity as a float64 matmul over ±1 (or {0, 1}) arrays -- 64x the memory
traffic the algorithm needs.  This module stores hypervectors as ``uint64``
words (64 elements per word, via :func:`numpy.packbits`) and evaluates
similarities with popcount kernels:

* binary ``{0, 1}`` dot similarity: ``popcount(q AND r)``,
* bipolar ``{-1, +1}`` dot similarity: ``D - 2 * popcount(q XOR r)``
  (the classical dot/Hamming identity),
* Hamming distance (either alphabet): ``popcount(q XOR r)``.

All three are exact integer computations, so the packed engine is
**bit-exact** with the float64 path -- an invariant enforced by the
property tests in ``tests/test_properties.py`` and
``tests/test_hdc_packed.py``.

Dimensions that are not multiples of 64 are zero-padded into the last
("tail") word.  Zero tail bits are AND/XOR-neutral, so no masking is needed
at query time; :func:`PackedVectors.unpack` slices the padding back off.

:class:`PackedAM` mirrors :class:`repro.core.associative_memory.MultiCentroidAM`
for inference: same scores / predict / class_scores surface, 8x smaller
storage than the ``int8`` binary memory (64x smaller than a float64 AM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.hdc import _packed_kernels as _kernels

#: Elements packed into one storage word.
WORD_BITS = 64

#: The two packable alphabets.
BINARY_ALPHABET = "binary"
BIPOLAR_ALPHABET = "bipolar"


def words_per_vector(dimension: int) -> int:
    """Number of ``uint64`` words needed to store ``dimension`` elements."""
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    return (dimension + WORD_BITS - 1) // WORD_BITS


@dataclass(frozen=True)
class PackedVectors:
    """A batch of hypervectors packed 64 elements per ``uint64`` word.

    Attributes
    ----------
    words:
        ``(n, W)`` ``uint64`` array with ``W = ceil(dimension / 64)``.
        Bit ``d`` of a row (little-endian within each word) holds element
        ``d`` of the vector; tail bits past ``dimension`` are zero.
    dimension:
        Original element count ``D`` of each vector.
    alphabet:
        ``"binary"`` when bit 1 means element value 1 (and 0 means 0), or
        ``"bipolar"`` when bit 1 means +1 (and 0 means -1).
    """

    words: np.ndarray
    dimension: int
    alphabet: str

    def __post_init__(self) -> None:
        if self.words.ndim != 2 or self.words.dtype != np.uint64:
            raise ValueError("words must be a 2-D uint64 array")
        if self.alphabet not in (BINARY_ALPHABET, BIPOLAR_ALPHABET):
            raise ValueError(f"unknown alphabet {self.alphabet!r}")
        if self.words.shape[1] != words_per_vector(self.dimension):
            raise ValueError(
                f"expected {words_per_vector(self.dimension)} words for "
                f"D={self.dimension}, got {self.words.shape[1]}"
            )

    def __len__(self) -> int:
        return int(self.words.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes of packed storage."""
        return int(self.words.nbytes)

    def unpack(self) -> np.ndarray:
        """Restore the ``(n, D)`` ``int8`` array in the original alphabet."""
        bits = np.unpackbits(self.words.view(np.uint8), axis=-1, bitorder="little")
        bits = bits[:, : self.dimension]
        if self.alphabet == BIPOLAR_ALPHABET:
            return (2 * bits.astype(np.int8) - 1).astype(np.int8)
        return bits.astype(np.int8)


def _pack_bits(bits: np.ndarray, dimension: int, alphabet: str) -> PackedVectors:
    """Pack a ``(n, D)`` 0/1 array into little-endian uint64 words."""
    packed_bytes = np.packbits(bits, axis=-1, bitorder="little")
    pad = (-packed_bytes.shape[1]) % 8
    if pad:
        packed_bytes = np.concatenate(
            [
                packed_bytes,
                np.zeros((packed_bytes.shape[0], pad), dtype=np.uint8),
            ],
            axis=1,
        )
    words = np.ascontiguousarray(packed_bytes).view(np.uint64)
    return PackedVectors(words=words, dimension=dimension, alphabet=alphabet)


def _as_matrix(vectors: np.ndarray) -> np.ndarray:
    arr = np.asarray(vectors)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got ndim={arr.ndim}")
    if arr.shape[1] == 0:
        raise ValueError("cannot pack zero-dimensional vectors")
    return arr


def pack_binary(vectors: np.ndarray, validate: bool = True) -> PackedVectors:
    """Pack ``{0, 1}`` vectors (any integer or float dtype) bitwise.

    Accepts a ``(n, D)`` batch or a single ``(D,)`` vector (stored as one
    row).  Raises :class:`ValueError` on values outside ``{0, 1}`` unless
    the caller has already validated the alphabet (``validate=False``).
    """
    arr = _as_matrix(vectors)
    if validate and not ((arr == 0) | (arr == 1)).all():
        raise ValueError("pack_binary expects values in {0, 1}")
    bits = arr.astype(np.uint8, copy=False)
    return _pack_bits(bits, arr.shape[1], BINARY_ALPHABET)


def pack_bipolar(vectors: np.ndarray, validate: bool = True) -> PackedVectors:
    """Pack ``{-1, +1}`` vectors bitwise (+1 -> bit 1, -1 -> bit 0)."""
    arr = _as_matrix(vectors)
    if validate and not ((arr == -1) | (arr == 1)).all():
        raise ValueError("pack_bipolar expects values in {-1, +1}")
    bits = (arr > 0).astype(np.uint8)
    return _pack_bits(bits, arr.shape[1], BIPOLAR_ALPHABET)


def _check_pair(queries: PackedVectors, references: PackedVectors) -> None:
    if queries.dimension != references.dimension:
        raise ValueError(
            f"dimension mismatch: queries have D={queries.dimension}, "
            f"references have D={references.dimension}"
        )
    if queries.alphabet != references.alphabet:
        raise ValueError(
            f"alphabet mismatch: {queries.alphabet} vs {references.alphabet}"
        )


def packed_hamming_distance(
    queries: PackedVectors, references: PackedVectors
) -> np.ndarray:
    """``(n, m)`` element-count Hamming distances between packed batches."""
    _check_pair(queries, references)
    return _kernels.xor_popcount(queries.words, references.words)


def packed_dot_similarity(
    queries: PackedVectors, references: PackedVectors
) -> np.ndarray:
    """``(n, m)`` exact integer dot similarities between packed batches.

    For the bipolar alphabet this uses the identity
    ``dot = D - 2 * hamming``; for the binary alphabet the dot product
    counts common ones, i.e. ``popcount(q AND r)``.
    """
    _check_pair(queries, references)
    if queries.alphabet == BIPOLAR_ALPHABET:
        hamming = _kernels.xor_popcount(queries.words, references.words)
        return queries.dimension - 2 * hamming
    return _kernels.and_popcount(queries.words, references.words)


def kernel_backend() -> str:
    """Name of the active popcount backend (``"native"`` or ``"numpy"``)."""
    return _kernels.backend_name()


class PackedAM:
    """Bit-packed inference mirror of the multi-centroid associative memory.

    Stores the 1-bit AM as ``uint64`` words (8x smaller than the ``int8``
    ``binary_memory``) and answers associative searches with popcount
    kernels while remaining bit-exact with the float64 dot-similarity path.

    Parameters
    ----------
    memory:
        Packed ``(C, W)`` class-vector batch (binary or bipolar alphabet).
    column_classes:
        ``(C,)`` integer array giving the class of each stored row.
    num_classes:
        Total number of classes; defaults to ``column_classes.max() + 1``.
    """

    def __init__(
        self,
        memory: PackedVectors,
        column_classes: np.ndarray,
        num_classes: Optional[int] = None,
    ) -> None:
        classes = np.asarray(column_classes, dtype=np.int64)
        if classes.ndim != 1 or classes.shape[0] != len(memory):
            raise ValueError("column_classes must be 1-D with one entry per row")
        if classes.size and classes.min() < 0:
            raise ValueError("column_classes must be non-negative")
        inferred = int(classes.max()) + 1 if classes.size else 0
        self.memory = memory
        self.column_classes = classes
        self.num_classes = int(num_classes) if num_classes is not None else inferred
        if self.num_classes < inferred:
            raise ValueError(
                "num_classes is smaller than the largest label in column_classes"
            )
        bipolar = memory.alphabet == BIPOLAR_ALPHABET
        op = _kernels.OP_XOR if bipolar else _kernels.OP_AND
        #: The fused search, with its word-major copy of the memory.
        self._search = _kernels.RowSearch(memory.words, classes, self.num_classes, op)

    @classmethod
    def from_binary_memory(
        cls,
        binary_memory: np.ndarray,
        column_classes: np.ndarray,
        num_classes: Optional[int] = None,
    ) -> "PackedAM":
        """Pack an ``(C, D)`` ``{0, 1}`` binary memory (the AM's storage)."""
        return cls(pack_binary(binary_memory), column_classes, num_classes)

    @classmethod
    def from_bipolar_memory(
        cls,
        bipolar_memory: np.ndarray,
        column_classes: np.ndarray,
        num_classes: Optional[int] = None,
    ) -> "PackedAM":
        """Pack an ``(C, D)`` ``{-1, +1}`` class-vector matrix."""
        return cls(pack_bipolar(bipolar_memory), column_classes, num_classes)

    # ---------------------------------------------------------- persistence
    def checkpoint_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays that fully describe this packed AM for checkpointing.

        Returns
        -------
        dict
            ``words`` (the raw ``(C, W)`` ``uint64`` payload, saved as-is
            so restore needs no re-packing) and ``column_classes``.
        """
        return {"words": self.memory.words, "column_classes": self.column_classes}

    @classmethod
    def from_checkpoint(
        cls,
        arrays: Dict[str, np.ndarray],
        dimension: int,
        alphabet: str,
        num_classes: int,
    ) -> "PackedAM":
        """Rebuild a packed AM from :meth:`checkpoint_arrays` output.

        Parameters
        ----------
        arrays:
            Mapping with ``words`` and ``column_classes`` entries.
        dimension:
            Original element count ``D`` of each stored vector.
        alphabet:
            ``"binary"`` or ``"bipolar"`` (see :class:`PackedVectors`).
        num_classes:
            Total number of classes ``k``.
        """
        words = np.ascontiguousarray(np.asarray(arrays["words"], dtype=np.uint64))
        memory = PackedVectors(words=words, dimension=int(dimension), alphabet=alphabet)
        return cls(memory, arrays["column_classes"], num_classes)

    # ----------------------------------------------------------- properties
    @property
    def num_columns(self) -> int:
        """Number of stored class vectors ``C``."""
        return len(self.memory)

    @property
    def dimension(self) -> int:
        """Hypervector dimensionality ``D``."""
        return self.memory.dimension

    def memory_bytes(self) -> int:
        """Bytes of packed AM storage (``C * ceil(D / 64) * 8``)."""
        return self.memory.nbytes

    # ------------------------------------------------------------ inference
    def _pack_queries(self, queries: Union[np.ndarray, PackedVectors]):
        if isinstance(queries, PackedVectors):
            if queries.dimension != self.dimension:
                raise ValueError(
                    f"query dimension {queries.dimension} does not match AM "
                    f"dimension {self.dimension}"
                )
            _check_pair(queries, self.memory)  # the alphabets must match too
            return queries, False
        arr = np.asarray(queries)
        squeeze = arr.ndim == 1
        matrix = _as_matrix(arr)
        if matrix.shape[1] != self.dimension:
            raise ValueError(
                f"query dimension {matrix.shape[1]} does not match AM "
                f"dimension {self.dimension}"
            )
        if self.memory.alphabet == BIPOLAR_ALPHABET:
            return pack_bipolar(matrix), squeeze
        return pack_binary(matrix), squeeze

    def scores(self, queries: Union[np.ndarray, PackedVectors]) -> np.ndarray:
        """Exact integer dot similarities of queries against every AM row.

        Accepts unpacked ``(n, D)`` / ``(D,)`` arrays in the AM's alphabet
        or an already-packed batch; returns ``(n, C)`` (``(C,)`` squeezed
        for a single unpacked query), bit-exact with the float path.
        """
        packed, squeeze = self._pack_queries(queries)
        sims = packed_dot_similarity(packed, self.memory)
        return sims[0] if squeeze else sims

    def search(
        self,
        queries: Union[np.ndarray, PackedVectors],
        labels: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Winning rows, and each query's best row of its own class.

        Returns ``(best, own)``: ``best[i]`` is the first row with the
        highest similarity to query ``i`` (``np.argmax``'s tie rule on
        :meth:`scores`), and with ``labels``, ``own[i]`` is the first best
        row among those of class ``labels[i]`` (None without labels).  No
        ``(n, C)`` score matrix is built on the native backend.  A label
        that owns no row raises :class:`ValueError`.
        """
        packed, _ = self._pack_queries(queries)
        return self._search(packed.words, labels)

    def predict_columns(self, queries: Union[np.ndarray, PackedVectors]) -> np.ndarray:
        """Index of the winning AM row for each query (lowest-index ties)."""
        return self.search(queries)[0]

    def predict(self, queries: Union[np.ndarray, PackedVectors]) -> np.ndarray:
        """Predicted class labels (the class of the winning row)."""
        return self.column_classes[self.predict_columns(queries)]

    def class_scores(self, queries: Union[np.ndarray, PackedVectors]) -> np.ndarray:
        """Per-class score: the best similarity among each class's rows."""
        scores = np.atleast_2d(self.scores(queries))
        result = np.full((scores.shape[0], self.num_classes), -np.inf)
        for class_label in range(self.num_classes):
            columns = np.flatnonzero(self.column_classes == class_label)
            if columns.size:
                result[:, class_label] = scores[:, columns].max(axis=1)
        return result

    def columns_per_class(self) -> Dict[int, int]:
        """Number of stored rows per class."""
        counts = np.bincount(self.column_classes, minlength=self.num_classes)
        return {label: int(count) for label, count in enumerate(counts)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedAM(shape={self.dimension}x{self.num_columns}, "
            f"classes={self.num_classes}, alphabet={self.memory.alphabet})"
        )
