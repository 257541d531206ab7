"""The multi-centroid associative memory (AM).

The AM is a ``C x D`` matrix whose rows ("columns" of the IMC array when
mapped, hence the paper's ``C`` naming) are class vectors: several rows may
belong to the same class.  The mapping from AM row to class is held in
``column_classes``.  Associative search scores a binary query against every
row with the dot similarity and predicts the class of the best row -- a
single MVM on a ``D``-row, ``C``-column IMC array (paper Sec. III-D).

Two parallel representations are maintained:

``fp_memory``
    The floating-point shadow memory accumulating iterative-learning
    updates.
``binary_memory``
    The 1-bit quantized memory actually used for every similarity
    evaluation (and the only thing mapped into the IMC array).

A third, derived representation -- the bit-packed mirror and pruned
index held by :attr:`MultiCentroidAM.engine` (a
:class:`~repro.hdc.engine.BinaryAMEngine`) -- stores the same 1-bit memory
as ``uint64`` words and serves the ``packed=True`` fast path of every
inference method (bit-exact with the float path).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.core.quantization import mean_threshold_binarize, normalize_rows
from repro.hdc import _packed_kernels as _kernels
from repro.hdc.engine import BinaryAMEngine
from repro.hdc.packed import PackedAM, PackedVectors
from repro.hdc.pruned import PrunedAM
from repro.hdc.similarity import dot_similarity


def _sum_rows_in_order(block: np.ndarray) -> np.ndarray:
    """``block[0] + block[1] + ...`` added strictly left to right.

    A reduction over axis 0 of a C-contiguous ``(m, D)`` block adds whole
    rows in order.  With ``D == 1`` the reduced axis becomes the contiguous
    one, where numpy switches to pairwise summation, so that case runs a
    (always sequential) cumulative sum instead.
    """
    if block.shape[1] == 1:
        return np.add.accumulate(block[:, 0])[-1:]
    return np.add.reduce(block, axis=0)


class MultiCentroidAM:
    """Multi-centroid associative memory with a column-to-class map.

    Parameters
    ----------
    fp_memory:
        ``(C, D)`` floating-point class-vector matrix (e.g. K-means
        centroids from the clustering-based initialization).
    column_classes:
        ``(C,)`` integer array giving the class each row represents.
    num_classes:
        Total number of classes ``k``.  Defaults to
        ``column_classes.max() + 1``.
    threshold_mode:
        Binarization threshold mode passed to
        :func:`repro.core.quantization.mean_threshold_binarize`.
    normalization:
        Row normalization applied by :meth:`refresh_binary`.
    """

    def __init__(
        self,
        fp_memory: np.ndarray,
        column_classes: np.ndarray,
        num_classes: Optional[int] = None,
        threshold_mode: str = "global-mean",
        normalization: str = "zscore",
    ) -> None:
        fp = np.asarray(fp_memory, dtype=np.float64)
        classes = np.asarray(column_classes, dtype=np.int64)
        if fp.ndim != 2:
            raise ValueError("fp_memory must be a 2-D (C, D) array")
        if classes.ndim != 1 or classes.shape[0] != fp.shape[0]:
            raise ValueError("column_classes must be 1-D with one entry per AM row")
        if np.any(classes < 0):
            raise ValueError("column_classes must be non-negative")
        inferred = int(classes.max()) + 1 if classes.size else 0
        self.num_classes = int(num_classes) if num_classes is not None else inferred
        if self.num_classes < inferred:
            raise ValueError(
                "num_classes is smaller than the largest label in column_classes"
            )
        missing = set(range(self.num_classes)) - set(int(c) for c in classes)
        if missing:
            raise ValueError(
                f"every class needs at least one column; missing: {sorted(missing)}"
            )
        self.fp_memory = fp
        self.column_classes = classes
        self.threshold_mode = threshold_mode
        self.normalization = normalization
        #: Packed mirror and pruned index of :attr:`binary_memory`.
        self.engine = BinaryAMEngine(self._pack)
        self.refresh_binary()

    # ----------------------------------------------------------- properties
    @property
    def binary_memory(self) -> np.ndarray:
        """The deployed 1-bit memory (what every similarity search reads)."""
        return self._binary_memory

    @binary_memory.setter
    def binary_memory(self, value: np.ndarray) -> None:
        # Any assignment -- refresh_binary, checkpoint restore, a trainer
        # rolling back to its best snapshot, online promotion/rollback --
        # drops the derived packed/pruned mirrors, so engine="packed" /
        # "pruned" can never keep answering from a stale copy.
        self._binary_memory = value
        self.engine.invalidate()

    @property
    def num_columns(self) -> int:
        """Total number of class vectors ``C``."""
        return int(self.fp_memory.shape[0])

    @property
    def dimension(self) -> int:
        """Hypervector dimensionality ``D``."""
        return int(self.fp_memory.shape[1])

    @property
    def shape_label(self) -> str:
        """The paper's ``DxC`` shape label."""
        return f"{self.dimension}x{self.num_columns}"

    def columns_of_class(self, class_label: int) -> np.ndarray:
        """Indices of the AM rows belonging to ``class_label``."""
        if not 0 <= class_label < self.num_classes:
            raise ValueError(f"class_label out of range: {class_label}")
        return np.flatnonzero(self.column_classes == class_label)

    def columns_per_class(self) -> Dict[int, int]:
        """Number of centroids allocated to each class."""
        counts = np.bincount(self.column_classes, minlength=self.num_classes)
        return {label: int(count) for label, count in enumerate(counts)}

    # ------------------------------------------------------------ inference
    def _pack(self) -> PackedAM:
        return PackedAM.from_binary_memory(
            self.binary_memory, self.column_classes, self.num_classes
        )

    def packed(self) -> PackedAM:
        """Bit-packed mirror of the binary AM (built lazily, cached).

        The packed mirror stores the 1-bit memory as ``uint64`` words (8x
        smaller than ``binary_memory``) and answers associative searches
        with popcount kernels.  Any :attr:`binary_memory` assignment
        invalidates it.
        """
        return self.engine.packed()

    def pruned(self) -> PrunedAM:
        """Centroid-pruned search index over the packed mirror (cached).

        Screens queries against per-class centroid sketches and exactly
        re-ranks only a shortlist; argmax-identical to the full scan (see
        :class:`repro.hdc.pruned.PrunedAM`).  Shares the packed mirror's
        storage and is invalidated together with it.
        """
        return self.engine.pruned()

    def scores(
        self, queries: Union[np.ndarray, PackedVectors], packed: bool = False
    ) -> np.ndarray:
        """Dot similarity of binary queries against the binary AM.

        Parameters
        ----------
        queries:
            ``(n, D)`` or ``(D,)`` binary ``{0, 1}`` query hypervectors
            (the output of the binary projection encoder), or a
            :class:`~repro.hdc.packed.PackedVectors` batch of them
            (``packed=True`` only), which skips re-packing queries that are
            scored more than once.
        packed:
            When ``True``, evaluate through the bit-packed popcount engine
            (bit-exact with the float path, far less memory traffic).

        Returns
        -------
        numpy.ndarray
            ``(n, C)`` similarity matrix (or ``(C,)`` for a single unpacked
            query).
        """
        if isinstance(queries, PackedVectors):
            if not packed:
                raise ValueError("PackedVectors queries require packed=True")
            return self.packed().scores(queries)
        arr = np.asarray(queries)
        if arr.shape[-1] != self.dimension:
            raise ValueError(
                f"query dimension {arr.shape[-1]} does not match AM dimension "
                f"{self.dimension}"
            )
        if packed:
            return self.packed().scores(arr)
        return dot_similarity(arr, self.binary_memory)

    def predict_columns(
        self, queries: Union[np.ndarray, PackedVectors], packed: bool = False
    ) -> np.ndarray:
        """Index of the winning AM row for each query."""
        if packed:
            return self.packed().predict_columns(queries)
        return np.argmax(np.atleast_2d(self.scores(queries)), axis=1)

    def predict(
        self, queries: Union[np.ndarray, PackedVectors], packed: bool = False
    ) -> np.ndarray:
        """Predicted class labels (the class of the winning row)."""
        return self.column_classes[self.predict_columns(queries, packed=packed)]

    def class_scores(
        self, queries: Union[np.ndarray, PackedVectors], packed: bool = False
    ) -> np.ndarray:
        """Per-class score: the best similarity among each class's rows."""
        scores = np.atleast_2d(self.scores(queries, packed=packed))
        result = np.full((scores.shape[0], self.num_classes), -np.inf)
        for class_label in range(self.num_classes):
            columns = self.columns_of_class(class_label)
            result[:, class_label] = scores[:, columns].max(axis=1)
        return result

    # ------------------------------------------------------------- training
    def refresh_binary(self) -> None:
        """Re-quantize the binary AM from the (normalized) FP AM.

        The assignment invalidates the engine through the
        :attr:`binary_memory` setter.
        """
        normalized = normalize_rows(self.fp_memory, self.normalization)
        self.binary_memory = mean_threshold_binarize(normalized, self.threshold_mode)

    def apply_updates(
        self,
        add_rows: np.ndarray,
        add_vectors: np.ndarray,
        subtract_rows: np.ndarray,
        subtract_vectors: np.ndarray,
        learning_rate: float,
    ) -> None:
        """Accumulate Eq. (6) updates into the FP AM.

        ``add_rows[i]`` receives ``+ learning_rate * add_vectors[i]`` and
        ``subtract_rows[i]`` receives ``- learning_rate * subtract_vectors[i]``.
        Repeated row indices accumulate with ``np.add.at`` semantics, bit
        for bit: every row adds its updates left to right, all additions
        in order first and then all subtractions in order.  The native
        backend runs exactly that order in one pass
        (:func:`repro.hdc._packed_kernels.ordered_accumulate`); the numpy
        backend groups the updates by row (a stable sort), so each touched
        row costs one ordered reduction instead of one scattered add per
        update.  The binary AM is *not* refreshed here; call
        :meth:`refresh_binary` at the configured interval.
        """
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        add_rows = np.asarray(add_rows, dtype=np.int64)
        subtract_rows = np.asarray(subtract_rows, dtype=np.int64)
        add_vectors = np.broadcast_to(add_vectors, (add_rows.size, self.dimension))
        subtract_vectors = np.broadcast_to(
            subtract_vectors, (subtract_rows.size, self.dimension)
        )
        rows = np.concatenate([add_rows, subtract_rows])
        if rows.size == 0:
            return
        fp = self.fp_memory
        if (
            _kernels.backend_name() == "native"
            and fp.dtype == np.float64
            and fp.flags.c_contiguous
            and fp.flags.writeable
        ):
            size = fp.shape[0]
            if rows.min() < -size or rows.max() >= size:
                raise IndexError(f"AM rows must lie in [-{size}, {size})")
            # As in np.add.at, a negative row counts from the end.
            add_rows, subtract_rows = add_rows % size, subtract_rows % size
            _kernels.ordered_accumulate(fp, add_rows, add_vectors, learning_rate)
            _kernels.ordered_accumulate(
                fp, subtract_rows, subtract_vectors, -learning_rate
            )
            return
        # Stable: each row's additions keep their order and precede its
        # subtractions, which keep theirs -- np.add.at's order.
        order = np.argsort(rows, kind="stable")
        touched, counts = np.unique(rows[order], return_counts=True)
        # One block per touched row: its current FP row, then its updates.
        heads = np.cumsum(counts + 1) - (counts + 1)
        slots = np.arange(rows.size) + np.repeat(np.arange(1, touched.size + 1), counts)
        blocks = np.empty((rows.size + touched.size, self.dimension))
        blocks[heads] = self.fp_memory[touched]
        added = order < add_rows.size
        blocks[slots[added]] = np.multiply(
            learning_rate, add_vectors[order[added]], dtype=np.float64
        )
        blocks[slots[~added]] = np.multiply(
            -learning_rate,
            subtract_vectors[order[~added] - add_rows.size],
            dtype=np.float64,
        )
        for row, head, count in zip(touched, heads, counts):
            self.fp_memory[row] = _sum_rows_in_order(blocks[head : head + count + 1])

    # ---------------------------------------------------------- persistence
    def checkpoint_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays that fully describe this AM for checkpointing.

        Returns
        -------
        dict
            ``fp_memory`` (the float shadow memory, so training can
            resume), ``binary_memory`` (the deployed 1-bit memory, saved
            verbatim so a restored AM predicts bit-identically even if the
            quantization code evolves) and ``column_classes``.
        """
        return {
            "fp_memory": self.fp_memory,
            "binary_memory": self.binary_memory,
            "column_classes": self.column_classes,
        }

    @classmethod
    def from_checkpoint(
        cls,
        arrays: Dict[str, np.ndarray],
        num_classes: int,
        threshold_mode: str = "global-mean",
        normalization: str = "zscore",
    ) -> "MultiCentroidAM":
        """Rebuild an AM from :meth:`checkpoint_arrays` output.

        The saved ``binary_memory`` is adopted verbatim (not re-quantized
        from ``fp_memory``), which makes restore bit-exact by construction.

        Parameters
        ----------
        arrays:
            Mapping with ``fp_memory``, ``binary_memory`` and
            ``column_classes`` entries.
        num_classes:
            Total number of classes ``k``.
        threshold_mode / normalization:
            The quantization settings the AM was trained with (used by any
            further :meth:`refresh_binary` calls).
        """
        am = cls(
            np.asarray(arrays["fp_memory"], dtype=np.float64),
            np.asarray(arrays["column_classes"], dtype=np.int64),
            num_classes=num_classes,
            threshold_mode=threshold_mode,
            normalization=normalization,
        )
        binary = np.asarray(arrays["binary_memory"], dtype=np.int8)
        if binary.shape != am.fp_memory.shape:
            raise ValueError(
                f"binary_memory shape {binary.shape} does not match "
                f"fp_memory shape {am.fp_memory.shape}"
            )
        am.binary_memory = binary
        return am

    # -------------------------------------------------------------- utility
    def copy(self) -> "MultiCentroidAM":
        """Deep copy (used by experiments that branch a trained memory)."""
        clone = MultiCentroidAM(
            self.fp_memory.copy(),
            self.column_classes.copy(),
            num_classes=self.num_classes,
            threshold_mode=self.threshold_mode,
            normalization=self.normalization,
        )
        clone.binary_memory = self.binary_memory.copy()
        return clone

    def memory_bits(self) -> int:
        """Storage of the binary AM in single-bit cells: ``C * D``."""
        return self.num_columns * self.dimension

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiCentroidAM(shape={self.shape_label}, "
            f"classes={self.num_classes})"
        )
