"""Online / incremental extensions of the MEMHD model.

The paper closes by positioning MEMHD for "resource-constrained
environments"; a capability such deployments routinely need -- and the
future-work direction most adjacent to the paper -- is updating the model in
the field without re-running the full clustering + training pipeline:

* :meth:`OnlineMEMHD.partial_fit` folds a stream of newly-labelled samples
  into the existing multi-centroid AM using the same Eq. (6) quantization-
  aware update rule (mispredicted samples move their best true-class
  centroid up and the winning wrong centroid down), followed by the usual
  normalization + re-binarization.
* :meth:`OnlineMEMHD.add_class` grows the AM with centroids for a class that
  did not exist at training time, either by claiming the least-useful
  columns of existing classes (keeping the AM exactly ``C x D`` so it still
  fills one IMC array) or by appending new columns when the hardware budget
  allows.

The class wraps a fitted :class:`repro.core.model.MEMHDModel` and shares its
encoder, so queries keep using the already-deployed projection matrix.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.model import MEMHDModel
from repro.core.training import quantization_aware_step
from repro.eval.metrics import accuracy
from repro.hdc.clustering import dot_kmeans
from repro.hdc.hypervector import _as_generator
from repro.hdc.packed import pack_binary


class OnlineMEMHD:
    """Incremental updates and class addition on top of a fitted MEMHD model.

    Parameters
    ----------
    model:
        A fitted :class:`MEMHDModel`; its associative memory is updated in
        place.
    learning_rate:
        Step size of the streaming Eq. (6) updates; defaults to the model's
        configured learning rate.
    rng:
        Seed or generator for the class-addition clustering.
    """

    def __init__(
        self,
        model: MEMHDModel,
        learning_rate: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.model = model
        self.am = model.associative_memory  # raises if not fitted
        rate = learning_rate if learning_rate is not None else model.config.learning_rate
        if rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(rate)
        self._rng = _as_generator(rng)

    # ------------------------------------------------------------------ API
    @property
    def num_classes(self) -> int:
        """Current number of classes representable by the AM."""
        return self.am.num_classes

    def partial_fit(
        self, features: np.ndarray, labels: np.ndarray, refresh: bool = True
    ) -> Dict[str, float]:
        """Fold a batch of labelled samples into the AM.

        Applies one pass of the quantization-aware update rule over the
        batch (scored against the current binary memory), then -- when
        ``refresh`` is True -- re-normalizes and re-binarizes the memory.
        Re-binarization assigns :attr:`MultiCentroidAM.binary_memory`,
        whose setter drops the cached packed/pruned mirrors, so
        ``engine="packed"`` / ``"pruned"`` predictions can never go stale
        after an update (regression-pinned by ``tests/test_core_online``).

        Returns
        -------
        dict
            ``{"batch_accuracy_before", "batch_accuracy_after", "updates"}``
            measured on the supplied batch.
        """
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and labels must have the same length")
        if np.any(y < 0) or np.any(y >= self.num_classes):
            raise ValueError(
                "labels must lie in the AM's current class range; use "
                "add_class() first for novel classes"
            )

        queries = self.model.encode_binary(x)
        packed = pack_binary(queries, validate=False)
        winners, true_targets = self.am.packed().search(packed, y)
        before = accuracy(self.am.column_classes[winners], y)
        updates = quantization_aware_step(
            self.am, queries, y, winners, true_targets, self.learning_rate
        )
        after = before
        if refresh:
            self.am.refresh_binary()
            after = accuracy(self.am.predict(packed, packed=True), y)
        return {
            "batch_accuracy_before": before,
            "batch_accuracy_after": after,
            "updates": updates,
        }

    def add_class(
        self,
        features: np.ndarray,
        new_label: Optional[int] = None,
        columns: int = 1,
        grow: bool = False,
    ) -> int:
        """Teach the model a class it has never seen.

        Parameters
        ----------
        features:
            ``(n, f)`` raw feature vectors of the new class (n >= 1).
        new_label:
            Label to assign; defaults to ``num_classes`` (the next id).
        columns:
            Number of centroids to dedicate to the new class.
        grow:
            When False (default) the new centroids *replace* existing
            columns -- one is taken from each of the classes currently
            owning the most columns, so the AM keeps its exact ``C x D``
            shape and continues to fill one IMC array.  When True the AM
            grows by ``columns`` rows instead (requires re-mapping onto
            hardware with more columns).

        Returns
        -------
        int
            The label assigned to the new class.
        """
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[0] < 1:
            raise ValueError("need at least one sample of the new class")
        if columns < 1:
            raise ValueError("columns must be >= 1")
        label = int(new_label) if new_label is not None else self.num_classes
        if label < self.num_classes:
            raise ValueError(
                f"label {label} already exists; partial_fit() handles known classes"
            )

        encoded = self.model.encode_binary(x)
        k = min(columns, encoded.shape[0])
        result = dot_kmeans(encoded, k, rng=self._rng)
        sizes = np.maximum(result.cluster_sizes(), 1)
        new_rows = result.centroids * sizes[:, None]

        if grow:
            self.am.fp_memory = np.vstack([self.am.fp_memory, new_rows])
            self.am.column_classes = np.concatenate(
                [self.am.column_classes, np.full(k, label, dtype=np.int64)]
            )
        else:
            victims = self._select_victim_columns(k)
            self.am.fp_memory[victims] = new_rows
            self.am.column_classes[victims] = label

        self.am.num_classes = max(self.am.num_classes, label + 1)
        self.am.refresh_binary()
        return label

    def evaluate(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy of the current (online-updated) AM on a labelled split."""
        queries = self.model.encode_binary(np.asarray(features, dtype=np.float64))
        if queries.ndim == 1:
            queries = queries[None, :]
        return accuracy(self.am.predict(queries.astype(np.float64)), np.asarray(labels))

    # ------------------------------------------------------------ internals
    def _select_victim_columns(self, count: int) -> np.ndarray:
        """Pick columns to repurpose: take from the best-provisioned classes.

        One column is claimed from each of the classes currently owning the
        most centroids (never dropping a class below one column), repeating
        until ``count`` columns have been gathered.
        """
        counts = {
            label: list(self.am.columns_of_class(label))
            for label in range(self.am.num_classes)
        }
        victims = []
        while len(victims) < count:
            richest = max(counts, key=lambda label: len(counts[label]))
            if len(counts[richest]) <= 1:
                raise ValueError(
                    "cannot repurpose columns without dropping a class below "
                    "one centroid; call add_class(grow=True) instead"
                )
            victims.append(counts[richest].pop())
        return np.asarray(victims, dtype=np.int64)
