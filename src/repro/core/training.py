"""Quantization-aware iterative learning (paper Sec. III-C).

Each epoch proceeds in the four steps of the paper:

1. *Dot similarity*: every training hypervector is scored against the
   **binary** AM (the memory that will actually be deployed in the IMC
   array), and only mispredicted samples trigger updates.
2. *Update-target selection*: the update target on the wrong side is the
   mispredicted class vector with the overall highest similarity (Eq. 4),
   i.e. exactly the AM row that won the associative search; on the correct
   side it is the most similar row *within the true class* (Eq. 5), so each
   sample reinforces the centroid that already best represents it.
3. *Iterative learning*: the Eq. (6) updates ``C += alpha * H`` /
   ``C -= alpha * H`` are applied to the floating-point shadow memory.
4. *Binary AM update*: the FP memory is row-normalized (so no centroid of a
   class dominates its siblings) and re-binarized with the mean-threshold
   quantizer; the refreshed binary memory is what the next epoch's
   similarities are computed against.

Because every similarity inside one epoch is computed against the same
binary memory, the per-sample loop vectorizes into batched numpy updates
without changing the algorithm's semantics.  Two more facts make the loop
cheap while keeping it bit-identical to the per-sample description:

* **One fused search per binary memory.**  Of each sample's row of
  similarities, an epoch uses two entries: the winning row (Eq. (4)) and
  the best row of the true class (Eq. (5)).  The ``{0, 1}`` training
  queries are packed once per :meth:`QuantizationAwareTrainer.train`
  call (once per ``MEMHDModel.fit``, which shares them with the
  initialization), and :meth:`~repro.hdc.packed.PackedAM.search` of
  ``am.packed()`` returns exactly those two rows per query, with
  ``np.argmax``'s lowest-row tie rule.  On the native backend no ``(n, C)``
  score matrix is built.  Its popcounts are exact integers, so both picks equal the
  float path's.  A search is kept for as long as its binary memory is
  deployed: the search that measures an epoch's training accuracy after a
  refresh is also the next epoch's Eq. (4)/(5) input, and an epoch that
  does not refresh reuses it outright.  ``E`` epochs refreshing every
  epoch therefore cost ``E + 1`` searches.
* **Ordered Eq. (6) updates.**
  :meth:`~repro.core.associative_memory.MultiCentroidAM.apply_updates`
  adds every update in ``np.add.at``'s order -- a native pass over the
  updates on the native backend, one grouped reduction per touched row
  on the numpy backend -- so the FP memory matches a sample-by-sample
  accumulation bit for bit.

:func:`quantization_aware_step` is steps 2--3 for one searched batch; the
trainer's epochs and :meth:`repro.core.online.OnlineMEMHD.partial_fit` both
run it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.baselines.base import TrainingHistory
from repro.core.associative_memory import MultiCentroidAM
from repro.eval.metrics import accuracy
from repro.hdc.packed import PackedVectors, pack_binary


def pack_encodings(encoded: np.ndarray, name: str = "encoded") -> PackedVectors:
    """Bit-pack ``{0, 1}`` encodings, enforcing the binary-input contract.

    Training and initialization score binary encoder output (the bits an
    IMC array's rows are driven with); anything else -- bipolar or real
    valued vectors -- would be silently scored as floats, so it raises a
    :class:`ValueError` naming ``name`` instead.
    """
    if not ((encoded == 0) | (encoded == 1)).all():
        raise ValueError(
            f"{name} must hold binary {{0, 1}} hypervectors (the binary "
            "encoder's output); got other values"
        )
    return pack_binary(encoded, validate=False)


def quantization_aware_step(
    am: MultiCentroidAM,
    queries: np.ndarray,
    labels: np.ndarray,
    winners: np.ndarray,
    true_targets: np.ndarray,
    learning_rate: float,
    order: Optional[np.ndarray] = None,
) -> int:
    """Steps 2--3 (Eqs. (4)--(6)) for a batch searched against ``am``.

    Parameters
    ----------
    am:
        The AM whose FP memory receives the updates (in place).
    queries:
        ``(n, D)`` ``{0, 1}`` query hypervectors.
    labels:
        ``(n,)`` true labels.
    winners / true_targets:
        The ``(best, own)`` rows that ``am.packed().search(queries,
        labels)`` returns for ``am``'s current binary memory: each query's
        winning row (Eq. (4)) and its best row within its true class
        (Eq. (5)).
    learning_rate:
        Eq. (6) step ``alpha``.
    order:
        Optional permutation of ``range(n)`` giving the order in which the
        mispredicted samples' updates accumulate.

    Returns
    -------
    int
        The number of mispredicted samples, i.e. updates applied.
    """
    wrong_mask = am.column_classes[winners] != labels
    wrong = np.flatnonzero(wrong_mask) if order is None else order[wrong_mask[order]]
    if wrong.size == 0:
        return 0
    # Eq. (6): reinforce the true-class row and push the winner away.
    vectors = queries[wrong]
    am.apply_updates(
        add_rows=true_targets[wrong],
        add_vectors=vectors,
        subtract_rows=winners[wrong],
        subtract_vectors=vectors,
        learning_rate=learning_rate,
    )
    return int(wrong.size)


class QuantizationAwareTrainer:
    """Trains a :class:`MultiCentroidAM` with quantization-aware updates.

    Parameters
    ----------
    learning_rate:
        Update step ``alpha`` of Eq. (6).  The paper recommends 0.01--0.1,
        lower for harder datasets and higher for larger ``D`` or ``C``.
    epochs:
        Maximum number of epochs.
    binary_update_interval:
        Refresh the binary memory every this many epochs (1 = every epoch).
    early_stop_patience:
        Stop when the training accuracy has not improved for this many
        consecutive epochs (``None`` disables early stopping).
    keep_best:
        When True (default) the binary memory snapshot with the highest
        training accuracy seen during training is restored at the end, so a
        late oscillation of the iterative updates cannot degrade the
        deployed model below its best epoch.
    shuffle:
        Whether to shuffle the training order each epoch.  Shuffling only
        matters for tie-breaking statistics because updates are accumulated
        per epoch; it is kept for parity with the per-sample formulation.
    """

    def __init__(
        self,
        learning_rate: float = 0.05,
        epochs: int = 20,
        binary_update_interval: int = 1,
        early_stop_patience: Optional[int] = None,
        keep_best: bool = True,
        shuffle: bool = True,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        if binary_update_interval < 1:
            raise ValueError("binary_update_interval must be >= 1")
        if early_stop_patience is not None and early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1 or None")
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.binary_update_interval = int(binary_update_interval)
        self.early_stop_patience = early_stop_patience
        self.keep_best = bool(keep_best)
        self.shuffle = bool(shuffle)

    # ------------------------------------------------------------------ API
    def train(
        self,
        am: MultiCentroidAM,
        encoded: np.ndarray,
        labels: np.ndarray,
        validation: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        rng: Optional[np.random.Generator] = None,
        packed: Optional[PackedVectors] = None,
    ) -> TrainingHistory:
        """Run quantization-aware iterative learning on ``am`` in place.

        Parameters
        ----------
        am:
            The multi-centroid AM to train (modified in place).
        encoded:
            ``(n, D)`` binary ``{0, 1}`` encoded training hypervectors (any
            dtype); other values raise :class:`ValueError`.
        labels:
            ``(n,)`` integer training labels.
        validation:
            Optional ``(encoded, labels)`` pair evaluated after every epoch
            (same ``{0, 1}`` contract).
        rng:
            Generator used only for the optional per-epoch shuffling.
        packed:
            ``pack_encodings(encoded)``, when the caller already has it:
            used instead of checking and packing ``encoded`` again.
        """
        queries = np.asarray(encoded)
        y = np.asarray(labels, dtype=np.int64)
        if queries.ndim != 2:
            raise ValueError("encoded must be a 2-D array")
        if queries.shape[0] != y.shape[0]:
            raise ValueError("encoded and labels must have the same length")
        if queries.shape[1] != am.dimension:
            raise ValueError(
                f"encoded dimension {queries.shape[1]} does not match the AM "
                f"dimension {am.dimension}"
            )
        if packed is None:
            packed = pack_encodings(queries)
        elif packed.words.shape[0] != queries.shape[0]:
            raise ValueError("packed and encoded must hold the same samples")
        val_packed = val_labels = None
        if validation is not None:
            val_packed = pack_encodings(np.asarray(validation[0]), "validation encoded")
            val_labels = np.asarray(validation[1])
        generator = rng if rng is not None else np.random.default_rng()

        # The search of the deployed binary memory; repeated on refresh only.
        winners, true_targets = am.packed().search(packed, y)
        history = TrainingHistory()
        history.initial_accuracy = accuracy(am.column_classes[winners], y)

        best_accuracy = history.initial_accuracy
        best_binary = am.binary_memory.copy() if self.keep_best else None
        stale_epochs = 0
        for epoch in range(1, self.epochs + 1):
            order = (
                generator.permutation(queries.shape[0])
                if self.shuffle
                else np.arange(queries.shape[0])
            )
            mispredictions = quantization_aware_step(
                am, queries, y, winners, true_targets, self.learning_rate, order
            )
            if epoch % self.binary_update_interval == 0:
                am.refresh_binary()
                winners, true_targets = am.packed().search(packed, y)

            train_acc = accuracy(am.column_classes[winners], y)
            history.updates.append(mispredictions)
            history.train_accuracy.append(train_acc)
            if val_packed is not None:
                history.validation_accuracy.append(
                    accuracy(am.predict(val_packed, packed=True), val_labels)
                )

            improved = train_acc > best_accuracy + 1e-12
            if improved:
                best_accuracy = train_acc
                if self.keep_best:
                    best_binary = am.binary_memory.copy()
                stale_epochs = 0
            else:
                stale_epochs += 1
            if (
                self.early_stop_patience is not None
                and stale_epochs >= self.early_stop_patience
            ):
                break
            if mispredictions == 0:
                break

        if self.keep_best and best_binary is not None:
            # Deploy the best binary snapshot seen during training; the FP
            # shadow memory keeps its final state for callers that want to
            # continue training.
            am.binary_memory = best_binary
        else:
            # Make sure the binary memory reflects the final FP state even
            # when the loop exited between refresh intervals.
            am.refresh_binary()
        if not history.train_accuracy:
            history.train_accuracy.append(history.initial_accuracy)
        return history
