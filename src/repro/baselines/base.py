"""Shared classifier interface and training-history record.

Every model in the repository (the four baselines and MEMHD itself) exposes
the same minimal scikit-learn-like surface:

``fit(features, labels) -> TrainingHistory``
    Train on raw feature vectors (the model owns its encoder).
``predict(features) -> labels``
    Classify raw feature vectors.
``score(features, labels) -> float``
    Convenience accuracy.
``memory_report() -> MemoryReport``
    Table I storage breakdown of the trained (or configured) model.

Keeping the interface identical across models is what lets the Fig. 3 /
Fig. 7 benchmarks sweep over heterogeneous model families with one loop.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.eval.metrics import accuracy
from repro.hdc.encoders import RandomProjectionEncoder
from repro.hdc.engine import BinaryAMEngine, check_engine
from repro.hdc.memory_model import MemoryReport
from repro.hdc.packed import PackedAM, pack_bipolar


@dataclass
class TrainingHistory:
    """Per-epoch training telemetry returned by ``fit``.

    Attributes
    ----------
    train_accuracy:
        Accuracy measured on the training split at the end of each epoch
        (after the binary-memory refresh for quantization-aware models).
    validation_accuracy:
        Accuracy on a held-out split, when the caller provided one.
    updates:
        Number of class-vector updates (mispredictions acted upon) per
        epoch; useful to observe convergence.
    initial_accuracy:
        Accuracy of the model immediately after initialization, before any
        iterative learning (the quantity Fig. 5 compares between clustering
        and random-sampling initialization).
    """

    train_accuracy: List[float] = field(default_factory=list)
    validation_accuracy: List[float] = field(default_factory=list)
    updates: List[int] = field(default_factory=list)
    initial_accuracy: Optional[float] = None

    @property
    def epochs(self) -> int:
        return len(self.train_accuracy)

    @property
    def best_train_accuracy(self) -> float:
        if not self.train_accuracy:
            raise ValueError("history is empty")
        return max(self.train_accuracy)

    @property
    def final_train_accuracy(self) -> float:
        if not self.train_accuracy:
            raise ValueError("history is empty")
        return self.train_accuracy[-1]

    def epochs_to_reach(self, threshold: float) -> Optional[int]:
        """First epoch (1-based) whose train accuracy reaches ``threshold``.

        Returns ``None`` when the threshold is never reached; used by the
        Fig. 5 convergence-speed comparison.
        """
        for epoch, value in enumerate(self.train_accuracy, start=1):
            if value >= threshold:
                return epoch
        return None

    def as_dict(self) -> Dict[str, object]:
        return {
            "train_accuracy": list(self.train_accuracy),
            "validation_accuracy": list(self.validation_accuracy),
            "updates": list(self.updates),
            "initial_accuracy": self.initial_accuracy,
            "epochs": self.epochs,
        }


class HDCClassifier(abc.ABC):
    """Abstract base class for every HDC classifier in the repository."""

    #: Human-readable family name matching Table I (set by subclasses).
    name: str = "HDCClassifier"

    @abc.abstractmethod
    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        validation: Optional[tuple] = None,
    ) -> TrainingHistory:
        """Train the classifier on raw features and integer labels."""

    @abc.abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict integer class labels for raw features."""

    @abc.abstractmethod
    def memory_report(self) -> MemoryReport:
        """Table I storage breakdown of this model instance."""

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy of :meth:`predict` against ``labels``."""
        return accuracy(self.predict(features), np.asarray(labels))

    # ---------------------------------------------------------- persistence
    def checkpoint_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays that fully describe this fitted model for checkpointing.

        Together with ``(num_features, num_classes, config)`` these arrays
        must be sufficient for :meth:`from_checkpoint` to rebuild a model
        whose ``predict`` is bit-identical to the original.  Models ship
        concrete implementations; :mod:`repro.io.checkpoint` is the only
        intended caller.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    @classmethod
    def from_checkpoint(
        cls,
        num_features: int,
        num_classes: int,
        config,
        arrays: Dict[str, np.ndarray],
        encoder_meta: Optional[Dict] = None,
    ) -> "HDCClassifier":
        """Rebuild a fitted model from :meth:`checkpoint_arrays` output.

        Parameters
        ----------
        num_features / num_classes:
            Input dimensionality and label count of the original model.
        config:
            The model's configuration dataclass instance.
        arrays:
            The mapping produced by :meth:`checkpoint_arrays`.
        encoder_meta:
            Encoder hyperparameters recorded in the checkpoint manifest
            (``quantize_output``, ``binary_projection``, ID-Level value
            range); ``None`` falls back to the model's construction
            defaults.
        """
        raise NotImplementedError(f"{cls.__name__} does not support checkpointing")

    def _check_fit_inputs(
        self, features: np.ndarray, labels: np.ndarray
    ) -> tuple:
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if x.ndim != 2:
            raise ValueError(f"features must be 2-D, got ndim={x.ndim}")
        if y.ndim != 1:
            raise ValueError(f"labels must be 1-D, got ndim={y.ndim}")
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and labels must have the same length")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if np.any(y < 0):
            raise ValueError("labels must be non-negative integers")
        return x, y


class BinaryAMClassifier(HDCClassifier):
    """A classifier whose inference is one search over a 1-bit AM.

    The packed and pruned engines live in one :class:`BinaryAMEngine`,
    :attr:`engine`; this class gives every such model the same serving
    hooks over it.
    """

    #: Packed mirror and pruned index of the model's binary AM.
    engine: BinaryAMEngine

    def prepare_engine(self, engine: str = "float") -> None:
        """Build engine state ahead of serving (pipeline warm-up hook).

        For the packed engine this packs the binary AM into ``uint64``
        words; for the pruned engine it additionally builds the per-class
        centroid sketches.  A projection encoder's sign packer (the
        projection's bits and the exact-sign encode's bound coefficients)
        is built in every case, so the first served chunk pays no
        lazy-initialization cost.  Its float32 widening is not: only a
        batch that takes the GEMM builds it (see
        :meth:`RandomProjectionEncoder.widened_projection`).
        """
        self.engine.prepare(engine)
        if isinstance(self.encoder, RandomProjectionEncoder):
            self.encoder._operands()

    def configure_pruning(self, prune_topk: Optional[int]) -> None:
        """Set the pruned engine's shortlist width (None = heuristic)."""
        self.engine.configure_pruning(prune_topk)

    def prune_stats(self) -> Optional[Dict[str, float]]:
        """Prune counters of the pruned engine (None before it is built)."""
        return self.engine.stats()


class BipolarAMClassifier(BinaryAMClassifier):
    """A baseline that searches a bipolar ``{-1, +1}`` class-vector AM.

    The AM is ``(k, D)``, or ``(k, N, D)`` with ``N`` vectors per class
    (SearcHD).  It changes only through the :attr:`_am` setter, which
    invalidates :attr:`engine`.  Subclasses build the engine over
    :meth:`_pack_am` and keep their float search in ``_predict_encoded``.
    """

    @property
    def _am(self) -> Optional[np.ndarray]:
        """The class-vector memory every engine searches (None before fit)."""
        return self._am_array

    @_am.setter
    def _am(self, value: Optional[np.ndarray]) -> None:
        self._am_array = value
        self.engine.invalidate()

    @property
    def associative_memory(self) -> np.ndarray:
        """The class-vector memory used for prediction."""
        if self._am is None:
            raise RuntimeError("model has not been fitted")
        return self._am

    def predict(self, features: np.ndarray, engine: str = "float") -> np.ndarray:
        """Classify raw features (``packed``/``pruned`` use popcount search)."""
        if self._am is None:
            raise RuntimeError(f"{type(self).__name__}.predict called before fit")
        encoded = self.encoder.encode(np.asarray(features, dtype=np.float64))
        encoded = np.atleast_2d(encoded)
        if check_engine(engine) == "float":
            return self._predict_encoded(encoded.astype(np.float64))
        return self.engine.predict(pack_bipolar(encoded), engine)

    def _pack_am(self) -> PackedAM:
        """The AM as flat ``(k * N, D)`` packed rows, ``N`` per class."""
        if self._am is None:
            raise RuntimeError("model has not been fitted")
        rows = self._am.reshape(-1, self._am.shape[-1])
        per_class = rows.shape[0] // self.num_classes
        classes = np.repeat(np.arange(self.num_classes), per_class)
        return PackedAM.from_bipolar_memory(rows, classes, self.num_classes)

    @abc.abstractmethod
    def _predict_encoded(self, encoded: np.ndarray) -> np.ndarray:
        """Float-path labels of encoded query rows."""
