"""BasicHDC: random-projection encoding with single-pass training.

This is the paper's ``BasicHDC`` row of Table I: both the encoding (an MVM
against a binary projection matrix) and the associative search (a dot
product against one binary class vector per class) map directly onto IMC
arrays, which makes BasicHDC the IMC-mapping baseline of Table II and
Fig. 7.

Training is single-pass: each class vector is the bundled (summed) set of
that class's encoded hypervectors, binarized at the end.  An optional
refinement stage runs the classical (non-quantization-aware) iterative
update of Eq. (2) for a configurable number of epochs, which is how the
higher-dimensional BasicHDC points in Fig. 3 are normally obtained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.baselines.base import BipolarAMClassifier, TrainingHistory
from repro.hdc.encoders import RandomProjectionEncoder, check_encoder_shape
from repro.hdc.engine import BinaryAMEngine
from repro.hdc.hypervector import _as_generator, bipolarize
from repro.hdc.memory_model import MemoryReport, model_memory_report
from repro.hdc.packed import PackedAM
from repro.hdc.similarity import dot_similarity
from repro.eval.metrics import accuracy


@dataclass(frozen=True)
class BasicHDCConfig:
    """Configuration of a :class:`BasicHDC` classifier.

    Attributes
    ----------
    dimension:
        Hypervector dimensionality ``D``.
    refine_epochs:
        Number of classical iterative-learning epochs run after the
        single-pass construction (0 keeps the model strictly single-pass).
    learning_rate:
        Step size ``alpha`` of the Eq. (2) refinement updates.
    binary_am:
        When True (default) the stored associative memory is binarized
        (bipolar sign) after training, matching the binary-HDC comparison
        of the paper; when False the floating-point class vectors are kept.
    seed:
        Seed for the projection matrix.
    """

    dimension: int = 2048
    refine_epochs: int = 0
    learning_rate: float = 0.05
    binary_am: bool = True
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.refine_epochs < 0:
            raise ValueError("refine_epochs must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


class BasicHDC(BipolarAMClassifier):
    """Projection-encoded, single-pass binary HDC classifier."""

    name = "BasicHDC"

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        config: Optional[BasicHDCConfig] = None,
        rng: Optional[Union[int, np.random.Generator]] = None,
        encoder: Optional[RandomProjectionEncoder] = None,
    ) -> None:
        if num_features <= 0 or num_classes <= 0:
            raise ValueError("num_features and num_classes must be positive")
        self.config = config or BasicHDCConfig()
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        seed = self.config.seed if rng is None else rng
        self._rng = _as_generator(seed)
        if encoder is not None:
            # Adopt a pre-built encoder (checkpoint restoration) instead of
            # drawing a fresh random projection.
            self.encoder = check_encoder_shape(
                encoder, self.num_features, self.config.dimension
            )
        else:
            self.encoder = RandomProjectionEncoder(
                num_features,
                self.config.dimension,
                binary_projection=True,
                rng=self._rng,
            )
        self._fp_am: Optional[np.ndarray] = None
        self.engine = BinaryAMEngine(self._pack_am)
        self._am = None

    # ------------------------------------------------------------------ API
    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        validation: Optional[tuple] = None,
    ) -> TrainingHistory:
        x, y = self._check_fit_inputs(features, labels)
        encoded = self.encoder.encode(x).astype(np.float64)  # bipolar (n, D)
        history = TrainingHistory()

        # Single-pass: class vector = bundled class hypervectors.
        fp_am = np.zeros((self.num_classes, self.config.dimension), dtype=np.float64)
        np.add.at(fp_am, y, encoded)
        self._fp_am = fp_am
        self._refresh_am()
        history.initial_accuracy = accuracy(self._predict_encoded(encoded), y)

        for _ in range(self.config.refine_epochs):
            updates = self._refine_epoch(encoded, y)
            self._refresh_am()
            history.updates.append(updates)
            history.train_accuracy.append(
                accuracy(self._predict_encoded(encoded), y)
            )
            if validation is not None:
                val_x, val_y = validation
                history.validation_accuracy.append(self.score(val_x, val_y))

        if not history.train_accuracy:
            history.train_accuracy.append(history.initial_accuracy)
        return history

    def memory_report(self) -> MemoryReport:
        return model_memory_report(
            "BasicHDC",
            num_features=self.num_features,
            dimension=self.config.dimension,
            num_classes=self.num_classes,
        )

    # ---------------------------------------------------------- persistence
    def checkpoint_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays that fully describe this fitted model for checkpointing."""
        if self._fp_am is None or self._am is None:
            raise RuntimeError("model has not been fitted")
        return {
            "encoder_projection": self.encoder.projection,
            "fp_am": self._fp_am,
            "am": self._am,
        }

    @classmethod
    def from_checkpoint(
        cls,
        num_features: int,
        num_classes: int,
        config: BasicHDCConfig,
        arrays: Dict[str, np.ndarray],
        encoder_meta: Optional[Dict] = None,
    ) -> "BasicHDC":
        """Rebuild a fitted model from :meth:`checkpoint_arrays` output."""
        meta = encoder_meta or {}
        encoder = RandomProjectionEncoder.from_projection(
            arrays["encoder_projection"],
            binary_projection=meta.get("binary_projection", True),
            quantize_output=meta.get("quantize_output", True),
        )
        model = cls(num_features, num_classes, config, rng=config.seed, encoder=encoder)
        model._fp_am = np.asarray(arrays["fp_am"], dtype=np.float64)
        model._am = np.asarray(arrays["am"], dtype=np.float64)
        return model

    # ------------------------------------------------------------ internals
    def _refresh_am(self) -> None:
        assert self._fp_am is not None
        if self.config.binary_am:
            self._am = bipolarize(self._fp_am).astype(np.float64)
        else:
            self._am = self._fp_am.copy()

    def _pack_am(self) -> PackedAM:
        if not self.config.binary_am:
            raise ValueError(
                "the packed engine requires binary_am=True (1-bit class "
                "vectors); this model keeps floating-point class vectors"
            )
        return super()._pack_am()

    def _predict_encoded(self, encoded: np.ndarray) -> np.ndarray:
        return np.argmax(np.atleast_2d(dot_similarity(encoded, self._am)), axis=1)

    def _refine_epoch(self, encoded: np.ndarray, labels: np.ndarray) -> int:
        """One classical iterative-learning epoch (Eq. 2) on the FP memory."""
        assert self._fp_am is not None
        predictions = self._predict_encoded(encoded)
        wrong = np.flatnonzero(predictions != labels)
        alpha = self.config.learning_rate
        for index in wrong:
            hv = encoded[index]
            self._fp_am[labels[index]] += alpha * hv
            self._fp_am[predictions[index]] -= alpha * hv
        return int(wrong.size)
