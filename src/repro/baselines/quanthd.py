"""QuantHD: quantization-aware iterative learning for binary HDC.

QuantHD (Imani et al., TCAD 2019) keeps two copies of the associative
memory: a floating-point "shadow" memory that accumulates the iterative
updates and a binary (sign-quantized) memory used for every similarity
evaluation.  Predictions during training are made against the *binary*
memory, so the updates compensate for the quantization error -- the idea
MEMHD extends to its multi-centroid memory (paper Sec. III-C references
QuantHD as prior work [13]).

The paper's evaluation runs QuantHD with ID-Level encoding (L = 256).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.baselines.base import BipolarAMClassifier, TrainingHistory
from repro.hdc.encoders import IDLevelEncoder, check_encoder_shape
from repro.hdc.engine import BinaryAMEngine
from repro.hdc.hypervector import _as_generator, bipolarize
from repro.hdc.memory_model import MemoryReport, model_memory_report
from repro.hdc.similarity import dot_similarity
from repro.eval.metrics import accuracy


@dataclass(frozen=True)
class QuantHDConfig:
    """Configuration of a :class:`QuantHD` classifier.

    Attributes
    ----------
    dimension:
        Hypervector dimensionality ``D``.
    num_levels:
        Number of ID-Level quantization levels ``L`` (paper uses 256).
    epochs:
        Quantization-aware iterative-learning epochs.
    learning_rate:
        Update step size ``alpha``.
    seed:
        Seed for encoder construction.
    """

    dimension: int = 2048
    num_levels: int = 256
    epochs: int = 20
    learning_rate: float = 0.05
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.num_levels < 2:
            raise ValueError("num_levels must be >= 2")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


class QuantHD(BipolarAMClassifier):
    """ID-Level encoded HDC with quantization-aware iterative learning."""

    name = "QuantHD"

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        config: Optional[QuantHDConfig] = None,
        rng: Optional[Union[int, np.random.Generator]] = None,
        encoder: Optional[IDLevelEncoder] = None,
    ) -> None:
        if num_features <= 0 or num_classes <= 0:
            raise ValueError("num_features and num_classes must be positive")
        self.config = config or QuantHDConfig()
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        seed = self.config.seed if rng is None else rng
        self._rng = _as_generator(seed)
        if encoder is not None:
            # Adopt a pre-built encoder (checkpoint restoration) instead of
            # drawing fresh random codebooks.
            self.encoder = check_encoder_shape(
                encoder, self.num_features, self.config.dimension
            )
        else:
            self.encoder = IDLevelEncoder(
                num_features,
                self.config.dimension,
                num_levels=self.config.num_levels,
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
        encoded = self.encoder.encode(x).astype(np.float64)
        history = TrainingHistory()

        # Single-pass construction of the FP memory, then sign quantization.
        fp_am = np.zeros((self.num_classes, self.config.dimension), dtype=np.float64)
        np.add.at(fp_am, y, encoded)
        self._fp_am = fp_am
        self._am = bipolarize(fp_am).astype(np.float64)
        history.initial_accuracy = accuracy(self._predict_encoded(encoded), y)

        alpha = self.config.learning_rate
        for _ in range(self.config.epochs):
            predictions = self._predict_encoded(encoded)
            wrong = np.flatnonzero(predictions != y)
            # All predictions in this epoch were made against the same
            # binary memory, so the updates can be accumulated in bulk.
            if wrong.size:
                np.add.at(self._fp_am, y[wrong], alpha * encoded[wrong])
                np.add.at(self._fp_am, predictions[wrong], -alpha * encoded[wrong])
            self._am = bipolarize(self._fp_am).astype(np.float64)
            history.updates.append(int(wrong.size))
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
            "QuantHD",
            num_features=self.num_features,
            dimension=self.config.dimension,
            num_classes=self.num_classes,
            num_levels=self.config.num_levels,
        )

    # ---------------------------------------------------------- persistence
    def checkpoint_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays that fully describe this fitted model for checkpointing."""
        if self._fp_am is None or self._am is None:
            raise RuntimeError("model has not been fitted")
        return {
            "encoder_id_vectors": self.encoder.id_vectors,
            "encoder_level_vectors": self.encoder.level_vectors,
            "fp_am": self._fp_am,
            "binary_am": self._am,
        }

    @classmethod
    def from_checkpoint(
        cls,
        num_features: int,
        num_classes: int,
        config: QuantHDConfig,
        arrays: Dict[str, np.ndarray],
        encoder_meta: Optional[Dict] = None,
    ) -> "QuantHD":
        """Rebuild a fitted model from :meth:`checkpoint_arrays` output."""
        meta = encoder_meta or {}
        encoder = IDLevelEncoder.from_vectors(
            arrays["encoder_id_vectors"],
            arrays["encoder_level_vectors"],
            value_range=(meta.get("value_low", 0.0), meta.get("value_high", 1.0)),
            quantize_output=meta.get("quantize_output", True),
        )
        model = cls(num_features, num_classes, config, rng=config.seed, encoder=encoder)
        model._fp_am = np.asarray(arrays["fp_am"], dtype=np.float64)
        model._am = np.asarray(arrays["binary_am"], dtype=np.float64)
        return model

    # ------------------------------------------------------------ internals
    def _predict_encoded(self, encoded: np.ndarray) -> np.ndarray:
        return np.argmax(np.atleast_2d(dot_similarity(encoded, self._am)), axis=1)
