"""LeHDC: learning-based HDC classifier trained like a binarized neural net.

LeHDC (Duan et al., DAC 2022) is the accuracy state-of-the-art among the
binary HDC baselines in the paper.  It reinterprets the associative memory
as the weight matrix of a single binarized linear layer over the encoded
hypervector and trains it with gradient descent:

* the *forward* pass uses the binarized (sign) weights, exactly what will be
  deployed;
* the *backward* pass updates full-precision latent weights through the
  straight-through estimator (STE);
* the loss is the softmax cross-entropy over class logits, with the logits
  scaled by ``1 / sqrt(D)`` for numerical conditioning.

The implementation below is a small, dependency-free numpy BNN trainer with
mini-batches, momentum SGD and latent-weight clipping -- enough to reproduce
LeHDC's qualitative behaviour (best accuracy per dimension among the
single-vector-per-class baselines) without an external DL framework.
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
from repro.eval.metrics import accuracy


@dataclass(frozen=True)
class LeHDCConfig:
    """Configuration of a :class:`LeHDC` classifier.

    Attributes
    ----------
    dimension:
        Hypervector dimensionality ``D``.
    num_levels:
        ID-Level quantization levels ``L``.
    epochs:
        Gradient-descent epochs.
    batch_size:
        Mini-batch size.
    learning_rate:
        SGD step size on the latent full-precision weights.
    momentum:
        Classical momentum coefficient.
    weight_clip:
        Latent weights are clipped into ``[-weight_clip, +weight_clip]``
        after every step (standard BNN practice to keep the STE well-posed).
    seed:
        Seed for encoder and weight initialization.
    """

    dimension: int = 2048
    num_levels: int = 256
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_clip: float = 1.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.num_levels < 2:
            raise ValueError("num_levels must be >= 2")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_clip <= 0:
            raise ValueError("weight_clip must be positive")


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-subtraction stabilization."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class LeHDC(BipolarAMClassifier):
    """BNN-style trained binary HDC classifier."""

    name = "LeHDC"

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        config: Optional[LeHDCConfig] = None,
        rng: Optional[Union[int, np.random.Generator]] = None,
        encoder: Optional[IDLevelEncoder] = None,
    ) -> None:
        if num_features <= 0 or num_classes <= 0:
            raise ValueError("num_features and num_classes must be positive")
        self.config = config or LeHDCConfig()
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
        self._latent: Optional[np.ndarray] = None
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
        if np.any(y >= self.num_classes):
            raise ValueError("label outside the configured number of classes")
        encoded = self.encoder.encode(x).astype(np.float64)
        history = TrainingHistory()

        dim = self.config.dimension
        scale = 1.0 / np.sqrt(dim)
        self._latent = self._rng.normal(0.0, 0.1, size=(self.num_classes, dim))
        self._am = bipolarize(self._latent).astype(np.float64)
        history.initial_accuracy = accuracy(self._predict_encoded(encoded), y)

        velocity = np.zeros_like(self._latent)
        one_hot = np.zeros((y.size, self.num_classes), dtype=np.float64)
        one_hot[np.arange(y.size), y] = 1.0

        for _ in range(self.config.epochs):
            order = self._rng.permutation(x.shape[0])
            updates = 0
            for start in range(0, order.size, self.config.batch_size):
                batch = order[start : start + self.config.batch_size]
                h = encoded[batch]
                binary_weights = bipolarize(self._latent).astype(np.float64)
                logits = scale * (h @ binary_weights.T)
                probs = _softmax(logits)
                error = probs - one_hot[batch]  # (b, k)
                # STE: gradient w.r.t. binary weights applied to the latent
                # weights directly.
                grad = scale * (error.T @ h) / batch.size
                velocity = (
                    self.config.momentum * velocity - self.config.learning_rate * grad
                )
                self._latent = np.clip(
                    self._latent + velocity,
                    -self.config.weight_clip,
                    self.config.weight_clip,
                )
                updates += batch.size
            self._am = bipolarize(self._latent).astype(np.float64)
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
            "LeHDC",
            num_features=self.num_features,
            dimension=self.config.dimension,
            num_classes=self.num_classes,
            num_levels=self.config.num_levels,
        )

    # ---------------------------------------------------------- persistence
    def checkpoint_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays that fully describe this fitted model for checkpointing."""
        if self._latent is None or self._am is None:
            raise RuntimeError("model has not been fitted")
        return {
            "encoder_id_vectors": self.encoder.id_vectors,
            "encoder_level_vectors": self.encoder.level_vectors,
            "latent": self._latent,
            "binary_am": self._am,
        }

    @classmethod
    def from_checkpoint(
        cls,
        num_features: int,
        num_classes: int,
        config: LeHDCConfig,
        arrays: Dict[str, np.ndarray],
        encoder_meta: Optional[Dict] = None,
    ) -> "LeHDC":
        """Rebuild a fitted model from :meth:`checkpoint_arrays` output."""
        meta = encoder_meta or {}
        encoder = IDLevelEncoder.from_vectors(
            arrays["encoder_id_vectors"],
            arrays["encoder_level_vectors"],
            value_range=(meta.get("value_low", 0.0), meta.get("value_high", 1.0)),
            quantize_output=meta.get("quantize_output", True),
        )
        model = cls(num_features, num_classes, config, rng=config.seed, encoder=encoder)
        model._latent = np.asarray(arrays["latent"], dtype=np.float64)
        model._am = np.asarray(arrays["binary_am"], dtype=np.float64)
        return model

    # ------------------------------------------------------------ internals
    def _predict_encoded(self, encoded: np.ndarray) -> np.ndarray:
        return np.argmax(np.atleast_2d(encoded @ self._am.T), axis=1)
