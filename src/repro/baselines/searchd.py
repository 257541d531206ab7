"""SearcHD: multi-model binary HDC with stochastic training.

SearcHD (Imani et al., TCAD 2019) is the baseline the paper singles out as
"the multi-model structure most similar to our approach": instead of one
class vector per class it keeps ``N`` binary vectors per class (the paper
fixes N = 64 when reporting memory).  Training is single-pass and fully
binary: for every training sample the most similar of the true class's N
vectors is selected and pulled toward the sample by *stochastic bit
flipping* -- each disagreeing bit position flips with a probability that
plays the role of a learning rate.

The crucial difference from MEMHD is that SearcHD's N vectors are not
placed or sized to match an IMC array, and its ID-Level encoding is not
MVM-compatible, so it inherits the utilization problems of Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.baselines.base import BipolarAMClassifier, TrainingHistory
from repro.hdc.encoders import IDLevelEncoder, check_encoder_shape
from repro.hdc.engine import BinaryAMEngine
from repro.hdc.hypervector import _as_generator, random_bipolar_hypervectors
from repro.hdc.memory_model import MemoryReport, model_memory_report
from repro.hdc.similarity import dot_similarity
from repro.eval.metrics import accuracy


@dataclass(frozen=True)
class SearcHDConfig:
    """Configuration of a :class:`SearcHD` classifier.

    Attributes
    ----------
    dimension:
        Hypervector dimensionality ``D``.
    num_models:
        Number of binary class vectors per class ``N`` (64 in the paper's
        memory accounting; smaller values keep laptop-scale experiments
        fast while preserving the algorithm).
    num_levels:
        ID-Level quantization levels ``L``.
    flip_probability:
        Probability that a disagreeing bit is flipped toward the training
        sample during an update (the stochastic learning rate).
    epochs:
        Number of passes over the training data.  SearcHD is nominally
        single-pass (epochs=1), additional passes simply repeat the
        stochastic update.
    seed:
        Seed for encoder and class-vector initialization.
    """

    dimension: int = 2048
    num_models: int = 64
    num_levels: int = 256
    flip_probability: float = 0.25
    epochs: int = 1
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.num_models < 1:
            raise ValueError("num_models must be >= 1")
        if self.num_levels < 2:
            raise ValueError("num_levels must be >= 2")
        if not 0.0 < self.flip_probability <= 1.0:
            raise ValueError("flip_probability must be in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


class SearcHD(BipolarAMClassifier):
    """Multi-model binary HDC with stochastic bit-flip training."""

    name = "SearcHD"

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        config: Optional[SearcHDConfig] = None,
        rng: Optional[Union[int, np.random.Generator]] = None,
        encoder: Optional[IDLevelEncoder] = None,
    ) -> None:
        if num_features <= 0 or num_classes <= 0:
            raise ValueError("num_features and num_classes must be positive")
        self.config = config or SearcHDConfig()
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
        # (k, N, D) bipolar class-vector tensor; the engine searches it as
        # flat (k * N, D) rows, N per class.
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
        encoded = self.encoder.encode(x).astype(np.int8)  # bipolar
        history = TrainingHistory()

        k, n_models, dim = self.num_classes, self.config.num_models, self.config.dimension
        # SearcHD seeds each class's N binary vectors from encoded training
        # samples of that class (falling back to random hypervectors for
        # classes with no data), then refines them by stochastic bit flips.
        am = random_bipolar_hypervectors(k * n_models, dim, self._rng).reshape(
            k, n_models, dim
        )
        for class_label in range(k):
            members = np.flatnonzero(y == class_label)
            if members.size == 0:
                continue
            chosen = self._rng.choice(
                members, size=n_models, replace=members.size < n_models
            )
            am[class_label] = encoded[chosen]
        self._am = am
        history.initial_accuracy = accuracy(self._predict_encoded(encoded), y)

        for _ in range(self.config.epochs):
            updates = self._stochastic_pass(encoded, y)
            history.updates.append(updates)
            history.train_accuracy.append(
                accuracy(self._predict_encoded(encoded), y)
            )
            if validation is not None:
                val_x, val_y = validation
                history.validation_accuracy.append(self.score(val_x, val_y))
        return history

    def memory_report(self) -> MemoryReport:
        return model_memory_report(
            "SearcHD",
            num_features=self.num_features,
            dimension=self.config.dimension,
            num_classes=self.num_classes,
            num_levels=self.config.num_levels,
            quantization_factor=self.config.num_models,
        )

    # ---------------------------------------------------------- persistence
    def checkpoint_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays that fully describe this fitted model for checkpointing."""
        if self._am is None:
            raise RuntimeError("model has not been fitted")
        return {
            "encoder_id_vectors": self.encoder.id_vectors,
            "encoder_level_vectors": self.encoder.level_vectors,
            "am": self._am,
        }

    @classmethod
    def from_checkpoint(
        cls,
        num_features: int,
        num_classes: int,
        config: SearcHDConfig,
        arrays: Dict[str, np.ndarray],
        encoder_meta: Optional[Dict] = None,
    ) -> "SearcHD":
        """Rebuild a fitted model from :meth:`checkpoint_arrays` output."""
        meta = encoder_meta or {}
        encoder = IDLevelEncoder.from_vectors(
            arrays["encoder_id_vectors"],
            arrays["encoder_level_vectors"],
            value_range=(meta.get("value_low", 0.0), meta.get("value_high", 1.0)),
            quantize_output=meta.get("quantize_output", True),
        )
        model = cls(num_features, num_classes, config, rng=config.seed, encoder=encoder)
        am = np.asarray(arrays["am"], dtype=np.int8)
        if am.ndim != 3:
            raise ValueError("SearcHD checkpoint AM must be a (k, N, D) tensor")
        model._am = am
        return model

    # ------------------------------------------------------------ internals
    def _predict_encoded(self, encoded: np.ndarray) -> np.ndarray:
        """Classify by the most similar of all ``k * N`` class vectors."""
        k, n_models, dim = self._am.shape
        flat = self._am.reshape(k * n_models, dim).astype(np.float64)
        scores = dot_similarity(encoded.astype(np.float64), flat)
        best = np.argmax(np.atleast_2d(scores), axis=1)
        return best // n_models

    def _stochastic_pass(self, encoded: np.ndarray, labels: np.ndarray) -> int:
        """One stochastic-training pass; returns the number of updates applied."""
        assert self._am is not None
        updates = 0
        for index in range(encoded.shape[0]):
            hv = encoded[index].astype(np.float64)
            true_class = int(labels[index])
            class_vectors = self._am[true_class].astype(np.float64)
            sims = class_vectors @ hv
            target = int(np.argmax(sims))
            disagree = self._am[true_class, target] != encoded[index]
            if not np.any(disagree):
                continue
            flips = disagree & (
                self._rng.random(self.config.dimension) < self.config.flip_probability
            )
            if np.any(flips):
                self._am[true_class, target, flips] = encoded[index, flips]
                updates += 1
        if updates:
            # The flips above wrote in place; re-assign through the setter
            # so the engine drops its stale packed/pruned copies.
            self._am = self._am
        return updates
