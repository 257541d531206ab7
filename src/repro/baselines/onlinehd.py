"""OnlineHD: similarity-weighted single-pass/iterative HDC baseline.

OnlineHD (Hernandez-Cano et al., DATE 2021) is a widely-used non-binary HDC
baseline that improves on BasicHDC's naive bundling by weighting every
update with how *novel* the sample is to its class vector:

* during the initial pass a sample that is already well represented by its
  class vector contributes little (weight ``1 - similarity``), while a
  poorly-represented sample contributes strongly;
* during iterative refinement, mispredicted samples pull their true class
  vector up and the wrongly-winning class vector down, both scaled by how
  confident the wrong decision was.

It is not part of the paper's Table I (which only compares binary models),
but it is the natural "stronger floating-point baseline" reviewers ask
about, so the reproduction ships it alongside the paper's four baselines.
The model keeps a floating-point associative memory (one vector per class)
and uses projection encoding, so its memory footprint is reported with
32-bit AM entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.baselines.base import HDCClassifier, TrainingHistory
from repro.eval.metrics import accuracy
from repro.hdc.encoders import RandomProjectionEncoder, check_encoder_shape
from repro.hdc.engine import check_engine
from repro.hdc.hypervector import _as_generator
from repro.hdc.memory_model import MemoryReport, projection_encoder_bits


@dataclass(frozen=True)
class OnlineHDConfig:
    """Configuration of an :class:`OnlineHD` classifier.

    Attributes
    ----------
    dimension:
        Hypervector dimensionality ``D``.
    epochs:
        Iterative refinement epochs after the similarity-weighted initial
        pass.
    learning_rate:
        Scale of the refinement updates.
    bipolar_encoding:
        When True (default) the encoder output is sign-quantized; when False
        the raw real-valued projections are used (closer to the original
        OnlineHD, slightly stronger, more memory for queries).
    seed:
        Seed for the projection matrix.
    """

    dimension: int = 2048
    epochs: int = 20
    learning_rate: float = 0.035
    bipolar_encoding: bool = True
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


class OnlineHD(HDCClassifier):
    """Similarity-weighted floating-point HDC classifier (OnlineHD)."""

    name = "OnlineHD"

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        config: Optional[OnlineHDConfig] = None,
        rng: Optional[Union[int, np.random.Generator]] = None,
        encoder: Optional[RandomProjectionEncoder] = None,
    ) -> None:
        if num_features <= 0 or num_classes <= 0:
            raise ValueError("num_features and num_classes must be positive")
        self.config = config or OnlineHDConfig()
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
                quantize_output=self.config.bipolar_encoding,
                rng=self._rng,
            )
        self._am: Optional[np.ndarray] = None

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
        encoded = np.asarray(self.encoder.encode(x), dtype=np.float64)
        history = TrainingHistory()

        self._am = np.zeros((self.num_classes, self.config.dimension), dtype=np.float64)
        # Similarity-weighted single pass.
        order = self._rng.permutation(x.shape[0])
        for index in order:
            hv = encoded[index]
            label = y[index]
            similarity = self._cosine_to_class(hv, label)
            self._am[label] += (1.0 - similarity) * hv
        history.initial_accuracy = accuracy(self._predict_encoded(encoded), y)

        rate = self.config.learning_rate
        for _ in range(self.config.epochs):
            updates = 0
            order = self._rng.permutation(x.shape[0])
            for index in order:
                hv = encoded[index]
                label = y[index]
                scores = self._cosine_scores(hv)
                predicted = int(np.argmax(scores))
                if predicted == label:
                    continue
                updates += 1
                self._am[label] += rate * (1.0 - scores[label]) * hv
                self._am[predicted] -= rate * (1.0 - scores[predicted]) * hv
            history.updates.append(updates)
            history.train_accuracy.append(accuracy(self._predict_encoded(encoded), y))
            if validation is not None:
                val_x, val_y = validation
                history.validation_accuracy.append(self.score(val_x, val_y))
            if updates == 0:
                break

        if not history.train_accuracy:
            history.train_accuracy.append(history.initial_accuracy)
        return history

    def predict(self, features: np.ndarray, engine: str = "float") -> np.ndarray:
        """Classify raw features.

        OnlineHD keeps a floating-point associative memory, so only the
        ``"float"`` engine exists; requesting ``"packed"`` raises
        :class:`ValueError` (the 1-bit popcount engine cannot represent FP
        class vectors).  The parameter is accepted so every classifier in
        the repository shares one engine-selecting signature.
        """
        self._check_engine(engine)
        if self._am is None:
            raise RuntimeError("OnlineHD.predict called before fit")
        encoded = np.asarray(
            self.encoder.encode(np.asarray(features, dtype=np.float64)),
            dtype=np.float64,
        )
        if encoded.ndim == 1:
            encoded = encoded[None, :]
        return self._predict_encoded(encoded)

    def prepare_engine(self, engine: str = "float") -> None:
        """Pipeline warm-up hook: fails fast on the unsupported engine."""
        self._check_engine(engine)

    @staticmethod
    def _check_engine(engine: str) -> None:
        if check_engine(engine) != "float":
            raise ValueError(
                "OnlineHD keeps a floating-point associative memory; the "
                f"{engine} engine (1-bit popcount search) is unavailable "
                "for this model"
            )

    def memory_report(self) -> MemoryReport:
        """Projection encoder (1-bit cells) plus a 32-bit FP class-vector AM."""
        encoder_bits = projection_encoder_bits(self.num_features, self.config.dimension)
        am_bits = self.num_classes * self.config.dimension * 32
        return MemoryReport(model=self.name, encoder_bits=encoder_bits, am_bits=am_bits)

    # ---------------------------------------------------------- persistence
    def checkpoint_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays that fully describe this fitted model for checkpointing."""
        if self._am is None:
            raise RuntimeError("model has not been fitted")
        return {
            "encoder_projection": self.encoder.projection,
            "am": self._am,
        }

    @classmethod
    def from_checkpoint(
        cls,
        num_features: int,
        num_classes: int,
        config: OnlineHDConfig,
        arrays: Dict[str, np.ndarray],
        encoder_meta: Optional[Dict] = None,
    ) -> "OnlineHD":
        """Rebuild a fitted model from :meth:`checkpoint_arrays` output."""
        meta = encoder_meta or {}
        encoder = RandomProjectionEncoder.from_projection(
            arrays["encoder_projection"],
            binary_projection=meta.get("binary_projection", True),
            quantize_output=meta.get("quantize_output", config.bipolar_encoding),
        )
        model = cls(num_features, num_classes, config, rng=config.seed, encoder=encoder)
        model._am = np.asarray(arrays["am"], dtype=np.float64)
        return model

    # ------------------------------------------------------------ internals
    @property
    def associative_memory(self) -> np.ndarray:
        """The floating-point class-vector matrix (``(k, D)``)."""
        if self._am is None:
            raise RuntimeError("model has not been fitted")
        return self._am

    def _cosine_scores(self, hv: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(self._am, axis=1)
        norms = np.where(norms > 0.0, norms, 1.0)
        hv_norm = np.linalg.norm(hv)
        hv_norm = hv_norm if hv_norm > 0 else 1.0
        return (self._am @ hv) / (norms * hv_norm)

    def _cosine_to_class(self, hv: np.ndarray, label: int) -> float:
        return float(self._cosine_scores(hv)[label])

    def _predict_encoded(self, encoded: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(self._am, axis=1)
        norms = np.where(norms > 0.0, norms, 1.0)
        scores = encoded @ self._am.T / norms[None, :]
        return np.argmax(scores, axis=1)
