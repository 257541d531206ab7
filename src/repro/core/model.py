"""End-to-end MEMHD classifier.

:class:`MEMHDModel` ties together the building blocks of Sec. III:

* a binary random-projection encoder whose output dimensionality ``D``
  matches the IMC array's row count,
* the multi-centroid associative memory with ``C`` columns matching the
  array's column count,
* clustering-based (or random-sampling) initialization,
* mean-threshold 1-bit quantization, and
* quantization-aware iterative learning.

It implements the same :class:`repro.baselines.base.HDCClassifier`
interface as the baselines so the evaluation harness treats every model
uniformly, and it exposes the binary artifacts (projection matrix and AM)
that :mod:`repro.imc` maps into IMC arrays for in-memory inference.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.baselines.base import BinaryAMClassifier, TrainingHistory
from repro.core.associative_memory import MultiCentroidAM
from repro.core.config import MEMHDConfig
from repro.core.initialization import (
    InitializationResult,
    clustering_initialization,
    random_sampling_initialization,
)
from repro.core.training import QuantizationAwareTrainer, pack_encodings
from repro.hdc.encoders import RandomProjectionEncoder, check_encoder_shape
from repro.hdc.engine import BinaryAMEngine, check_engine
from repro.hdc.hypervector import _as_generator
from repro.hdc.memory_model import MemoryReport, model_memory_report
from repro.runtime.pipeline import InferencePipeline


class MEMHDModel(BinaryAMClassifier):
    """Memory-efficient multi-centroid HDC classifier (the paper's model)."""

    name = "MEMHD"

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        config: Optional[MEMHDConfig] = None,
        rng: Optional[Union[int, np.random.Generator]] = None,
        encoder: Optional[RandomProjectionEncoder] = None,
    ) -> None:
        if num_features <= 0 or num_classes <= 0:
            raise ValueError("num_features and num_classes must be positive")
        self.config = config or MEMHDConfig()
        self.config.validate_for(num_classes)
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
                binary_projection=self.config.binary_projection,
                rng=self._rng,
            )
        self._am: Optional[MultiCentroidAM] = None
        self._init_result: Optional[InitializationResult] = None

    # ------------------------------------------------------------------ API
    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        validation: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> TrainingHistory:
        """Initialize, quantize and train the multi-centroid AM.

        Parameters
        ----------
        features:
            ``(n, f)`` raw training features.
        labels:
            ``(n,)`` integer training labels in ``[0, num_classes)``.
        validation:
            Optional ``(features, labels)`` pair whose accuracy is recorded
            after every training epoch.
        """
        x, y = self._check_fit_inputs(features, labels)
        if np.any(y >= self.num_classes):
            raise ValueError("label outside the configured number of classes")
        encoded = self.encode_binary(x)
        # Checked and packed once for the initialization and the trainer.
        packed = pack_encodings(encoded)

        if self.config.init_method == "clustering":
            init = clustering_initialization(
                encoded,
                y,
                columns=self.config.columns,
                num_classes=self.num_classes,
                cluster_ratio=self.config.cluster_ratio,
                kmeans_iterations=self.config.kmeans_iterations,
                allocation_rounds=self.config.allocation_rounds,
                threshold_mode=self.config.threshold_mode,
                normalization=self.config.normalization,
                rng=self._rng,
                packed=packed,
            )
        else:
            init = random_sampling_initialization(
                encoded,
                y,
                columns=self.config.columns,
                num_classes=self.num_classes,
                rng=self._rng,
            )
        self._init_result = init

        self._am = MultiCentroidAM(
            init.fp_memory,
            init.column_classes,
            num_classes=self.num_classes,
            threshold_mode=self.config.threshold_mode,
            normalization=self.config.normalization,
        )

        trainer = QuantizationAwareTrainer(
            learning_rate=self.config.learning_rate,
            epochs=self.config.epochs,
            binary_update_interval=self.config.binary_update_interval,
            early_stop_patience=self.config.early_stop_patience,
            keep_best=self.config.keep_best,
        )
        validation_encoded = None
        if validation is not None:
            val_x, val_y = validation
            validation_encoded = (
                self.encode_binary(np.asarray(val_x, dtype=np.float64)),
                np.asarray(val_y, dtype=np.int64),
            )
        return trainer.train(
            self._am, encoded, y, validation=validation_encoded, rng=self._rng,
            packed=packed,
        )

    def predict(self, features: np.ndarray, engine: str = "float") -> np.ndarray:
        """Associative-search classification of raw feature vectors.

        Parameters
        ----------
        features:
            ``(n, f)`` or ``(f,)`` raw feature vectors.
        engine:
            ``"float"`` evaluates similarities with the reference matmul
            path; ``"packed"`` uses the bit-packed popcount engine;
            ``"pruned"`` adds centroid-pruned shortlist search on top of
            the packed kernels.  All three produce bit-identical
            predictions.  The packed and pruned engines take their query
            words straight from
            :meth:`~repro.hdc.encoders.RandomProjectionEncoder.encode_packed`.
        """
        am = self._require_am()
        x = np.asarray(features, dtype=np.float64)
        if check_engine(engine) == "float":
            return am.predict(np.atleast_2d(self.encode_binary(x)))
        return am.engine.predict(self.encoder.encode_packed(x), engine)

    def memory_report(self) -> MemoryReport:
        """Table I breakdown: ``f*D`` encoder bits plus ``C*D`` AM bits."""
        return model_memory_report(
            "MEMHD",
            num_features=self.num_features,
            dimension=self.config.dimension,
            num_classes=self.num_classes,
            num_columns=self.config.columns,
        )

    # ----------------------------------------------------------- inspection
    @property
    def engine(self) -> BinaryAMEngine:
        """The packed/pruned engine of the trained AM's binary memory."""
        return self._require_am().engine

    @property
    def associative_memory(self) -> MultiCentroidAM:
        """The trained multi-centroid AM."""
        return self._require_am()

    @property
    def initialization(self) -> InitializationResult:
        """Details of the initialization phase (allocation rounds, etc.)."""
        if self._init_result is None:
            raise RuntimeError("model has not been fitted")
        return self._init_result

    @property
    def shape_label(self) -> str:
        """Paper-style ``DxC`` label of this model (e.g. ``"128x128"``)."""
        return self.config.shape_label

    def encode_binary(self, features: np.ndarray) -> np.ndarray:
        """Encode features into binary ``{0, 1}`` query hypervectors.

        This is the exact bit pattern an IMC implementation would drive onto
        the AM array's rows, so both the software model and the functional
        IMC simulator consume it.  Returned as ``int8``; bit for bit
        ``to_binary(encoder.encode(features))``.
        """
        return self.encoder.encode_binary(features)

    def projection_matrix_binary(self) -> np.ndarray:
        """The encoder's projection matrix as mapped into the IMC array."""
        return self.encoder.projection_binary

    def class_scores(self, features: np.ndarray, engine: str = "float") -> np.ndarray:
        """Per-class best-centroid similarity scores for raw features.

        Pruning only accelerates the argmax, so ``engine="pruned"``
        evaluates full per-class scores through the packed engine.
        """
        am = self._require_am()
        x = np.asarray(features, dtype=np.float64)
        if check_engine(engine) == "float":
            return am.class_scores(np.atleast_2d(self.encode_binary(x)))
        return am.packed().class_scores(self.encoder.encode_packed(x))

    def make_pipeline(
        self,
        engine: str = "packed",
        chunk_size: int = 1024,
        workers: int = 1,
    ) -> InferencePipeline:
        """Batched serving pipeline over this model (defaults to packed)."""
        self._require_am()
        return InferencePipeline(
            self, engine=engine, chunk_size=chunk_size, workers=workers
        )

    # ---------------------------------------------------------- persistence
    def checkpoint_arrays(self) -> Dict[str, np.ndarray]:
        """Arrays that fully describe this fitted model for checkpointing.

        Returns
        -------
        dict
            ``encoder_projection`` plus the associative memory's arrays
            (``fp_memory``, ``binary_memory``, ``column_classes``).
            Training telemetry (:attr:`initialization`, epoch history) is
            deliberately not checkpointed; only what inference and further
            training need.
        """
        am = self._require_am()
        arrays = {"encoder_projection": self.encoder.projection}
        arrays.update(am.checkpoint_arrays())
        return arrays

    @classmethod
    def from_checkpoint(
        cls,
        num_features: int,
        num_classes: int,
        config: MEMHDConfig,
        arrays: Dict[str, np.ndarray],
        encoder_meta: Optional[Dict] = None,
    ) -> "MEMHDModel":
        """Rebuild a fitted model from :meth:`checkpoint_arrays` output.

        The restored model predicts bit-identically to the saved one on
        both the float and the packed engine; it can also keep training
        (the float shadow memory is part of the checkpoint), though epoch
        history and initialization telemetry start fresh.
        """
        meta = encoder_meta or {}
        encoder = RandomProjectionEncoder.from_projection(
            arrays["encoder_projection"],
            binary_projection=meta.get("binary_projection", config.binary_projection),
            quantize_output=meta.get("quantize_output", True),
        )
        model = cls(num_features, num_classes, config, rng=config.seed, encoder=encoder)
        model._am = MultiCentroidAM.from_checkpoint(
            arrays,
            num_classes=num_classes,
            threshold_mode=config.threshold_mode,
            normalization=config.normalization,
        )
        if model._am.dimension != config.dimension:
            raise ValueError(
                f"checkpoint AM dimension {model._am.dimension} does not "
                f"match config dimension {config.dimension}"
            )
        return model

    # ------------------------------------------------------------ internals
    def _require_am(self) -> MultiCentroidAM:
        if self._am is None:
            raise RuntimeError("MEMHDModel has not been fitted yet")
        return self._am
