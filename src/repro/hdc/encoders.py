"""Feature-vector to hypervector encoders.

Two encoder families appear in the paper (Sec. II-B):

``RandomProjectionEncoder``
    ``H = M^T F`` -- a matrix-vector multiplication between a fixed random
    ``f x D`` projection matrix ``M`` and the ``f``-dimensional input ``F``.
    This encoder maps directly onto an IMC array (the projection matrix is
    stored in the array, the input drives the rows), which is why BasicHDC
    and MEMHD use it.

``IDLevelEncoder``
    ``H = sum_i ID_i * L_{x_i}`` -- each feature position gets a random
    *ID* hypervector and each quantized feature value a correlated *level*
    hypervector; the encoding binds them per position and bundles across
    positions.  SearcHD, QuantHD and LeHDC use this encoder (with
    ``L = 256`` levels in the paper's evaluation).

Both encoders expose the same small interface (:class:`Encoder`) so that the
classifiers and the evaluation harness can treat them interchangeably.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple, Union

import numpy as np

from repro.hdc.hypervector import (
    _as_generator,
    bipolarize,
    level_hypervectors,
    random_bipolar_hypervectors,
    random_gaussian_hypervectors,
    to_binary,
)
from repro.hdc.packed import PackedVectors, pack_binary


class Encoder(abc.ABC):
    """Common interface for feature-to-hypervector encoders.

    Attributes
    ----------
    num_features:
        Expected input feature dimensionality ``f``.
    dimension:
        Output hypervector dimensionality ``D``.
    """

    def __init__(self, num_features: int, dimension: int) -> None:
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self.num_features = int(num_features)
        self.dimension = int(dimension)

    @abc.abstractmethod
    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode a ``(n, f)`` batch (or single ``(f,)`` vector) of features.

        Returns a ``(n, D)`` (or ``(D,)``) array of encoded hypervectors.
        The output alphabet depends on the encoder configuration (bipolar by
        default).
        """

    @abc.abstractmethod
    def memory_bits(self) -> int:
        """Number of bits needed to store the encoder parameters."""

    def __call__(self, features: np.ndarray) -> np.ndarray:
        return self.encode(features)

    def _validate(self, features: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Coerce features to a ``(n, f)`` float64 batch.

        Returns the batch and whether the input was a single ``(f,)``
        vector (so the caller squeezes its result).  The flag is returned,
        never stored on the encoder: one encoder serves concurrent callers.
        """
        arr = np.asarray(features, dtype=np.float64)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise ValueError(f"expected 1-D or 2-D features, got ndim={arr.ndim}")
        if arr.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got {arr.shape[1]}"
            )
        return arr, squeeze


def check_encoder_shape(encoder: Encoder, num_features: int, dimension: int) -> Encoder:
    """Validate that an adopted encoder matches a model's expected shape.

    Models accept a pre-built ``encoder`` (checkpoint restoration, encoder
    sharing) instead of drawing fresh random codebooks; this guards the
    hand-off.

    Parameters
    ----------
    encoder:
        The encoder being adopted.
    num_features / dimension:
        The input width ``f`` and hypervector dimensionality ``D`` the
        model was configured for.

    Returns
    -------
    Encoder
        ``encoder``, unchanged.

    Raises
    ------
    ValueError
        When the encoder's shape disagrees with the model's configuration.
    """
    if (encoder.num_features, encoder.dimension) != (num_features, dimension):
        raise ValueError(
            f"encoder shape ({encoder.num_features}, {encoder.dimension}) does "
            f"not match the model configuration ({num_features}, {dimension})"
        )
    return encoder


class RandomProjectionEncoder(Encoder):
    """Random-projection (MVM) encoder: ``H = sign(M^T F)``.

    Parameters
    ----------
    num_features:
        Input feature dimensionality ``f``.
    dimension:
        Output hypervector dimensionality ``D``.
    binary_projection:
        When ``True`` (default, matching the paper's IMC mapping) the
        projection matrix entries are drawn from ``{-1, +1}`` and are stored
        in the IMC array as single bits.  When ``False`` a dense Gaussian
        matrix is used (the floating-point variant of the paper's Ref. [12]).
    quantize_output:
        When ``True`` (default) the projected vector is passed through the
        sign function, producing a bipolar hypervector; when ``False`` the
        raw real-valued projection is returned.
    rng:
        Seed or generator for the projection matrix.
    """

    def __init__(
        self,
        num_features: int,
        dimension: int,
        binary_projection: bool = True,
        quantize_output: bool = True,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        super().__init__(num_features, dimension)
        gen = _as_generator(rng)
        self.binary_projection = bool(binary_projection)
        self.quantize_output = bool(quantize_output)
        if binary_projection:
            # (f, D) bipolar matrix; column d is the base hypervector B_d.
            self.projection = random_bipolar_hypervectors(
                num_features, dimension, gen
            ).astype(np.int8)
        else:
            self.projection = random_gaussian_hypervectors(
                num_features, dimension, gen, scale=1.0 / np.sqrt(num_features)
            )

    @classmethod
    def from_projection(
        cls,
        projection: np.ndarray,
        binary_projection: bool = True,
        quantize_output: bool = True,
    ) -> "RandomProjectionEncoder":
        """Rebuild an encoder around an existing projection matrix.

        Used by checkpoint restoration (:mod:`repro.io.checkpoint`): the
        saved ``(f, D)`` projection matrix is adopted verbatim instead of
        drawing a fresh random one, so a restored encoder produces
        bit-identical hypervectors.

        Parameters
        ----------
        projection:
            ``(f, D)`` projection matrix (bipolar ``int8`` entries when
            ``binary_projection`` is true, ``float64`` otherwise).
        binary_projection:
            Whether ``projection`` holds ``{-1, +1}`` single-bit entries.
        quantize_output:
            Whether :meth:`encode` sign-quantizes its output.

        Returns
        -------
        RandomProjectionEncoder
            An encoder whose :meth:`encode` matches the saved one bit for
            bit.
        """
        matrix = np.asarray(projection)
        if matrix.ndim != 2:
            raise ValueError("projection must be a 2-D (f, D) matrix")
        self = object.__new__(cls)
        Encoder.__init__(self, matrix.shape[0], matrix.shape[1])
        self.binary_projection = bool(binary_projection)
        self.quantize_output = bool(quantize_output)
        if binary_projection:
            self.projection = matrix.astype(np.int8)
        else:
            self.projection = matrix.astype(np.float64)
        return self

    @property
    def projection(self) -> np.ndarray:
        """The ``(f, D)`` projection matrix ``M``.

        Bipolar ``int8`` (binary projection) or Gaussian float: the matrix
        that is checkpointed and mapped into the IMC array.
        """
        return self._projection

    @projection.setter
    def projection(self, value: np.ndarray) -> None:
        # Assignment drops the float64 widening; in-place writes into the
        # matrix are not tracked (assign a new matrix instead).
        self._projection = value
        self._widened = None

    def widened_projection(self) -> np.ndarray:
        """The projection as float64, the operand of every encode GEMM.

        Built on first use and cached until :attr:`projection` is assigned
        (``f * D * 8`` bytes; never checkpointed).  The cache is keyed on
        the matrix it was widened from, so a concurrent assignment can
        never leave a stale widening behind.
        """
        projection = self._projection
        cached = self._widened
        if cached is None or cached[0] is not projection:
            cached = (projection, projection.astype(np.float64, copy=False))
            self._widened = cached
        return cached[1]

    def encode(self, features: np.ndarray) -> np.ndarray:
        arr, squeeze = self._validate(features)
        projected = arr @ self.widened_projection()
        if self.quantize_output:
            encoded = bipolarize(projected)
        else:
            encoded = projected.astype(np.float32)
        return encoded[0] if squeeze else encoded

    def encode_packed(self, features: np.ndarray) -> PackedVectors:
        """Encode straight to bit-packed binary query words.

        Packs ``M^T F >= 0`` -- the predicate :func:`bipolarize` applies
        (ties go to bit 1, NaN to bit 0) -- so the result equals
        ``pack_binary(to_binary(encode(features)))`` bit for bit without
        materializing the bipolar or ``{0, 1}`` arrays.  A single ``(f,)``
        vector becomes a one-row batch, as with :func:`pack_binary`.
        """
        if not self.quantize_output:
            raise ValueError("encode_packed requires quantize_output=True")
        arr, _ = self._validate(features)
        return pack_binary(arr @ self.widened_projection() >= 0, validate=False)

    def encode_binary(self, features: np.ndarray) -> np.ndarray:
        """Encode straight to the ``{0, 1}`` (``int8``) hypervectors.

        ``M^T F >= 0`` as ``int8``: the predicate :meth:`encode_packed`
        packs, so it equals ``to_binary(encode(features))`` bit for bit
        (ties to 1, NaN to 0) without the bipolar intermediate.
        """
        if not self.quantize_output:
            raise ValueError("encode_binary requires quantize_output=True")
        arr, squeeze = self._validate(features)
        encoded = (arr @ self.widened_projection() >= 0).astype(np.int8)
        return encoded[0] if squeeze else encoded

    def memory_bits(self) -> int:
        """Encoder storage: ``f * D`` cells (1 bit binary, 32 bits FP)."""
        bits_per_entry = 1 if self.binary_projection else 32
        return self.num_features * self.dimension * bits_per_entry

    @property
    def projection_binary(self) -> np.ndarray:
        """The projection matrix in ``{0, 1}`` form, as mapped into the array."""
        if not self.binary_projection:
            raise ValueError("projection_binary requires binary_projection=True")
        return to_binary(self.projection)


class IDLevelEncoder(Encoder):
    """ID-Level encoder: ``H = sign(sum_i ID_i * L_{x_i})``.

    Each of the ``f`` feature positions owns a random bipolar *ID*
    hypervector; feature values are linearly quantized into ``num_levels``
    buckets, each associated with a correlated *level* hypervector.  The
    encoding binds ID and level per position and bundles over positions.

    Parameters
    ----------
    num_features:
        Input feature dimensionality ``f``.
    dimension:
        Output hypervector dimensionality ``D``.
    num_levels:
        Number of quantization levels ``L`` (256 in the paper's baselines).
    value_range:
        ``(low, high)`` range used to quantize feature values.  Values
        outside the range are clipped.  Defaults to ``(0, 1)``, matching the
        library's normalized dataset preprocessing.
    quantize_output:
        When ``True`` (default) the bundled sum is sign-quantized to a
        bipolar hypervector.
    rng:
        Seed or generator for ID and level hypervector creation.
    """

    def __init__(
        self,
        num_features: int,
        dimension: int,
        num_levels: int = 256,
        value_range: tuple = (0.0, 1.0),
        quantize_output: bool = True,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        super().__init__(num_features, dimension)
        if num_levels < 2:
            raise ValueError(f"num_levels must be >= 2, got {num_levels}")
        low, high = float(value_range[0]), float(value_range[1])
        if not high > low:
            raise ValueError("value_range must satisfy high > low")
        gen = _as_generator(rng)
        self.num_levels = int(num_levels)
        self.value_low = low
        self.value_high = high
        self.quantize_output = bool(quantize_output)
        self.id_vectors = random_bipolar_hypervectors(num_features, dimension, gen)
        self.level_vectors = level_hypervectors(num_levels, dimension, gen)

    @classmethod
    def from_vectors(
        cls,
        id_vectors: np.ndarray,
        level_vectors: np.ndarray,
        value_range: tuple = (0.0, 1.0),
        quantize_output: bool = True,
    ) -> "IDLevelEncoder":
        """Rebuild an encoder around existing ID and level hypervectors.

        Used by checkpoint restoration (:mod:`repro.io.checkpoint`): the
        saved ID / level codebooks are adopted verbatim instead of drawing
        fresh random ones, so a restored encoder produces bit-identical
        hypervectors.

        Parameters
        ----------
        id_vectors:
            ``(f, D)`` bipolar per-position ID hypervectors.
        level_vectors:
            ``(L, D)`` correlated level hypervectors.
        value_range:
            ``(low, high)`` quantization range of the original encoder.
        quantize_output:
            Whether :meth:`encode` sign-quantizes its output.

        Returns
        -------
        IDLevelEncoder
            An encoder whose :meth:`encode` matches the saved one bit for
            bit.
        """
        ids = np.asarray(id_vectors)
        levels = np.asarray(level_vectors)
        if ids.ndim != 2 or levels.ndim != 2:
            raise ValueError("id_vectors and level_vectors must be 2-D")
        if ids.shape[1] != levels.shape[1]:
            raise ValueError("id_vectors and level_vectors dimension mismatch")
        if levels.shape[0] < 2:
            raise ValueError("need at least 2 level hypervectors")
        low, high = float(value_range[0]), float(value_range[1])
        if not high > low:
            raise ValueError("value_range must satisfy high > low")
        self = object.__new__(cls)
        Encoder.__init__(self, ids.shape[0], ids.shape[1])
        self.num_levels = int(levels.shape[0])
        self.value_low = low
        self.value_high = high
        self.quantize_output = bool(quantize_output)
        self.id_vectors = ids
        self.level_vectors = levels
        return self

    def quantize_values(self, features: np.ndarray) -> np.ndarray:
        """Map raw feature values to integer level indices in ``[0, L-1]``."""
        arr = np.asarray(features, dtype=np.float64)
        scaled = (arr - self.value_low) / (self.value_high - self.value_low)
        clipped = np.clip(scaled, 0.0, 1.0)
        return np.minimum(
            (clipped * self.num_levels).astype(np.int64), self.num_levels - 1
        )

    def encode(self, features: np.ndarray) -> np.ndarray:
        arr, squeeze = self._validate(features)
        levels = self.quantize_values(arr)  # (n, f) integer level indices
        n = arr.shape[0]
        accumulated = np.zeros((n, self.dimension), dtype=np.int64)
        # Bind each position's ID with the level hypervector of its value,
        # then bundle over positions.  Vectorized per sample batch over
        # feature positions to keep memory bounded for wide inputs.
        id_vectors = self.id_vectors.astype(np.int64)
        level_vectors = self.level_vectors.astype(np.int64)
        for position in range(self.num_features):
            level_rows = level_vectors[levels[:, position]]  # (n, D)
            accumulated += id_vectors[position][None, :] * level_rows
        if self.quantize_output:
            encoded = bipolarize(accumulated)
        else:
            encoded = accumulated.astype(np.float32)
        return encoded[0] if squeeze else encoded

    def memory_bits(self) -> int:
        """Encoder storage: ``(f + L) * D`` single-bit cells (Table I)."""
        return (self.num_features + self.num_levels) * self.dimension
