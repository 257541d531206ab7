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
import functools
import math
from fractions import Fraction
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.hdc import _packed_kernels as _kernels
from repro.hdc.hypervector import (
    _as_generator,
    bipolarize,
    level_hypervectors,
    random_bipolar_hypervectors,
    random_gaussian_hypervectors,
    to_binary,
)
from repro.hdc.packed import BINARY_ALPHABET, PackedVectors, pack_binary


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
        # Adopted without a copy: a memory-mapped matrix stays shared.
        dtype = np.int8 if binary_projection else np.float64
        self.projection = matrix.astype(dtype, copy=False)
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
        # Assignment drops the packer and the widening; in-place writes into
        # the matrix are not tracked (assign a new matrix instead).
        self._projection = value
        self._packer = None
        self._widened = None

    def widened_projection(self) -> np.ndarray:
        """The projection as the operand of an encode GEMM.

        float32 for a sign-quantizing binary encoder, exact for ``±1``
        (``f * D * 4`` bytes, stored column-major); float64 otherwise
        (``f * D * 8`` bytes, none when the matrix already is float64).
        Built on first use and cached until :attr:`projection` is assigned;
        never checkpointed.  A sign-quantizing binary encoder first uses it
        when a block of rows takes the GEMM (see :func:`_exact_sign_block`),
        so a process that only encodes small batches at a wide ``D`` never
        builds it.
        """
        return self._widen(self._projection)

    def _widen(self, projection: np.ndarray) -> np.ndarray:
        """:meth:`widened_projection` of ``projection``.

        The cache is keyed on the matrix it was widened from, so a
        concurrent assignment can never leave a stale widening behind.
        """
        cached = self._widened
        if cached is None or cached[0] is not projection:
            if self.binary_projection and self.quantize_output:
                widened = np.ascontiguousarray(projection.T, dtype=np.float32).T
            else:
                widened = projection.astype(np.float64, copy=False)
            cached = (projection, widened)
            self._widened = cached
        return cached[1]

    def _operands(self) -> Tuple[np.ndarray, Optional[_kernels.SignPacker]]:
        """``(projection, packer)``, built together and cached like the widening.

        ``packer`` holds the projection's bits (``D * ceil(f / 8)`` bytes)
        and certifies the exact-sign encode; None unless the encoder
        sign-quantizes a binary projection.
        """
        projection = self._projection
        cached = self._packer
        if cached is None or cached[0] is not projection:
            packer = None
            if self.binary_projection and self.quantize_output:
                if not (np.abs(projection) == 1).all():
                    raise ValueError("a binary projection holds -1 and +1 entries only")
                packer = _kernels.SignPacker(
                    projection.T, _bound_coefficients(self.num_features), _FAST_LIMIT
                )
            cached = (projection, packer)
            self._packer = cached
        return cached

    def _sign_words(self, features: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Packed sign bits of ``features`` and whether to squeeze the row.

        The one routine behind :meth:`encode`, :meth:`encode_binary` and
        :meth:`encode_packed`.  For the binary projection, bit ``d`` is the
        sign of the exact real sum ``sum_i M_id * x_i`` (see
        :func:`_exact_sign_words`); for a Gaussian projection it is the
        sign of the float64 product.  Ties go to bit 1 and NaN to bit 0.
        """
        if not self.quantize_output:
            raise ValueError("sign encoding requires quantize_output=True")
        arr, squeeze = self._validate(features)
        projection, packer = self._operands()
        if packer is not None:
            words = _exact_sign_words(arr, projection, packer, self._widen)
        else:
            sums = arr @ self._widen(projection)
            words = pack_binary(sums >= 0, validate=False).words
        return words, squeeze

    def _sign_bits(self, features: np.ndarray) -> Tuple[np.ndarray, bool]:
        """The ``{0, 1}`` (``int8``) bits of :meth:`_sign_words`, unpacked."""
        words, squeeze = self._sign_words(features)
        bits = np.unpackbits(
            words.view(np.uint8), axis=1, count=self.dimension, bitorder="little"
        ).view(np.int8)
        return bits, squeeze

    def encode(self, features: np.ndarray) -> np.ndarray:
        if self.quantize_output:
            bits, squeeze = self._sign_bits(features)
            encoded = bits * np.int8(2) - np.int8(1)
        else:
            arr, squeeze = self._validate(features)
            encoded = (arr @ self.widened_projection()).astype(np.float32)
        return encoded[0] if squeeze else encoded

    def encode_packed(self, features: np.ndarray) -> PackedVectors:
        """Encode straight to bit-packed binary query words.

        The words hold the bits :meth:`encode` maps to ``+1`` (ties to bit
        1, NaN to bit 0), so the result equals
        ``pack_binary(to_binary(encode(features)))`` bit for bit without
        materializing the bipolar or ``{0, 1}`` arrays.  A single ``(f,)``
        vector becomes a one-row batch, as with :func:`pack_binary`.
        """
        words, _ = self._sign_words(features)
        return PackedVectors(
            words=words, dimension=self.dimension, alphabet=BINARY_ALPHABET
        )

    def encode_binary(self, features: np.ndarray) -> np.ndarray:
        """Encode straight to the ``{0, 1}`` (``int8``) hypervectors.

        The unpacked :meth:`encode_packed` bits, so it equals
        ``to_binary(encode(features))`` bit for bit (ties to 1, NaN to 0)
        without the bipolar intermediate.
        """
        bits, squeeze = self._sign_bits(features)
        return bits[0] if squeeze else bits

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


# --------------------------------------------------------- exact-sign encode
#: Unit roundoff of float32 and of float64.
_U32 = 2.0**-24
_U64 = 2.0**-53

#: Rows with ``||x||_1`` at or past this skip both certified tiers.  Below
#: it no float32 partial sum can overflow, for any ``f`` the tiers accept.
_FAST_LIMIT = 2.0**100

#: Rows per block of an exact-sign encode.  A larger batch is cast,
#: multiplied and packed one block at a time, so its float32 transient is
#: one block's (~30 MB at f = 784, D = 128), not the batch's; a 5,000-row
#: test split still runs as one GEMM.
_ENCODE_BLOCK_ROWS = 8192

#: Largest block, and smallest ``D``, whose float32 sums come from
#: :meth:`~repro.hdc._packed_kernels.SignPacker.encode`'s table lookup
#: instead of a GEMM (native backend).  Measured at f = 617 and 784 on
#: 2 CPUs with OpenBLAS 0.3.31: at D = 8192 the lookup took ~0.3 ms a row
#: against 0.6-1.1 ms for a one-row GEMV and 3.7-5.3 ms for a GEMM of 2
#: to 8 rows; at D = 1024 it broke even at 1 and 8 rows; at D <= 256 the
#: GEMM won at every row count.
_TABLE_MAX_ROWS = 8
_TABLE_MIN_DIMENSION = 1024


def _gamma(terms: int, unit: float) -> float:
    """Higham's ``gamma_n = n*u / (1 - n*u)``; inf once ``n*u >= 1/2``."""
    if terms * unit >= 0.5:
        return math.inf
    return terms * unit / (1.0 - terms * unit)


@functools.lru_cache(maxsize=None)
def _bound_coefficients(num_features: int) -> Tuple[float, float, float, float]:
    """``(rel32, abs32, rel64, abs64)``: each tier's bound is ``rel * ||x||_1 + abs``.

    ``slack`` lifts the relative coefficients past the float64 arithmetic
    that evaluates a bound: the computed ``||x||_1`` underestimates the
    true norm by at most a factor ``1 - gamma_f`` (at float64, in any
    summation order), and the roundings of the coefficient, product and
    sum add at most ``2^-50``.
    """
    f = num_features
    slack = 1.0 + 4.0 * f * _U64 + 2.0**-48
    rel32 = (_gamma(f, _U32) * (1.0 + _U32) + _U32) * slack
    rel64 = _gamma(f, _U64) * slack
    return rel32, f * 2.0**-122, rel64, f * 2.0**-1019


def _exact_sign_words(
    features: np.ndarray,
    projection: np.ndarray,
    packer: _kernels.SignPacker,
    widen: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Packed exact signs of ``features @ M`` for a ``±1`` projection ``M``.

    Bit ``d`` of row ``r`` is ``[s >= 0]`` for the exact real sum
    ``s = sum_i M_id * x_ri``; a NaN sum (a NaN entry, or ``+inf`` and
    ``-inf`` terms together) gives bit 0.  The bits therefore depend on the
    row alone: not on the batch it came in, the sum path, the BLAS kernel
    or the machine.  ``packer`` holds ``M`` as bits, and
    ``widen(projection)`` returns the float32 ``M`` a GEMM multiplies by.

    **Float32 tier.**  ``s_hat`` is a float32 sum of the ``f`` terms
    ``M_id * y_i``, ``y = float32(x)``, in one of two orders: the GEMM
    ``y @ widen(projection)``, or :meth:`~repro.hdc._packed_kernels.SignPacker.encode`'s
    table lookup, which sums per-group tables of signed partial sums (see
    :func:`_exact_sign_block` for which runs).  With ``u = 2^-24``,
    rounding gives ``|y_i - x_i| <= u*|x_i| + 2^-126`` (the absolute term
    covers underflow, gradual or flushed) and ``||y||_1 <= (1 + u)*||x||_1
    + f * 2^-126``.  The products ``M_id * y_i`` are exact, and a
    length-``f`` sum in any order is within ``gamma_f * ||y||_1`` of its
    exact value, ``gamma_f = f*u / (1 - f*u)`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, sec. 3.1), plus at most ``2^-126``
    per input or partial sum a flush-to-zero BLAS drops, each grown by at
    most ``1 + gamma_f``.  So::

        |s_hat - s| <= (gamma_f*(1 + u) + u) * ||x||_1 + 6f * 2^-126
                    <  beta = rel32 * ||x||_1 + f * 2^-122

    and an entry with ``|s_hat| > beta`` has the sign of ``s_hat``, on
    either sum path.  The float64 evaluation of ``beta`` is lifted by
    :func:`_bound_coefficients`'s slack and rounded up to float32, so the
    comparison is exact.

    **Float64 tier.**  An uncertified ("open") entry, about 0.1% of them,
    is recomputed in float64 from its column's bits: the same argument at
    ``u = 2^-53``, with exact float64 inputs, certifies it when its
    magnitude exceeds ``rel64 * ||x||_1 + f * 2^-1019``.  Both tiers run in
    one pass of :class:`~repro.hdc._packed_kernels.SignPacker`.  Rows with
    ``||x||_1 >= 2^100``, where a float32 partial sum could overflow, and
    rows with a NaN or infinite entry skip both tiers (and are never cast
    to float32 by the table lookup); an all-zero row is a tie throughout.

    **Exact tier** (:func:`_settle_open`) decides what is still open.

    A batch past :data:`_ENCODE_BLOCK_ROWS` rows runs the three tiers one
    row block at a time.  A row's bits depend on the row alone, so the
    blocks change no bit.
    """
    rows = features.shape[0]
    if rows <= _ENCODE_BLOCK_ROWS:
        return _exact_sign_block(features, projection, packer, widen)
    words = np.empty((rows, (projection.shape[1] + 63) // 64), dtype=np.uint64)
    for start in range(0, rows, _ENCODE_BLOCK_ROWS):
        stop = start + _ENCODE_BLOCK_ROWS
        words[start:stop] = _exact_sign_block(
            features[start:stop], projection, packer, widen
        )
    return words


def _takes_table_lookup(rows: int, num_features: int, dimension: int) -> bool:
    """Whether a block of ``rows`` sums by table lookup rather than a GEMM.

    The table lookup costs about the same per row whatever the batch; the
    GEMM streams the whole float32 widening once per call.  See
    :data:`_TABLE_MAX_ROWS` and :data:`_TABLE_MIN_DIMENSION`.
    """
    return 0 < rows <= _TABLE_MAX_ROWS and dimension >= _TABLE_MIN_DIMENSION


def _exact_sign_block(
    features: np.ndarray,
    projection: np.ndarray,
    packer: _kernels.SignPacker,
    widen: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """:func:`_exact_sign_words` of one block of rows.

    On the native backend, a small block at a wide ``D`` takes the table
    lookup (:func:`_takes_table_lookup`); any other block takes the GEMM,
    and its first such block builds the widening.
    """
    if (
        _takes_table_lookup(features.shape[0], *projection.shape)
        and _kernels.backend_name() == "native"
    ):
        words, undecided, count = packer.encode(features)
    else:
        # Widened before the cast: a long-lived array allocated after a
        # short-lived large one can pin the heap above it.
        widened = widen(projection)
        # A finite entry beyond the float32 range casts to inf, and a row
        # with a non-finite entry sums to NaN: such rows skip both float
        # tiers.
        with np.errstate(over="ignore", invalid="ignore"):
            narrow = features.astype(np.float32)
            sums = narrow @ widened
        words, undecided, count = packer(features, sums)
    if count:
        _settle_open(features, projection, words, undecided)
    return words


def _settle_open(
    features: np.ndarray,
    projection: np.ndarray,
    words: np.ndarray,
    undecided: np.ndarray,
) -> None:
    """Decide every open entry exactly and set its bit in ``words`` in place.

    ``projection`` is the ``(f, D)`` ``±1`` matrix ``M``.  Open entries
    come from rows the certified tiers skipped and from sums too close to
    0 for float64.
    """
    rows, cols = np.nonzero(
        np.unpackbits(undecided.view(np.uint8), axis=1, bitorder="little")
    )
    bits = np.zeros(rows.shape[0], dtype=bool)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    for start, stop in zip(starts, np.append(starts[1:], rows.shape[0])):
        bits[start:stop] = _settle_row(
            features[rows[start]], projection[:, cols[start:stop]].T
        )
    masks = (np.uint64(1) << (cols & 63).astype(np.uint64)) * bits
    np.bitwise_or.at(words, (rows, cols >> 6), masks)


def _settle_row(row: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Exact bits of one row against ``(k, f)`` columns of ``M``.

    * A row with a NaN or infinite entry follows :func:`_nonfinite_signs`.
    * A finite row is scaled by a power of two to ``max|x| in [0.5, 1)``,
      so no float64 sum overflows and the signs are unchanged; underflow
      in the scaling moves each entry by at most ``2^-1074``, inside the
      float64 tier's absolute term.  Its sums are recomputed in float64
      and certified as in that tier (a huge row is first seen here).
    * The rest are exact sums of the exact products, by ``math.fsum``
      (its correctly rounded result has the exact sign) or, on an
      overflow inside ``fsum``, by :class:`fractions.Fraction`.
    """
    if not np.isfinite(row).all():
        return _nonfinite_signs(row, columns)
    _, _, rel64, abs64 = _bound_coefficients(row.shape[0])
    scaled = np.ldexp(row, -np.frexp(np.abs(row).max())[1])
    sums = columns @ scaled
    bits = sums > 0
    bound = np.abs(scaled).sum() * rel64 + abs64
    for k in np.flatnonzero(~(np.abs(sums) > bound)):
        bits[k] = _exact_sum_sign(row * columns[k])
    return bits


def _nonfinite_signs(row: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Bits of a row with a NaN or infinite entry against ``(k, f)`` columns.

    Finite terms cannot change such a sum, so only the infinite ones count.
    """
    if np.isnan(row).any():
        return np.zeros(columns.shape[0], dtype=bool)
    infinite = np.isinf(row)
    terms = columns[:, infinite] * np.sign(row[infinite])
    return (terms > 0).any(axis=1) & ~(terms < 0).any(axis=1)


def _exact_sum_sign(products: np.ndarray) -> bool:
    """``[sum(products) >= 0]`` on the exact sum of finite float64 terms."""
    try:
        total = math.fsum(products)
    except OverflowError:  # a partial sum overflowed
        total = sum(map(Fraction, products.tolist()))
    return total >= 0
