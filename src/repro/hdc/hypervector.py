"""Hypervector creation and elementary HDC algebra.

Hypervectors are represented as numpy arrays.  Two discrete alphabets are
used throughout the library:

``BINARY``
    Values in ``{0, 1}``.  This is the representation that is physically
    stored in an IMC array cell (one SRAM/ReRAM cell per element) and the
    representation MEMHD's binary associative memory uses.

``BIPOLAR``
    Values in ``{-1, +1}``.  This is the algebraically convenient
    representation: binding is element-wise multiplication and the dot
    product directly measures agreement.  The mapping between the two is the
    affine map ``bipolar = 2 * binary - 1``.

All random generation routines take an explicit ``numpy.random.Generator``
so that every experiment in the repository is reproducible from a single
seed.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

#: Marker for the {0, 1} alphabet.
BINARY = "binary"
#: Marker for the {-1, +1} alphabet.
BIPOLAR = "bipolar"

ArrayLike = Union[np.ndarray, Sequence[float]]


def _as_generator(rng: Optional[Union[int, np.random.Generator]]) -> np.random.Generator:
    """Normalize ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` creates a fresh non-deterministic generator, an ``int`` is used
    as a seed, and an existing generator is passed through unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def random_binary_hypervectors(
    count: int,
    dimension: int,
    rng: Optional[Union[int, np.random.Generator]] = None,
    density: float = 0.5,
) -> np.ndarray:
    """Draw ``count`` i.i.d. binary hypervectors of length ``dimension``.

    Parameters
    ----------
    count:
        Number of hypervectors (rows of the returned matrix).
    dimension:
        Hypervector dimensionality ``D``.
    rng:
        Seed or generator controlling the draw.
    density:
        Probability that an element equals 1.  The HDC default of 0.5 gives
        maximally distant random vectors (expected normalized Hamming
        distance 0.5).

    Returns
    -------
    numpy.ndarray
        ``(count, dimension)`` array with dtype ``int8`` and values in
        ``{0, 1}``.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    gen = _as_generator(rng)
    return (gen.random((count, dimension)) < density).astype(np.int8)


def random_bipolar_hypervectors(
    count: int,
    dimension: int,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> np.ndarray:
    """Draw ``count`` i.i.d. bipolar hypervectors of length ``dimension``.

    Returns
    -------
    numpy.ndarray
        ``(count, dimension)`` array with dtype ``int8`` and values in
        ``{-1, +1}``.
    """
    binary = random_binary_hypervectors(count, dimension, rng)
    return to_bipolar(binary)


def random_gaussian_hypervectors(
    count: int,
    dimension: int,
    rng: Optional[Union[int, np.random.Generator]] = None,
    scale: float = 1.0,
) -> np.ndarray:
    """Draw ``count`` dense Gaussian hypervectors (float32).

    Floating-point base vectors are used by the floating-point variant of
    random-projection encoding referenced in the paper (Thomas et al. 2021).
    """
    if count <= 0 or dimension <= 0:
        raise ValueError("count and dimension must be positive")
    gen = _as_generator(rng)
    return gen.normal(0.0, scale, size=(count, dimension)).astype(np.float32)


def level_hypervectors(
    levels: int,
    dimension: int,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> np.ndarray:
    """Create a family of correlated *level* hypervectors.

    Level hypervectors encode scalar magnitudes for ID-Level encoding.  The
    standard construction starts from a random bipolar vector for the lowest
    level and flips a fresh block of ``dimension / (2 * (levels - 1))``
    positions for every subsequent level, so that nearby levels stay similar
    while the lowest and highest levels end up (nearly) orthogonal (half of
    the positions flipped in total).

    Returns
    -------
    numpy.ndarray
        ``(levels, dimension)`` bipolar ``int8`` matrix.
    """
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    gen = _as_generator(rng)
    base = random_bipolar_hypervectors(1, dimension, gen)[0]
    out = np.empty((levels, dimension), dtype=np.int8)
    out[0] = base
    # Half of the positions are flipped exactly once over the whole sweep, in
    # a random order, so level i and level j differ in
    # ~|i - j| / (2 * (levels - 1)) of the dimensions and the two extreme
    # levels are nearly orthogonal.
    flip_order = gen.permutation(dimension)
    per_step = dimension / (2 * (levels - 1))
    current = base.copy()
    flipped_so_far = 0
    for level in range(1, levels):
        target = int(round(level * per_step))
        positions = flip_order[flipped_so_far:target]
        current[positions] = -current[positions]
        flipped_so_far = target
        out[level] = current
    return out


def binarize(values: ArrayLike, threshold: Optional[float] = None) -> np.ndarray:
    """Quantize real values to the ``{0, 1}`` alphabet.

    Values strictly greater than ``threshold`` map to 1, the rest to 0.  When
    ``threshold`` is ``None`` the mean of ``values`` is used, which is the
    1-bit quantization rule MEMHD applies to its associative memory
    (Sec. III-B of the paper).
    """
    arr = np.asarray(values, dtype=np.float64)
    if threshold is None:
        threshold = float(arr.mean())
    return (arr > threshold).astype(np.int8)


def bipolarize(values: ArrayLike, threshold: float = 0.0) -> np.ndarray:
    """Quantize real values to the ``{-1, +1}`` alphabet.

    Values greater than or equal to ``threshold`` map to +1, the rest to -1
    (the sign function with ties broken upward).
    """
    arr = np.asarray(values, dtype=np.float64)
    return np.where(arr >= threshold, 1, -1).astype(np.int8)


def to_bipolar(binary: ArrayLike) -> np.ndarray:
    """Map ``{0, 1}`` values to ``{-1, +1}`` via ``2 * x - 1``."""
    arr = np.asarray(binary)
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("to_bipolar expects values in {0, 1}")
    return (2 * arr.astype(np.int8) - 1).astype(np.int8)


def to_binary(bipolar: ArrayLike) -> np.ndarray:
    """Map ``{-1, +1}`` values to ``{0, 1}`` via ``(x + 1) / 2``."""
    arr = np.asarray(bipolar)
    if not ((arr == -1) | (arr == 1)).all():
        raise ValueError("to_binary expects values in {-1, +1}")
    return ((arr.astype(np.int8) + 1) // 2).astype(np.int8)
