"""Device non-ideality injection for robustness studies.

HDC's selling point on emerging-memory IMC substrates is robustness to bit
errors and analog noise; this module provides the fault models used by the
noise-robustness extension benchmark (``bench_noise_robustness.py``):

* random bit flips in the programmed cells (retention / write errors),
* stuck-at-0 / stuck-at-1 cells (fabrication defects),
* Gaussian read noise on the analog column sums (ADC / thermal noise).

The functions operate on plain binary matrices so they compose with both
the analytical mapping layer and the functional simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.hdc.hypervector import _as_generator


@dataclass(frozen=True)
class NoiseModel:
    """Aggregate description of the injected non-idealities.

    Attributes
    ----------
    bit_flip_probability:
        Probability that a stored cell reads back inverted.
    stuck_at_zero_probability / stuck_at_one_probability:
        Probability that a cell is permanently stuck at 0 / 1.
    read_noise_sigma:
        Standard deviation of additive Gaussian noise on each column's
        accumulated MVM sum, expressed in absolute counts (one count = one
        fully-on cell).
    """

    bit_flip_probability: float = 0.0
    stuck_at_zero_probability: float = 0.0
    stuck_at_one_probability: float = 0.0
    read_noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "bit_flip_probability",
            "stuck_at_zero_probability",
            "stuck_at_one_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.read_noise_sigma < 0:
            raise ValueError("read_noise_sigma must be non-negative")
        total_stuck = self.stuck_at_zero_probability + self.stuck_at_one_probability
        if total_stuck > 1.0:
            raise ValueError("stuck-at probabilities must sum to at most 1")

    @property
    def is_ideal(self) -> bool:
        """True when no non-ideality is configured."""
        return (
            self.bit_flip_probability == 0.0
            and self.stuck_at_zero_probability == 0.0
            and self.stuck_at_one_probability == 0.0
            and self.read_noise_sigma == 0.0
        )

    def corrupt_memory(
        self,
        matrix: np.ndarray,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> np.ndarray:
        """Apply the storage-related faults (flips, stuck-at) to a matrix."""
        gen = _as_generator(rng)
        result = np.asarray(matrix).astype(np.int8).copy()
        if self.bit_flip_probability > 0:
            result = flip_bits(result, self.bit_flip_probability, gen)
        if self.stuck_at_zero_probability > 0 or self.stuck_at_one_probability > 0:
            result = apply_stuck_at_faults(
                result,
                self.stuck_at_zero_probability,
                self.stuck_at_one_probability,
                gen,
            )
        return result

    def corrupt_readout(
        self,
        sums: np.ndarray,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> np.ndarray:
        """Apply analog read noise to MVM column sums."""
        if self.read_noise_sigma == 0:
            return np.asarray(sums, dtype=np.float64)
        gen = _as_generator(rng)
        arr = np.asarray(sums, dtype=np.float64)
        return arr + gen.normal(0.0, self.read_noise_sigma, size=arr.shape)


def flip_bits(
    matrix: np.ndarray,
    probability: float,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> np.ndarray:
    """Independently invert each binary cell with the given probability."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    arr = np.asarray(matrix)
    if not np.all(np.isin(arr, (0, 1))):
        raise ValueError("flip_bits expects a binary matrix")
    gen = _as_generator(rng)
    flips = gen.random(arr.shape) < probability
    return np.where(flips, 1 - arr, arr).astype(np.int8)


def apply_stuck_at_faults(
    matrix: np.ndarray,
    stuck_at_zero: float,
    stuck_at_one: float,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> np.ndarray:
    """Force random cells to 0 or 1, modelling fabrication defects."""
    if stuck_at_zero < 0 or stuck_at_one < 0 or stuck_at_zero + stuck_at_one > 1.0:
        raise ValueError("stuck-at probabilities must be non-negative and sum <= 1")
    arr = np.asarray(matrix)
    if not np.all(np.isin(arr, (0, 1))):
        raise ValueError("apply_stuck_at_faults expects a binary matrix")
    gen = _as_generator(rng)
    draw = gen.random(arr.shape)
    result = arr.astype(np.int8).copy()
    result[draw < stuck_at_zero] = 0
    result[(draw >= stuck_at_zero) & (draw < stuck_at_zero + stuck_at_one)] = 1
    return result
