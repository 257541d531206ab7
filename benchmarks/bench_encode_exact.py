"""Certified float32 encode: uncertified rate per tier and encode time.

The binary-projection encoder's query bits are the exact signs of
``x @ M``.  It computes them from a float32 GEMM, certifies each entry
against an a-priori error bound, recomputes the uncertified ("open")
entries in float64 from their columns, and leaves what is still open to
``math.fsum``.  This benchmark reports, on the MNIST, FMNIST and ISOLET
surrogates at D = 128 and D = 8192:

* the open rate after the float32 tier and after the float64 tier (the
  share of entries that reach the exact tier);
* single-row and batch encode time against the float64 GEMM it replaced
  (``pack_binary(x @ float64(M) >= 0)``);
* that the bits equal the float64 GEMM's on every row (ordinary data
  never comes near a rounding tie, so the exact signs and the float64
  signs agree there).

The bit check and the rate ceilings always hold; the speedup gate at
D = 8192 applies to full runs only (timing at smoke sizes is noise).
Run with ``pytest benchmarks/bench_encode_exact.py [--smoke] -s``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from conftest import bench_dataset, print_section

from repro.eval.reporting import format_table
from repro.hdc import _packed_kernels as kernels
from repro.hdc import encoders
from repro.hdc.packed import pack_binary

DIMENSIONS = (128, 8192)
DATASETS = ("mnist", "fmnist", "isolet")

#: Ceiling on the float32 tier's open rate (about 1e-3 is typical).
MAX_FLOAT32_OPEN_RATE = 1e-2
#: Full runs: single-row encode at D = 8192 beats the float64 GEMV by this.
MIN_SINGLE_ROW_SPEEDUP = 1.2


def _median_seconds(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(name: str, features: np.ndarray, dimension: int, smoke: bool) -> dict:
    encoder = encoders.RandomProjectionEncoder(features.shape[1], dimension, rng=1)
    widened = encoder.widened_projection()
    wide64 = encoder.projection.astype(np.float64)

    def float64_gemm(rows):
        return pack_binary(rows @ wide64 >= 0, validate=False)

    # Open entries per tier: the float32 tier's from its bound, the float64
    # tier's from the certified kernel itself.
    rel32, abs32, _, _ = encoders._bound_coefficients(features.shape[1])
    values = features.astype(np.float32) @ widened
    norms = np.abs(features).sum(axis=1)
    hi = kernels._float32_up(norms * rel32 + abs32)[:, None]
    open32 = int(np.count_nonzero(np.abs(values) <= hi))
    _, _, open64 = encoder._operands()[2](features, values)

    exact = encoder.encode_packed(features).words
    assert np.array_equal(exact, float64_gemm(features).words), name

    count = 50 if smoke else (1000 if dimension <= 1024 else 200)
    rows = [features[i % len(features)][None, :] for i in range(count)]
    repeats = 3 if smoke else 7
    single_new = statistics.median(
        _median_seconds(lambda r=r: encoder.encode_packed(r), repeats) for r in rows
    )
    single_old = statistics.median(
        _median_seconds(lambda r=r: float64_gemm(r), repeats) for r in rows
    )
    batch = features[: 64 if smoke else 500]
    batch_new = _median_seconds(lambda: encoder.encode_packed(batch), repeats)
    batch_old = _median_seconds(lambda: float64_gemm(batch), repeats)
    entries = features.shape[0] * dimension
    return {
        "dataset": name,
        "D": dimension,
        "rows": features.shape[0],
        "open_f32": open32 / entries,
        "open_f64": open64 / entries,
        "single_us": 1e6 * single_new,
        "single_f64_us": 1e6 * single_old,
        "single_x": single_old / single_new,
        "batch_ms": 1e3 * batch_new,
        "batch_f64_ms": 1e3 * batch_old,
        "batch_rows": batch.shape[0],
    }


def test_certified_encode_rates_and_time(smoke):
    results = []
    for name in DATASETS:
        features = bench_dataset(name).test_features
        if smoke:
            features = features[:96]
        for dimension in DIMENSIONS:
            results.append(measure(name, features, dimension, smoke))

    print_section(
        f"Certified float32 encode (backend: {kernels.backend_name()})",
        format_table(results, float_format="{:.3g}"),
    )
    for row in results:
        assert row["open_f32"] <= MAX_FLOAT32_OPEN_RATE, row
        assert row["open_f64"] == 0, row  # no surrogate row reaches fsum
    if not smoke:
        for row in results:
            if row["D"] == 8192:
                assert row["single_x"] >= MIN_SINGLE_ROW_SPEEDUP, row
