"""Certified float32 encode: uncertified rate per tier and encode time.

The binary-projection encoder's query bits are the exact signs of
``x @ M``.  It computes float32 sums -- by a GEMM over the float32
widening of ``M``, or, for a small batch at a wide ``D`` on the native
backend, by table lookup from ``M``'s bits -- certifies each entry
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

On MNIST it also reports the encode time per row of each float32 sum
path at 1, 2, 4, 8 and 64 rows, and which path the encoder takes there:
the table lookup costs about the same per row at any batch size, while
the GEMM of a few rows costs several single-row GEMVs.  Both paths'
words must be equal.

The bit checks and the rate ceilings always hold; the speedup gate at
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
#: Batch sizes of the per-path timing.
PATH_ROWS = (1, 2, 4, 8, 64)


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
    _, _, open64 = encoder._operands()[1](features, values)

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


def _settled(features, projection, result) -> np.ndarray:
    words, undecided, count = result
    if count:
        encoders._settle_open(features, projection, words, undecided)
    return words


def measure_paths(features: np.ndarray, dimension: int, smoke: bool) -> list:
    """Encode time per row of each float32 sum path, and the bits they give."""
    encoder = encoders.RandomProjectionEncoder(features.shape[1], dimension, rng=1)
    projection, packer = encoder._operands()
    widened = encoder.widened_projection()
    native = kernels.backend_name() == "native"

    def gemm(rows):
        return packer(rows, rows.astype(np.float32) @ widened)

    repeats = 5 if smoke else 21
    results = []
    for count in PATH_ROWS:
        rows = features[:count]
        gemm_s = _median_seconds(lambda: gemm(rows), repeats)
        row = {
            "D": dimension,
            "rows": count,
            "route": "gemm",
            "gemm_us_per_row": 1e6 * gemm_s / count,
            "table_us_per_row": float("nan"),
            "gemm/table": float("nan"),
        }
        if native:
            if encoders._takes_table_lookup(count, *projection.shape):
                row["route"] = "table"
            table_s = _median_seconds(lambda: packer.encode(rows), repeats)
            row["table_us_per_row"] = 1e6 * table_s / count
            row["gemm/table"] = gemm_s / table_s
            table = _settled(rows, projection, packer.encode(rows))
            assert np.array_equal(table, _settled(rows, projection, gemm(rows))), row
        results.append(row)
    return results


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
    paths = []
    features = bench_dataset("mnist").test_features[: max(PATH_ROWS)]
    for dimension in DIMENSIONS:
        paths += measure_paths(features, dimension, smoke)
    print_section(
        "Encode time per row by float32 sum path (route: the path the encoder takes)",
        format_table(paths, float_format="{:.3g}"),
    )
    for row in results:
        assert row["open_f32"] <= MAX_FLOAT32_OPEN_RATE, row
        assert row["open_f64"] == 0, row  # no surrogate row reaches fsum
    if not smoke:
        for row in results:
            if row["D"] == 8192:
                assert row["single_x"] >= MIN_SINGLE_ROW_SPEEDUP, row
