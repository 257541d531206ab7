"""Shared configuration for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section and prints the corresponding rows/series, so the
captured output of

    pytest benchmarks/ --benchmark-only

is a text rendition of the paper's evaluation.  The underlying experiments
run on the synthetic dataset surrogates at a reduced scale controlled by the
environment variables below, so the whole suite completes in minutes on a
laptop.

Environment knobs
-----------------
``REPRO_BENCH_SCALE``
    Fraction of the paper-scale per-class sample budget (default 0.02 for
    MNIST/FMNIST profiles, 0.25 for ISOLET whose budget is already small).
``REPRO_BENCH_EPOCHS``
    Training epochs for iterative models (default 15; the paper uses 100).
``REPRO_BENCH_TRIALS``
    Number of repeated trials averaged per configuration (default 1; the
    paper uses 5).

Smoke mode
----------
Passing ``--smoke`` (registered by the repository-root ``conftest.py``)
overrides the knobs above with tiny sizes so every benchmark finishes in
seconds.  CI runs each ``bench_*.py`` this way to keep the perf code from
rotting; locally the same flag gives a fast sanity pass.  Benchmarks that
gate on real measurements (e.g. the packed-similarity speedup assertions)
use the :func:`smoke` fixture to relax themselves accordingly.
"""

from __future__ import annotations

import os

import pytest

from repro.data.datasets import load_dataset


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    return float(value) if value else default


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


#: Reduced-scale settings used by every benchmark module.
BENCH_SCALE_IMAGE = _env_float("REPRO_BENCH_SCALE", 0.02)
BENCH_SCALE_ISOLET = _env_float("REPRO_BENCH_SCALE_ISOLET", 0.25)
BENCH_EPOCHS = _env_int("REPRO_BENCH_EPOCHS", 15)
BENCH_TRIALS = _env_int("REPRO_BENCH_TRIALS", 1)

#: True when the suite runs under ``--smoke`` (set by pytest_configure).
SMOKE = False


def pytest_configure(config):
    """Shrink every knob to smoke-test sizes when ``--smoke`` is passed.

    This runs before collection, so benchmark modules that do
    ``from conftest import BENCH_EPOCHS`` at import time observe the
    shrunken values.
    """
    global SMOKE, BENCH_SCALE_IMAGE, BENCH_SCALE_ISOLET, BENCH_EPOCHS, BENCH_TRIALS
    if config.getoption("--smoke", default=False):
        SMOKE = True
        # Epochs and trials dominate the runtime; the dataset scales stay at
        # their defaults because several benchmarks assert above-chance
        # accuracy, which needs a statistically meaningful sample count.
        BENCH_SCALE_IMAGE = min(BENCH_SCALE_IMAGE, 0.02)
        BENCH_SCALE_ISOLET = min(BENCH_SCALE_ISOLET, 0.25)
        # Not fewer: the ablation sweep's convergence gates need a few epochs.
        BENCH_EPOCHS = min(BENCH_EPOCHS, 4)
        BENCH_TRIALS = 1


@pytest.fixture(scope="session")
def smoke(request) -> bool:
    """Whether the run is a ``--smoke`` run (tiny sizes, relaxed gates)."""
    return bool(request.config.getoption("--smoke", default=False))


def bench_dataset(name: str, seed: int = 0):
    """Load a dataset at benchmark scale (synthetic surrogate offline)."""
    scale = BENCH_SCALE_ISOLET if name == "isolet" else BENCH_SCALE_IMAGE
    return load_dataset(name, scale=scale, rng=seed)


@pytest.fixture(scope="session")
def mnist():
    return bench_dataset("mnist")


@pytest.fixture(scope="session")
def fmnist():
    return bench_dataset("fmnist")


@pytest.fixture(scope="session")
def isolet():
    return bench_dataset("isolet")


def print_section(title: str, body: str) -> None:
    """Uniform, easy-to-grep section formatting for benchmark output."""
    bar = "=" * max(len(title), 30)
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
