"""Fig. 3 -- accuracy vs. memory requirement (experiment E2).

For each dataset profile the paper plots test accuracy against total model
memory (KB) for MEMHD at several DxC sizes and for the four baselines at
several dimensionalities.  This benchmark regenerates the same series at
laptop scale (reduced sample counts, epochs and baseline dimensions -- the
absolute accuracies differ from the paper, the *ordering* is what matters:
MEMHD reaches baseline-level accuracy at a fraction of the memory).
"""

from __future__ import annotations

import pytest
from conftest import BENCH_EPOCHS, BENCH_TRIALS, print_section

from repro.baselines import (
    BasicHDC,
    BasicHDCConfig,
    LeHDC,
    LeHDCConfig,
    QuantHD,
    QuantHDConfig,
    SearcHD,
    SearcHDConfig,
)
from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel
from repro.eval.experiments import accuracy_memory_curve
from repro.eval.reporting import format_accuracy_memory

#: Reduced ID-Level settings keep the (slow, python-loop) ID-Level encoders
#: tractable at benchmark scale while preserving the models' behaviour.
ID_LEVELS = 32
SEARCHD_MODELS = 8


def memhd(dimension, columns):
    def factory(num_features, num_classes, seed):
        return MEMHDModel(
            num_features,
            num_classes,
            MEMHDConfig(
                dimension=dimension, columns=columns, epochs=BENCH_EPOCHS, seed=seed
            ),
            rng=seed,
        )

    return f"MEMHD {dimension}x{columns}", factory


def basic(dimension):
    def factory(num_features, num_classes, seed):
        return BasicHDC(
            num_features,
            num_classes,
            BasicHDCConfig(dimension=dimension, refine_epochs=BENCH_EPOCHS, seed=seed),
        )

    return f"BasicHDC {dimension}D", factory


def quanthd(dimension):
    def factory(num_features, num_classes, seed):
        return QuantHD(
            num_features,
            num_classes,
            QuantHDConfig(
                dimension=dimension, num_levels=ID_LEVELS, epochs=BENCH_EPOCHS, seed=seed
            ),
        )

    return f"QuantHD {dimension}D", factory


def searchd(dimension):
    def factory(num_features, num_classes, seed):
        return SearcHD(
            num_features,
            num_classes,
            SearcHDConfig(
                dimension=dimension,
                num_models=SEARCHD_MODELS,
                num_levels=ID_LEVELS,
                epochs=1,
                seed=seed,
            ),
        )

    return f"SearcHD {dimension}D", factory


def lehdc(dimension):
    def factory(num_features, num_classes, seed):
        return LeHDC(
            num_features,
            num_classes,
            LeHDCConfig(
                dimension=dimension,
                num_levels=ID_LEVELS,
                epochs=BENCH_EPOCHS,
                learning_rate=0.1,
                seed=seed,
            ),
        )

    return f"LeHDC {dimension}D", factory


def image_series():
    """Model points for the MNIST / FMNIST panels."""
    return [
        memhd(64, 64),
        memhd(128, 128),
        memhd(256, 256),
        basic(512),
        basic(2048),
        quanthd(512),
        quanthd(1024),
        searchd(512),
        lehdc(256),
        lehdc(512),
    ]


def isolet_series():
    """Model points for the ISOLET panel (fixed 128 MEMHD columns)."""
    return [
        memhd(128, 128),
        memhd(256, 128),
        memhd(512, 128),
        basic(512),
        basic(2048),
        quanthd(512),
        searchd(512),
        lehdc(256),
    ]


@pytest.mark.parametrize("dataset_name", ["mnist", "fmnist", "isolet"])
def test_fig3_accuracy_vs_memory(benchmark, dataset_name, request):
    dataset = request.getfixturevalue(dataset_name)
    factories = isolet_series() if dataset_name == "isolet" else image_series()

    def run():
        return accuracy_memory_curve(dataset, factories, trials=BENCH_TRIALS, rng=7)

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    print_section(
        f"Fig. 3 ({dataset_name.upper()}): accuracy vs. memory (KB)",
        format_accuracy_memory(records),
    )

    by_label = {record.label: record for record in records}
    # Shape check 1: every model clears the chance level.
    chance = 1.0 / dataset.num_classes
    for record in records:
        assert record.test_accuracy > chance, record.label

    # Shape check 2 (the paper's headline): the mid-size MEMHD model reaches
    # at least the accuracy of the large BasicHDC baseline while using less
    # memory.
    memhd_label = "MEMHD 256x256" if dataset_name != "isolet" else "MEMHD 512x128"
    memhd_record = by_label[memhd_label]
    basic_record = by_label["BasicHDC 2048D"]
    assert memhd_record.test_accuracy >= basic_record.test_accuracy - 0.05
    assert memhd_record.memory_kib < basic_record.memory_kib
