"""Fig. 5 -- clustering-based vs. random-sampling initialization (experiment E4).

The paper reports that clustering-based initialization starts from a much
higher accuracy (+8.69% on MNIST 512x512, +19.95% on ISOLET 1024x256),
converges in fewer epochs and ends slightly higher.  This benchmark runs
both initializations with identical hyperparameters at benchmark scale
(smaller AMs, fewer epochs) and prints the per-epoch accuracy curves and the
initial-accuracy gap.
"""

from __future__ import annotations

import pytest
from conftest import BENCH_EPOCHS, print_section

from repro.core.config import MEMHDConfig
from repro.eval.experiments import initialization_comparison
from repro.eval.reporting import format_table

#: (dataset fixture name, D, C) -- scaled-down versions of the paper's
#: MNIST 512x512 and ISOLET 1024x256 configurations.
SETUPS = [
    ("mnist", 256, 128),
    ("isolet", 256, 104),
]


@pytest.mark.parametrize("dataset_name,dimension,columns", SETUPS)
def test_fig5_initialization_comparison(
    benchmark, dataset_name, dimension, columns, request
):
    dataset = request.getfixturevalue(dataset_name)
    config = MEMHDConfig(
        dimension=dimension,
        columns=columns,
        epochs=BENCH_EPOCHS,
        seed=0,
    )

    def run():
        return initialization_comparison(dataset, config, rng=5)

    histories = benchmark.pedantic(run, rounds=1, iterations=1)

    clustering = histories["clustering"]
    random_sampling = histories["random"]
    rows = []
    epochs = max(clustering.epochs, random_sampling.epochs)
    for epoch in range(epochs):
        rows.append(
            {
                "epoch": epoch + 1,
                "clustering_%": 100.0 * clustering.train_accuracy[min(epoch, clustering.epochs - 1)],
                "random_%": 100.0 * random_sampling.train_accuracy[min(epoch, random_sampling.epochs - 1)],
            }
        )
    gap = clustering.initial_accuracy - random_sampling.initial_accuracy
    body = format_table(rows, float_format="{:.1f}")
    body += (
        f"\ninitial accuracy: clustering {clustering.initial_accuracy * 100:.1f}% vs "
        f"random {random_sampling.initial_accuracy * 100:.1f}% "
        f"(gap {gap * 100:+.2f} pp)"
    )
    print_section(
        f"Fig. 5 ({dataset_name.upper()} {dimension}x{columns}): clustering vs random init",
        body,
    )

    # Shape checks mirroring the paper: clustering starts higher and the
    # trained model ends at least as high as the random-sampling run.
    assert clustering.initial_accuracy > random_sampling.initial_accuracy
    assert (
        clustering.final_train_accuracy
        >= random_sampling.final_train_accuracy - 0.03
    )

    # Convergence speed: the epoch at which each run reaches 95% of its own
    # final accuracy; clustering should not be slower.
    def epochs_to_95_percent(history):
        target = 0.95 * history.final_train_accuracy
        reached = history.epochs_to_reach(target)
        return reached if reached is not None else history.epochs

    assert epochs_to_95_percent(clustering) <= epochs_to_95_percent(random_sampling)
