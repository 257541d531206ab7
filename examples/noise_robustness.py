#!/usr/bin/env python
"""Device non-ideality study: MEMHD accuracy under IMC cell and readout faults.

Maps a trained MEMHD model onto IMC arrays with the functional simulator and
sweeps three non-ideality mechanisms -- retention/write bit flips, stuck-at
cells and analog read noise -- reporting the accuracy of the mapped model at
each fault level.  This is the repository's extension experiment: it
quantifies the robustness the paper's IMC deployment relies on implicitly.

Run:  python examples/noise_robustness.py --dataset mnist --dimension 256
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import IMCArrayConfig, InMemoryInference, MEMHDConfig, MEMHDModel, load_dataset
from repro.eval.reporting import format_table
from repro.imc.noise import NoiseModel


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="mnist", choices=("mnist", "fmnist", "isolet"))
    parser.add_argument("--scale", type=float, default=0.03)
    parser.add_argument("--dimension", type=int, default=128)
    parser.add_argument("--columns", type=int, default=128)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--trials", type=int, default=3, help="random fault patterns per level")
    return parser.parse_args()


def accuracy_under(model, dataset, noise: NoiseModel, trials: int) -> float:
    """Average mapped-model accuracy over several random fault patterns."""
    values = []
    for seed in range(trials):
        engine = InMemoryInference(model, IMCArrayConfig(128, 128), noise=noise, rng=seed)
        predictions = engine.predict(dataset.test_features)
        values.append(float(np.mean(predictions == dataset.test_labels)))
    return float(np.mean(values))


def main() -> None:
    args = parse_args()
    dataset = load_dataset(args.dataset, scale=args.scale, rng=0)
    columns = max(args.columns, dataset.num_classes)
    model = MEMHDModel(
        dataset.num_features,
        dataset.num_classes,
        MEMHDConfig(dimension=args.dimension, columns=columns, epochs=args.epochs, seed=0),
        rng=0,
    )
    model.fit(dataset.train_features, dataset.train_labels)
    clean = model.score(dataset.test_features, dataset.test_labels)
    print("dataset:", dataset.summary())
    print(f"clean (software) accuracy: {clean * 100:.1f}%\n")

    rows = []
    for rate in (0.0, 0.005, 0.01, 0.02, 0.05, 0.10):
        accuracy = accuracy_under(
            model, dataset, NoiseModel(bit_flip_probability=rate), args.trials
        )
        rows.append({"fault": "bit flip", "level": rate, "accuracy_%": 100.0 * accuracy})
    for rate in (0.01, 0.05):
        accuracy = accuracy_under(
            model,
            dataset,
            NoiseModel(stuck_at_zero_probability=rate, stuck_at_one_probability=rate),
            args.trials,
        )
        rows.append({"fault": "stuck-at (0 and 1)", "level": rate, "accuracy_%": 100.0 * accuracy})
    for sigma in (0.5, 1.0, 2.0, 4.0):
        accuracy = accuracy_under(
            model, dataset, NoiseModel(read_noise_sigma=sigma), args.trials
        )
        rows.append({"fault": "read noise sigma", "level": sigma, "accuracy_%": 100.0 * accuracy})

    print(
        format_table(
            rows,
            float_format="{:.3g}",
            title=f"MEMHD {model.shape_label} accuracy under injected IMC faults ({args.dataset})",
        )
    )


if __name__ == "__main__":
    main()
