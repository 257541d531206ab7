#!/usr/bin/env python
"""Quickstart: train MEMHD on an MNIST-profile workload and map it to IMC arrays.

This script walks through the full MEMHD pipeline on a laptop-scale
synthetic surrogate of MNIST (see the README's "Datasets: synthetic
surrogates" section for the substitution rationale):

1. load a dataset,
2. configure and train a MEMHD model (clustering-based initialization +
   quantization-aware iterative learning),
3. evaluate it against a BasicHDC baseline of much higher dimensionality,
4. map the trained model onto 128x128 IMC arrays with the functional
   simulator and verify the mapping is bit-exact,
5. print the memory / cycle / array accounting that motivates the paper.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import IMCArrayConfig, InMemoryInference, MEMHDConfig, MEMHDModel, load_dataset
from repro.baselines import BasicHDC, BasicHDCConfig
from repro.eval.reporting import format_table


def main() -> None:
    # ------------------------------------------------------------------ 1.
    # A reduced-scale MNIST profile: 784 features, 10 classes.  Increase
    # `scale` toward 1.0 to approach the paper's 6000 samples per class.
    dataset = load_dataset("mnist", scale=0.03, rng=0)
    print("dataset:", dataset.summary())

    # ------------------------------------------------------------------ 2.
    # MEMHD sized for a 128x128 IMC array: D = 128 rows, C = 128 columns.
    config = MEMHDConfig(
        dimension=128,
        columns=128,
        cluster_ratio=0.8,
        epochs=20,
        learning_rate=0.05,
        seed=7,
    )
    model = MEMHDModel(dataset.num_features, dataset.num_classes, config, rng=7)
    history = model.fit(
        dataset.train_features,
        dataset.train_labels,
        validation=(dataset.test_features, dataset.test_labels),
    )
    print(
        f"\nMEMHD {model.shape_label}: initial accuracy "
        f"{history.initial_accuracy * 100:.1f}% -> final train accuracy "
        f"{history.final_train_accuracy * 100:.1f}% after {history.epochs} epochs"
    )
    memhd_accuracy = model.score(dataset.test_features, dataset.test_labels)
    print(f"MEMHD test accuracy: {memhd_accuracy * 100:.1f}%")

    # ------------------------------------------------------------------ 3.
    # A BasicHDC baseline with 16x the dimensionality, the conventional
    # "one class vector per class" design the paper improves on.
    baseline = BasicHDC(
        dataset.num_features,
        dataset.num_classes,
        BasicHDCConfig(dimension=2048, refine_epochs=20, seed=7),
    )
    baseline.fit(dataset.train_features, dataset.train_labels)
    baseline_accuracy = baseline.score(dataset.test_features, dataset.test_labels)

    rows = []
    for name, classifier, accuracy in (
        (f"MEMHD {model.shape_label}", model, memhd_accuracy),
        ("BasicHDC 2048D", baseline, baseline_accuracy),
    ):
        report = classifier.memory_report()
        rows.append(
            {
                "model": name,
                "test_accuracy_%": 100.0 * accuracy,
                "encoder_KB": report.encoder_kib,
                "am_KB": report.am_kib,
                "total_KB": report.total_kib,
            }
        )
    print("\n" + format_table(rows, float_format="{:.1f}", title="Accuracy vs memory"))

    # ------------------------------------------------------------------ 4.
    # Map the trained model onto 128x128 IMC arrays and run inference there.
    engine = InMemoryInference(model, IMCArrayConfig(128, 128))
    assert engine.matches_software_model(dataset.test_features[:200])
    stats = engine.stats()
    print(
        "\nIn-memory mapping on "
        f"{stats.array_label} arrays: {stats.total_arrays} arrays, "
        f"{stats.total_cycles_per_inference} cycles per inference "
        f"({stats.em_cycles_per_inference} encoding + "
        f"{stats.am_cycles_per_inference} associative search), "
        f"AM column utilization {stats.am_column_utilization * 100:.0f}%"
    )
    print("functional simulation matches the software model bit-exactly.")


if __name__ == "__main__":
    main()
