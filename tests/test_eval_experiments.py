"""Unit tests for repro.eval.experiments."""

import pytest

from repro.baselines import BasicHDC, BasicHDCConfig
from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel
from repro.eval.experiments import (
    accuracy_memory_curve,
    cluster_ratio_sweep,
    evaluate_classifier,
    initialization_comparison,
)


def memhd_factory(dimension, columns, epochs=3):
    def factory(num_features, num_classes, seed):
        return MEMHDModel(
            num_features,
            num_classes,
            MEMHDConfig(dimension=dimension, columns=columns, epochs=epochs, seed=seed),
            rng=seed,
        )

    return factory


def basic_factory(dimension, epochs=2):
    def factory(num_features, num_classes, seed):
        return BasicHDC(
            num_features,
            num_classes,
            BasicHDCConfig(dimension=dimension, refine_epochs=epochs, seed=seed),
        )

    return factory


class TestEvaluateClassifier:
    def test_record_fields(self, tiny_dataset):
        model = MEMHDModel(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            MEMHDConfig(dimension=48, columns=16, epochs=3, seed=0),
            rng=0,
        )
        record = evaluate_classifier(model, tiny_dataset, label="MEMHD 48x16")
        assert record.model == "MEMHD"
        assert record.label == "MEMHD 48x16"
        assert record.dataset == tiny_dataset.name
        assert 0.0 <= record.test_accuracy <= 1.0
        assert record.memory_kib > 0
        assert record.am_memory_kib > 0
        assert record.history is not None

    def test_record_as_dict(self, tiny_dataset):
        model = BasicHDC(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            BasicHDCConfig(dimension=64, seed=1),
        )
        record = evaluate_classifier(model, tiny_dataset, record_history=False)
        data = record.as_dict()
        assert data["model"] == "BasicHDC"
        assert record.history is None

    def test_memory_matches_model_report(self, tiny_dataset):
        model = BasicHDC(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            BasicHDCConfig(dimension=64, seed=1),
        )
        record = evaluate_classifier(model, tiny_dataset)
        assert record.memory_kib == pytest.approx(model.memory_report().total_kib)


class TestAccuracyMemoryCurve:
    def test_one_record_per_factory(self, tiny_dataset):
        factories = [
            ("MEMHD 48x16", memhd_factory(48, 16)),
            ("BasicHDC 64D", basic_factory(64)),
        ]
        records = accuracy_memory_curve(tiny_dataset, factories, trials=1, rng=0)
        assert [record.label for record in records] == ["MEMHD 48x16", "BasicHDC 64D"]

    def test_trials_are_averaged(self, tiny_dataset):
        records = accuracy_memory_curve(
            tiny_dataset, [("MEMHD", memhd_factory(48, 16))], trials=2, rng=1
        )
        assert records[0].extras["trials"] == 2
        assert "test_accuracy_std" in records[0].extras

    def test_invalid_trials(self, tiny_dataset):
        with pytest.raises(ValueError):
            accuracy_memory_curve(tiny_dataset, [], trials=0)

    def test_memory_ordering_matches_model_sizes(self, tiny_dataset):
        records = accuracy_memory_curve(
            tiny_dataset,
            [
                ("small", memhd_factory(32, 16)),
                ("large", memhd_factory(96, 32)),
            ],
            rng=2,
        )
        assert records[0].memory_kib < records[1].memory_kib


class TestInitializationComparison:
    def test_both_methods_present(self, tiny_dataset):
        histories = initialization_comparison(
            tiny_dataset,
            MEMHDConfig(dimension=48, columns=16, epochs=3, seed=0),
            rng=3,
        )
        assert set(histories) == {"clustering", "random"}
        for history in histories.values():
            assert history.initial_accuracy is not None
            assert history.epochs >= 1
            assert len(history.validation_accuracy) == history.epochs


class TestClusterRatioSweep:
    def test_sweep_keys(self, tiny_dataset):
        results = cluster_ratio_sweep(
            tiny_dataset,
            MEMHDConfig(dimension=48, columns=16, epochs=2, seed=0),
            ratios=(0.5, 1.0),
            rng=4,
        )
        assert set(results) == {0.5, 1.0}
        assert all(0.0 <= value <= 1.0 for value in results.values())
