"""Unit tests for repro.baselines.quanthd."""

import numpy as np
import pytest

from repro.baselines import QuantHD, QuantHDConfig


@pytest.fixture(scope="module")
def fitted(tiny_dataset):
    model = QuantHD(
        tiny_dataset.num_features,
        tiny_dataset.num_classes,
        QuantHDConfig(dimension=256, num_levels=16, epochs=6, seed=2),
    )
    history = model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
    return model, history


class TestConfig:
    def test_defaults(self):
        config = QuantHDConfig()
        assert config.num_levels == 256
        assert config.dimension == 2048

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dimension": 0},
            {"num_levels": 1},
            {"epochs": -1},
            {"learning_rate": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            QuantHDConfig(**kwargs)


class TestQuantHD:
    def test_name(self):
        assert QuantHD(4, 2).name == "QuantHD"

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            QuantHD(4, 2, QuantHDConfig(dimension=32, num_levels=4)).predict(
                np.zeros((1, 4))
            )

    def test_binary_am(self, fitted):
        model, _ = fitted
        assert set(np.unique(model.associative_memory)) <= {-1.0, 1.0}

    def test_am_shape(self, fitted, tiny_dataset):
        model, _ = fitted
        assert model.associative_memory.shape == (tiny_dataset.num_classes, 256)

    def test_history_per_epoch(self, fitted):
        _, history = fitted
        assert history.epochs == 6
        assert len(history.updates) == 6

    def test_training_improves_over_initial(self, fitted):
        _, history = fitted
        assert history.best_train_accuracy >= history.initial_accuracy - 0.02

    def test_better_than_chance(self, fitted, tiny_dataset):
        model, _ = fitted
        assert (
            model.score(tiny_dataset.test_features, tiny_dataset.test_labels)
            > 1.5 / tiny_dataset.num_classes
        )

    def test_predictions_valid_range(self, fitted, tiny_dataset):
        model, _ = fitted
        predictions = model.predict(tiny_dataset.test_features)
        assert predictions.min() >= 0
        assert predictions.max() < tiny_dataset.num_classes

    def test_memory_report_uses_id_level_formula(self, tiny_dataset):
        model = QuantHD(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            QuantHDConfig(dimension=128, num_levels=16),
        )
        report = model.memory_report()
        assert report.encoder_bits == (tiny_dataset.num_features + 16) * 128
        assert report.am_bits == tiny_dataset.num_classes * 128

    def test_deterministic(self, tiny_dataset):
        def run():
            model = QuantHD(
                tiny_dataset.num_features,
                tiny_dataset.num_classes,
                QuantHDConfig(dimension=64, num_levels=8, epochs=2, seed=13),
            )
            model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
            return model.predict(tiny_dataset.test_features)

        assert np.array_equal(run(), run())

    def test_updates_decrease_or_stay_bounded(self, fitted, tiny_dataset):
        _, history = fitted
        # Updates are mispredictions per epoch; they must never exceed the
        # training-set size and should not explode over training.
        assert max(history.updates) <= tiny_dataset.num_train
        assert history.updates[-1] <= history.updates[0] + tiny_dataset.num_train // 4

    def test_validation_tracking(self, tiny_dataset):
        model = QuantHD(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            QuantHDConfig(dimension=64, num_levels=8, epochs=2, seed=3),
        )
        history = model.fit(
            tiny_dataset.train_features,
            tiny_dataset.train_labels,
            validation=(tiny_dataset.test_features, tiny_dataset.test_labels),
        )
        assert len(history.validation_accuracy) == 2

    def test_zero_epochs_still_usable(self, tiny_dataset):
        model = QuantHD(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            QuantHDConfig(dimension=64, num_levels=8, epochs=0, seed=3),
        )
        history = model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        assert history.train_accuracy  # falls back to the initial accuracy
        predictions = model.predict(tiny_dataset.test_features)
        assert predictions.shape == (tiny_dataset.num_test,)

    def test_packed_engine_matches_float(self, tiny_dataset):
        model = QuantHD(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            QuantHDConfig(dimension=100, num_levels=8, epochs=2, seed=10),
        )
        model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        assert np.array_equal(
            model.predict(tiny_dataset.test_features),
            model.predict(tiny_dataset.test_features, engine="packed"),
        )

    def test_packed_cache_tracks_training_refreshes(self, tiny_dataset):
        model = QuantHD(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            QuantHDConfig(dimension=64, num_levels=8, epochs=1, seed=10),
        )
        model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        model.prepare_engine("packed")
        first = model.engine.packed()
        assert model.engine.packed() is first
        model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        assert model.engine.packed() is not first
