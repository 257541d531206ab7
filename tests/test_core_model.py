"""Unit tests for repro.core.model (MEMHDModel)."""

import numpy as np
import pytest

from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel


class TestConstruction:
    def test_name(self):
        assert MEMHDModel(8, 4, MEMHDConfig(columns=8)).name == "MEMHD"

    def test_invalid_feature_or_class_counts(self):
        with pytest.raises(ValueError):
            MEMHDModel(0, 4)
        with pytest.raises(ValueError):
            MEMHDModel(8, 0)

    def test_columns_fewer_than_classes_rejected(self):
        with pytest.raises(ValueError):
            MEMHDModel(8, 10, MEMHDConfig(columns=8))

    def test_shape_label(self):
        model = MEMHDModel(8, 4, MEMHDConfig(dimension=64, columns=32))
        assert model.shape_label == "64x32"

    def test_encoder_dimension_matches_config(self):
        model = MEMHDModel(8, 4, MEMHDConfig(dimension=96, columns=16))
        assert model.encoder.dimension == 96
        assert model.encoder.num_features == 8


class TestUnfittedBehaviour:
    def test_predict_before_fit_raises(self):
        model = MEMHDModel(8, 4, MEMHDConfig(columns=8))
        with pytest.raises(RuntimeError):
            model.predict(np.zeros((1, 8)))

    def test_am_property_before_fit_raises(self):
        model = MEMHDModel(8, 4, MEMHDConfig(columns=8))
        with pytest.raises(RuntimeError):
            _ = model.associative_memory

    def test_initialization_property_before_fit_raises(self):
        model = MEMHDModel(8, 4, MEMHDConfig(columns=8))
        with pytest.raises(RuntimeError):
            _ = model.initialization

    def test_encode_binary_works_before_fit(self):
        model = MEMHDModel(8, 4, MEMHDConfig(dimension=32, columns=8, seed=1))
        encoded = model.encode_binary(np.random.default_rng(0).random((3, 8)))
        assert encoded.shape == (3, 32)
        assert set(np.unique(encoded)) <= {0, 1}


class TestFittedModel:
    def test_history_fields(self, trained_memhd):
        _, history = trained_memhd
        assert history.initial_accuracy is not None
        assert history.epochs >= 1
        assert len(history.updates) == history.epochs

    def test_predictions_shape_and_range(self, trained_memhd, tiny_dataset):
        model, _ = trained_memhd
        predictions = model.predict(tiny_dataset.test_features)
        assert predictions.shape == (tiny_dataset.num_test,)
        assert predictions.min() >= 0
        assert predictions.max() < tiny_dataset.num_classes

    def test_accuracy_beats_chance_comfortably(self, trained_memhd, tiny_dataset):
        model, _ = trained_memhd
        accuracy = model.score(tiny_dataset.test_features, tiny_dataset.test_labels)
        assert accuracy > 2.0 / tiny_dataset.num_classes

    def test_am_shape_matches_config(self, trained_memhd, memhd_config):
        model, _ = trained_memhd
        am = model.associative_memory
        assert am.num_columns == memhd_config.columns
        assert am.dimension == memhd_config.dimension

    def test_am_is_fully_utilized(self, trained_memhd, memhd_config, tiny_dataset):
        model, _ = trained_memhd
        per_class = model.associative_memory.columns_per_class()
        assert sum(per_class.values()) == memhd_config.columns
        assert all(count >= 1 for count in per_class.values())
        assert len(per_class) == tiny_dataset.num_classes

    def test_initialization_details_exposed(self, trained_memhd):
        model, _ = trained_memhd
        init = model.initialization
        assert init.method == "clustering"
        assert init.num_columns == model.config.columns

    def test_class_scores_shape(self, trained_memhd, tiny_dataset):
        model, _ = trained_memhd
        scores = model.class_scores(tiny_dataset.test_features[:7])
        assert scores.shape == (7, tiny_dataset.num_classes)
        assert np.array_equal(
            np.argmax(scores, axis=1), model.predict(tiny_dataset.test_features[:7])
        )

    def test_memory_report_matches_table1(self, trained_memhd, tiny_dataset, memhd_config):
        model, _ = trained_memhd
        report = model.memory_report()
        assert report.encoder_bits == tiny_dataset.num_features * memhd_config.dimension
        assert report.am_bits == memhd_config.columns * memhd_config.dimension

    def test_single_sample_prediction(self, trained_memhd, tiny_dataset):
        model, _ = trained_memhd
        single = model.predict(tiny_dataset.test_features[0])
        assert single.shape == (1,)

    def test_projection_matrix_binary(self, trained_memhd, tiny_dataset, memhd_config):
        model, _ = trained_memhd
        projection = model.projection_matrix_binary()
        assert projection.shape == (tiny_dataset.num_features, memhd_config.dimension)
        assert set(np.unique(projection)) <= {0, 1}


class TestTrainingVariants:
    def test_deterministic_given_seed(self, tiny_dataset):
        def run():
            model = MEMHDModel(
                tiny_dataset.num_features,
                tiny_dataset.num_classes,
                MEMHDConfig(dimension=48, columns=16, epochs=4, seed=31),
                rng=31,
            )
            model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
            return model.predict(tiny_dataset.test_features)

        assert np.array_equal(run(), run())

    def test_random_initialization_variant(self, tiny_dataset):
        model = MEMHDModel(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            MEMHDConfig(
                dimension=48, columns=16, epochs=4, init_method="random", seed=5
            ),
            rng=5,
        )
        model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        assert model.initialization.method == "random"
        assert model.score(tiny_dataset.test_features, tiny_dataset.test_labels) > 0.25

    def test_validation_history(self, tiny_dataset):
        model = MEMHDModel(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            MEMHDConfig(dimension=48, columns=16, epochs=3, seed=6),
            rng=6,
        )
        history = model.fit(
            tiny_dataset.train_features,
            tiny_dataset.train_labels,
            validation=(tiny_dataset.test_features, tiny_dataset.test_labels),
        )
        assert len(history.validation_accuracy) == history.epochs

    def test_zero_epochs_usable_after_initialization_only(self, tiny_dataset):
        model = MEMHDModel(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            MEMHDConfig(dimension=48, columns=16, epochs=0, seed=7),
            rng=7,
        )
        history = model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        assert history.train_accuracy == [history.initial_accuracy]
        assert model.predict(tiny_dataset.test_features).shape == (
            tiny_dataset.num_test,
        )

    def test_label_out_of_range_rejected(self, tiny_dataset):
        model = MEMHDModel(
            tiny_dataset.num_features,
            2,
            MEMHDConfig(dimension=32, columns=4, epochs=1),
        )
        with pytest.raises(ValueError):
            model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)

    def test_row_mean_threshold_variant(self, tiny_dataset):
        model = MEMHDModel(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            MEMHDConfig(
                dimension=48,
                columns=16,
                epochs=3,
                threshold_mode="row-mean",
                normalization="l2",
                seed=8,
            ),
            rng=8,
        )
        model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        assert model.score(tiny_dataset.test_features, tiny_dataset.test_labels) > 0.25

    def test_clustering_beats_random_initially_on_hard_data(self, tiny_hard_dataset):
        """The Fig. 5 effect at unit-test scale: better initial accuracy."""
        common = dict(dimension=96, columns=36, epochs=0)
        clustering_inits = []
        random_inits = []
        for seed in (11, 12, 13):
            for method, bucket in (
                ("clustering", clustering_inits),
                ("random", random_inits),
            ):
                model = MEMHDModel(
                    tiny_hard_dataset.num_features,
                    tiny_hard_dataset.num_classes,
                    MEMHDConfig(init_method=method, seed=seed, **common),
                    rng=seed,
                )
                history = model.fit(
                    tiny_hard_dataset.train_features, tiny_hard_dataset.train_labels
                )
                bucket.append(history.initial_accuracy)
        assert np.mean(clustering_inits) > np.mean(random_inits)

    @pytest.mark.parametrize("init_method", ["clustering", "random"])
    def test_fit_checks_and_packs_its_encodings_once(
        self, tiny_dataset, monkeypatch, init_method
    ):
        # The initialization and the trainer share one packed training set.
        from repro.core import training

        packed_rows = []
        pack_binary = training.pack_binary

        def spy(encoded, *args, **kwargs):
            packed_rows.append(len(encoded))
            return pack_binary(encoded, *args, **kwargs)

        monkeypatch.setattr(training, "pack_binary", spy)
        model = MEMHDModel(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            MEMHDConfig(dimension=48, columns=16, epochs=3, seed=9,
                        init_method=init_method),
            rng=9,
        )
        model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        assert packed_rows == [tiny_dataset.train_labels.shape[0]]
