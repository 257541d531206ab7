"""Unit tests for repro.core.initialization."""

import numpy as np
import pytest

from repro.core.initialization import (
    clustering_initialization,
    initial_clusters_per_class,
    random_sampling_initialization,
)


class TestInitialClustersPerClass:
    def test_paper_formula(self):
        # n = max(1, floor(C * R / k))
        assert initial_clusters_per_class(128, 10, 0.8) == 10
        assert initial_clusters_per_class(128, 10, 1.0) == 12
        assert initial_clusters_per_class(64, 26, 0.5) == 1

    def test_at_least_one(self):
        assert initial_clusters_per_class(30, 26, 0.1) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            initial_clusters_per_class(5, 10, 0.8)
        with pytest.raises(ValueError):
            initial_clusters_per_class(64, 10, 0.0)
        with pytest.raises(ValueError):
            initial_clusters_per_class(64, 10, 1.5)


class TestClusteringInitialization:
    def test_full_utilization(self, encoded_training_data):
        encoded, labels = encoded_training_data
        result = clustering_initialization(
            encoded, labels, columns=16, num_classes=4, cluster_ratio=0.75, rng=0
        )
        assert result.fp_memory.shape == (16, encoded.shape[1])
        assert result.column_classes.shape == (16,)
        assert result.num_columns == 16

    def test_every_class_gets_at_least_one_column(self, encoded_training_data):
        encoded, labels = encoded_training_data
        result = clustering_initialization(
            encoded, labels, columns=16, num_classes=4, cluster_ratio=0.5, rng=1
        )
        assert set(np.unique(result.column_classes)) == {0, 1, 2, 3}
        assert sum(result.clusters_per_class.values()) == 16

    def test_ratio_one_allocates_everything_up_front(self, encoded_training_data):
        encoded, labels = encoded_training_data
        result = clustering_initialization(
            encoded, labels, columns=16, num_classes=4, cluster_ratio=1.0, rng=2
        )
        assert result.num_columns == 16
        assert result.method == "clustering"

    def test_allocation_rounds_recorded_for_small_ratio(self, encoded_training_data):
        encoded, labels = encoded_training_data
        result = clustering_initialization(
            encoded,
            labels,
            columns=20,
            num_classes=4,
            cluster_ratio=0.4,
            allocation_rounds=3,
            rng=3,
        )
        assert result.num_columns == 20
        assert len(result.allocation_rounds) >= 1
        for record in result.allocation_rounds:
            assert "misclassified" in record
            assert "granted" in record

    def test_allocation_favours_confused_classes(self, encoded_training_data):
        encoded, labels = encoded_training_data
        result = clustering_initialization(
            encoded,
            labels,
            columns=24,
            num_classes=4,
            cluster_ratio=0.4,
            allocation_rounds=2,
            rng=4,
        )
        # The classes receiving extra columns in a round must be among those
        # with non-zero misclassification counts whenever any exist.
        for record in result.allocation_rounds:
            wrong = np.asarray(record["misclassified"])
            granted = np.asarray(record["granted"])
            if wrong.sum() > 0 and granted.sum() > 0:
                assert wrong[np.argmax(granted)] > 0

    def test_deterministic(self, encoded_training_data):
        encoded, labels = encoded_training_data
        a = clustering_initialization(
            encoded, labels, columns=16, num_classes=4, rng=77
        )
        b = clustering_initialization(
            encoded, labels, columns=16, num_classes=4, rng=77
        )
        assert np.allclose(a.fp_memory, b.fp_memory)
        assert np.array_equal(a.column_classes, b.column_classes)

    def test_padding_for_tiny_datasets(self):
        gen = np.random.default_rng(0)
        encoded = gen.integers(0, 2, size=(8, 12)).astype(float)
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        result = clustering_initialization(
            encoded, labels, columns=16, num_classes=4, cluster_ratio=1.0, rng=0
        )
        assert result.num_columns == 16
        assert result.padded_columns > 0

    def test_missing_class_raises(self, encoded_training_data):
        encoded, labels = encoded_training_data
        with pytest.raises(ValueError):
            clustering_initialization(
                encoded, labels, columns=16, num_classes=5, rng=0
            )

    def test_columns_fewer_than_classes_raises(self, encoded_training_data):
        encoded, labels = encoded_training_data
        with pytest.raises(ValueError):
            clustering_initialization(encoded, labels, columns=3, num_classes=4)

    def test_length_mismatch_raises(self, encoded_training_data):
        encoded, labels = encoded_training_data
        with pytest.raises(ValueError):
            clustering_initialization(encoded, labels[:-1], columns=8, num_classes=4)

    def test_1d_encoded_raises(self):
        with pytest.raises(ValueError):
            clustering_initialization(np.zeros(5), np.zeros(5), columns=4, num_classes=2)

    def test_non_binary_encodings_raise(self, encoded_training_data):
        encoded, labels = encoded_training_data
        with pytest.raises(ValueError, match=r"binary \{0, 1\}"):
            clustering_initialization(2 * encoded - 1, labels, columns=8, num_classes=4)


class TestRandomSamplingInitialization:
    def test_shapes_and_full_utilization(self, encoded_training_data):
        encoded, labels = encoded_training_data
        result = random_sampling_initialization(
            encoded, labels, columns=16, num_classes=4, rng=0
        )
        assert result.fp_memory.shape == (16, encoded.shape[1])
        assert result.method == "random"
        assert sum(result.clusters_per_class.values()) == 16

    def test_columns_split_evenly(self, encoded_training_data):
        encoded, labels = encoded_training_data
        result = random_sampling_initialization(
            encoded, labels, columns=18, num_classes=4, rng=1
        )
        counts = sorted(result.clusters_per_class.values())
        assert counts == [4, 4, 5, 5]

    def test_vectors_are_sampled_from_the_right_class(self, encoded_training_data):
        encoded, labels = encoded_training_data
        result = random_sampling_initialization(
            encoded, labels, columns=8, num_classes=4, rng=2
        )
        for column, class_label in enumerate(result.column_classes):
            stored = result.fp_memory[column]
            class_samples = encoded[labels == class_label]
            matches = np.any(np.all(np.isclose(class_samples, stored), axis=1))
            assert matches

    def test_deterministic(self, encoded_training_data):
        encoded, labels = encoded_training_data
        a = random_sampling_initialization(encoded, labels, 12, 4, rng=5)
        b = random_sampling_initialization(encoded, labels, 12, 4, rng=5)
        assert np.allclose(a.fp_memory, b.fp_memory)

    def test_sampling_with_replacement_for_small_classes(self):
        gen = np.random.default_rng(0)
        encoded = gen.integers(0, 2, size=(6, 10)).astype(float)
        labels = np.array([0, 0, 0, 1, 1, 1])
        result = random_sampling_initialization(encoded, labels, 10, 2, rng=3)
        assert result.num_columns == 10

    def test_columns_fewer_than_classes_raises(self, encoded_training_data):
        encoded, labels = encoded_training_data
        with pytest.raises(ValueError):
            random_sampling_initialization(encoded, labels, 2, 4)

    def test_empty_class_raises(self):
        encoded = np.random.default_rng(0).integers(0, 2, size=(4, 8)).astype(float)
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError):
            random_sampling_initialization(encoded, labels, columns=6, num_classes=3)
