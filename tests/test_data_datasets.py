"""Unit tests for repro.data.datasets."""

import numpy as np
import pytest

from repro.data.datasets import (
    DATASET_PROFILES,
    Dataset,
    available_datasets,
    load_dataset,
)


class TestDatasetContainer:
    def _make(self, **overrides):
        defaults = dict(
            name="demo",
            train_features=np.random.default_rng(0).random((20, 5)),
            train_labels=np.repeat(np.arange(4), 5),
            test_features=np.random.default_rng(1).random((8, 5)),
            test_labels=np.repeat(np.arange(4), 2),
        )
        defaults.update(overrides)
        return Dataset(**defaults)

    def test_basic_properties(self):
        dataset = self._make()
        assert dataset.num_features == 5
        assert dataset.num_classes == 4
        assert dataset.num_train == 20
        assert dataset.num_test == 8

    def test_class_counts(self):
        dataset = self._make()
        assert np.array_equal(dataset.class_counts("train"), [5, 5, 5, 5])
        assert np.array_equal(dataset.class_counts("test"), [2, 2, 2, 2])

    def test_arrays_cast_to_canonical_dtypes(self):
        dataset = self._make(train_labels=np.repeat(np.arange(4), 5).astype(np.int8))
        assert dataset.train_labels.dtype == np.int64
        assert dataset.train_features.dtype == np.float64

    def test_feature_label_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            self._make(train_labels=np.zeros(3, dtype=int))

    def test_train_test_feature_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            self._make(test_features=np.zeros((8, 6)))

    def test_1d_features_raise(self):
        with pytest.raises(ValueError):
            self._make(train_features=np.zeros(20))


class TestProfilesAndLoader:
    def test_available_datasets(self):
        assert set(available_datasets()) == {"mnist", "fmnist", "isolet"}

    def test_profiles_match_paper_shapes(self):
        assert DATASET_PROFILES["mnist"].num_features == 784
        assert DATASET_PROFILES["mnist"].num_classes == 10
        assert DATASET_PROFILES["fmnist"].num_features == 784
        assert DATASET_PROFILES["isolet"].num_features == 617
        assert DATASET_PROFILES["isolet"].num_classes == 26
        assert DATASET_PROFILES["isolet"].train_per_class == 240

    def test_profile_spec_scaling(self):
        spec = DATASET_PROFILES["mnist"].spec(scale=0.01)
        assert spec.train_per_class == 60
        assert spec.num_features == 784
        assert spec.num_classes == 10

    def test_profile_spec_invalid_scale(self):
        with pytest.raises(ValueError):
            DATASET_PROFILES["mnist"].spec(scale=0.0)

    def test_load_dataset_synthetic_fallback(self):
        dataset = load_dataset("isolet", scale=0.05)
        assert dataset.synthetic is True
        assert dataset.num_features == 617
        assert dataset.num_classes == 26

    def test_load_dataset_is_deterministic_by_default(self):
        a = load_dataset("mnist", scale=0.01)
        b = load_dataset("mnist", scale=0.01)
        assert np.array_equal(a.train_features, b.train_features)

    def test_load_dataset_custom_seed_changes_data(self):
        a = load_dataset("mnist", scale=0.01, rng=1)
        b = load_dataset("mnist", scale=0.01, rng=2)
        assert not np.array_equal(a.train_features, b.train_features)

    def test_load_dataset_case_insensitive(self):
        dataset = load_dataset("MNIST", scale=0.01)
        assert dataset.name == "mnist"

    def test_load_dataset_unknown_raises(self):
        with pytest.raises(ValueError):
            load_dataset("cifar10")

    def test_scale_controls_sample_count(self):
        small = load_dataset("mnist", scale=0.01)
        larger = load_dataset("mnist", scale=0.02)
        assert larger.num_train > small.num_train

    def test_features_normalized(self):
        dataset = load_dataset("fmnist", scale=0.01)
        assert dataset.train_features.min() >= 0.0
        assert dataset.train_features.max() <= 1.0


class TestNpzLoading:
    def test_real_npz_is_preferred(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "mnist.npz"
        np.savez(
            path,
            train_x=rng.random((40, 784)) * 255,
            train_y=np.repeat(np.arange(10), 4),
            test_x=rng.random((10, 784)) * 255,
            test_y=np.arange(10),
        )
        dataset = load_dataset("mnist", data_dir=str(tmp_path))
        assert dataset.synthetic is False
        assert dataset.num_train == 40
        # Values above 1 must be rescaled into [0, 1].
        assert dataset.train_features.max() <= 1.0

    def test_npz_missing_arrays_raises(self, tmp_path):
        path = tmp_path / "mnist.npz"
        np.savez(path, train_x=np.zeros((4, 784)))
        with pytest.raises(ValueError):
            load_dataset("mnist", data_dir=str(tmp_path))

    def test_env_var_data_dir(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(1)
        np.savez(
            tmp_path / "isolet.npz",
            train_x=rng.random((26, 617)),
            train_y=np.arange(26),
            test_x=rng.random((26, 617)),
            test_y=np.arange(26),
        )
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        dataset = load_dataset("isolet")
        assert dataset.synthetic is False
