"""Unit tests for repro.data.synthetic."""

import tracemalloc

import numpy as np
import pytest

from repro.data.datasets import DATASET_PROFILES
from repro.data.synthetic import (
    SyntheticSpec,
    _permute_rows,
    _sample_modes,
    make_multimodal_classification,
    make_synthetic_dataset,
)
from repro.hdc.hypervector import _as_generator


def small_spec(**overrides):
    defaults = dict(
        num_classes=3,
        num_features=12,
        train_per_class=30,
        test_per_class=10,
        modes_per_class=2,
        latent_dim=5,
        class_separation=3.0,
        noise_scale=0.2,
    )
    defaults.update(overrides)
    return SyntheticSpec(**defaults)


class TestSyntheticSpec:
    def test_defaults_are_valid(self):
        spec = SyntheticSpec()
        assert spec.num_classes == 10
        assert spec.mode_assignment == "interleaved"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_classes", 0),
            ("num_features", -1),
            ("train_per_class", 0),
            ("test_per_class", 0),
            ("modes_per_class", 0),
            ("latent_dim", 0),
        ],
    )
    def test_non_positive_counts_raise(self, field, value):
        with pytest.raises(ValueError):
            small_spec(**{field: value})

    @pytest.mark.parametrize(
        "field", ["class_separation", "mode_spread", "noise_scale"]
    )
    def test_negative_scales_raise(self, field):
        with pytest.raises(ValueError):
            small_spec(**{field: -0.1})

    def test_invalid_mode_assignment_raises(self):
        with pytest.raises(ValueError):
            small_spec(mode_assignment="other")

    def test_spec_is_frozen(self):
        spec = small_spec()
        with pytest.raises(Exception):
            spec.num_classes = 5


class TestMakeMultimodalClassification:
    def test_split_shapes(self):
        spec = small_spec()
        train_x, train_y, test_x, test_y = make_multimodal_classification(spec, rng=0)
        assert train_x.shape == (90, 12)
        assert train_y.shape == (90,)
        assert test_x.shape == (30, 12)
        assert test_y.shape == (30,)

    def test_feature_range_is_unit_interval(self):
        spec = small_spec()
        train_x, _, test_x, _ = make_multimodal_classification(spec, rng=1)
        assert train_x.min() >= 0.0 and train_x.max() <= 1.0
        assert test_x.min() >= 0.0 and test_x.max() <= 1.0

    def test_every_class_present_with_expected_counts(self):
        spec = small_spec()
        _, train_y, _, test_y = make_multimodal_classification(spec, rng=2)
        assert np.array_equal(np.bincount(train_y), [30, 30, 30])
        assert np.array_equal(np.bincount(test_y), [10, 10, 10])

    def test_deterministic_given_seed(self):
        spec = small_spec()
        a = make_multimodal_classification(spec, rng=5)
        b = make_multimodal_classification(spec, rng=5)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_different_seeds_give_different_data(self):
        spec = small_spec()
        a = make_multimodal_classification(spec, rng=1)[0]
        b = make_multimodal_classification(spec, rng=2)[0]
        assert not np.array_equal(a, b)

    def test_labels_are_shuffled(self):
        spec = small_spec()
        _, train_y, _, _ = make_multimodal_classification(spec, rng=3)
        # Class blocks must not be contiguous after shuffling.
        assert not np.array_equal(train_y, np.sort(train_y))

    def test_classes_are_separable_by_a_simple_classifier(self):
        """Nearest-mode-centroid error should be far below chance."""
        spec = small_spec(class_separation=5.0, noise_scale=0.1)
        train_x, train_y, test_x, test_y = make_multimodal_classification(spec, rng=4)
        correct = 0
        for x, y in zip(test_x, test_y):
            distances = np.linalg.norm(train_x - x, axis=1)
            correct += int(train_y[np.argmin(distances)] == y)
        assert correct / test_y.size > 0.8

    def test_interleaved_classes_are_multimodal(self):
        """With interleaved modes the class mean is a poor prototype.

        Nearest-class-mean accuracy should be clearly worse than 1-NN, which
        is exactly the regime the multi-centroid AM targets.
        """
        spec = small_spec(
            num_classes=4,
            modes_per_class=4,
            train_per_class=80,
            test_per_class=30,
            class_separation=4.0,
            noise_scale=0.2,
        )
        train_x, train_y, test_x, test_y = make_multimodal_classification(spec, rng=6)
        means = np.vstack([train_x[train_y == c].mean(axis=0) for c in range(4)])
        mean_pred = np.argmin(
            np.linalg.norm(test_x[:, None, :] - means[None, :, :], axis=2), axis=1
        )
        mean_acc = float(np.mean(mean_pred == test_y))

        nn_pred = train_y[
            np.argmin(np.linalg.norm(test_x[:, None, :] - train_x[None, :, :], axis=2), axis=1)
        ]
        nn_acc = float(np.mean(nn_pred == test_y))
        assert nn_acc > mean_acc + 0.1

    def test_compact_mode_is_nearly_unimodal(self):
        """Compact assignment should be easy for a nearest-mean classifier."""
        spec = small_spec(
            mode_assignment="compact",
            class_separation=6.0,
            mode_spread=0.5,
            noise_scale=0.1,
        )
        train_x, train_y, test_x, test_y = make_multimodal_classification(spec, rng=7)
        means = np.vstack([train_x[train_y == c].mean(axis=0) for c in range(3)])
        pred = np.argmin(
            np.linalg.norm(test_x[:, None, :] - means[None, :, :], axis=2), axis=1
        )
        assert float(np.mean(pred == test_y)) > 0.9


class TestMakeSyntheticDataset:
    def test_dataset_container_fields(self):
        dataset = make_synthetic_dataset("unit", small_spec(), rng=0)
        assert dataset.name == "unit"
        assert dataset.synthetic is True
        assert dataset.num_features == 12
        assert dataset.num_classes == 3
        assert dataset.num_train == 90
        assert dataset.num_test == 30

    def test_summary(self):
        dataset = make_synthetic_dataset("unit", small_spec(), rng=0)
        summary = dataset.summary()
        assert summary["name"] == "unit"
        assert summary["num_classes"] == 3


def reference_classification(spec, rng):
    """The generator as an out-of-place formula: each class block built
    apart and copied into its split, the extremes taken over a ``vstack``
    of both splits, the splits normalized out of place and shuffled by
    fancy indexing.  Same draws, same order."""
    gen = _as_generator(rng)
    mode_centers = _sample_modes(spec, gen)
    embedding = gen.normal(
        0.0, 1.0 / np.sqrt(spec.latent_dim), size=(spec.latent_dim, spec.num_features)
    )
    offset = gen.normal(0.0, 0.5, size=spec.num_features)

    def split(samples_per_class):
        features, labels = [], []
        for class_index in range(spec.num_classes):
            modes = gen.integers(0, spec.modes_per_class, size=samples_per_class)
            latent = mode_centers[class_index, modes] + gen.normal(
                0.0, 1.0, size=(samples_per_class, spec.latent_dim)
            )
            observed = latent @ embedding + offset
            observed += gen.normal(0.0, spec.noise_scale, size=observed.shape)
            features.append(observed)
            labels.append(np.full(samples_per_class, class_index, dtype=np.int64))
        return np.vstack(features), np.concatenate(labels)

    train_x, train_y = split(spec.train_per_class)
    test_x, test_y = split(spec.test_per_class)
    both = np.vstack([train_x, test_x])
    low = both.min(axis=0)
    high = both.max(axis=0)
    span = np.where(high > low, high - low, 1.0)
    train_x = (train_x - low) / span
    test_x = (test_x - low) / span
    train_order = gen.permutation(train_x.shape[0])
    test_order = gen.permutation(test_x.shape[0])
    return (
        train_x[train_order],
        train_y[train_order],
        test_x[test_order],
        test_y[test_order],
    )


REFERENCE_SPECS = [
    pytest.param(small_spec(), id="small"),
    pytest.param(small_spec(mode_assignment="compact"), id="compact"),
    pytest.param(small_spec(num_classes=1), id="one-class"),
    pytest.param(small_spec(test_per_class=1, train_per_class=2), id="tiny-splits"),
] + [
    pytest.param(profile.spec(scale=0.01), id=name)
    for name, profile in sorted(DATASET_PROFILES.items())
]


class TestInPlaceGeneration:
    @pytest.mark.parametrize("spec", REFERENCE_SPECS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_out_of_place_formula(self, spec, seed):
        generated = make_multimodal_classification(spec, rng=seed)
        expected = reference_classification(spec, seed)
        for got, want in zip(generated, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_traced_peak_is_the_output_plus_one_class_block(self):
        spec = small_spec(
            num_classes=4, num_features=256, train_per_class=1500, test_per_class=500
        )
        tracemalloc.start()
        try:
            arrays = make_multimodal_classification(spec, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = sum(array.nbytes for array in arrays)
        class_block = spec.train_per_class * spec.num_features * 8
        # The out-of-place formula peaks at about twice the output.
        assert peak <= output + class_block + 2**18


def permuted_in_place(array, order):
    permuted = array.copy()
    _permute_rows(permuted, np.asarray(order))
    return permuted


class TestPermuteRows:
    @pytest.mark.parametrize(
        "order",
        [
            pytest.param(np.arange(9), id="identity"),
            pytest.param(np.roll(np.arange(9), 1), id="one-long-cycle"),
            pytest.param(np.array([0, 1, 5, 3, 4, 2, 6, 7, 8]), id="many-fixed-points"),
            pytest.param(np.array([3, 0, 1, 2, 5, 4, 6, 8, 7]), id="mixed-cycles"),
            pytest.param(np.random.default_rng(0).permutation(9), id="random"),
        ],
    )
    def test_equals_fancy_indexing(self, order):
        array = np.arange(9 * 4, dtype=np.float64).reshape(9, 4)
        assert np.array_equal(permuted_in_place(array, order), array[order])

    @pytest.mark.parametrize("order", [[0], [0, 1], [1, 0]])
    def test_one_and_two_rows(self, order):
        array = np.array([[1.5, -2.0], [3.0, 4.0]])[: len(order)]
        assert np.array_equal(permuted_in_place(array, order), array[order])

    def test_one_dimensional_and_empty_arrays(self):
        labels = np.array([7, 8, 9, 10], dtype=np.int64)
        order = np.array([2, 3, 1, 0])
        assert np.array_equal(permuted_in_place(labels, order), labels[order])
        empty = np.empty((0, 3))
        assert permuted_in_place(empty, np.arange(0)).shape == (0, 3)
