"""Unit tests for repro.hdc.hypervector."""

import numpy as np
import pytest

from repro.hdc import hypervector as hv


class TestRandomBinaryHypervectors:
    def test_shape_and_dtype(self):
        out = hv.random_binary_hypervectors(5, 100, rng=0)
        assert out.shape == (5, 100)
        assert out.dtype == np.int8

    def test_values_are_binary(self):
        out = hv.random_binary_hypervectors(3, 500, rng=1)
        assert set(np.unique(out)) <= {0, 1}

    def test_density_default_half(self):
        out = hv.random_binary_hypervectors(20, 2000, rng=2)
        assert abs(out.mean() - 0.5) < 0.02

    def test_density_parameter(self):
        out = hv.random_binary_hypervectors(20, 2000, rng=3, density=0.2)
        assert abs(out.mean() - 0.2) < 0.02

    def test_deterministic_with_seed(self):
        a = hv.random_binary_hypervectors(4, 64, rng=42)
        b = hv.random_binary_hypervectors(4, 64, rng=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = hv.random_binary_hypervectors(4, 256, rng=1)
        b = hv.random_binary_hypervectors(4, 256, rng=2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("count,dimension", [(0, 10), (-1, 10), (3, 0), (3, -5)])
    def test_invalid_shapes_raise(self, count, dimension):
        with pytest.raises(ValueError):
            hv.random_binary_hypervectors(count, dimension)

    @pytest.mark.parametrize("density", [-0.1, 1.5])
    def test_invalid_density_raises(self, density):
        with pytest.raises(ValueError):
            hv.random_binary_hypervectors(2, 10, density=density)

    def test_generator_instance_accepted(self):
        gen = np.random.default_rng(9)
        out = hv.random_binary_hypervectors(2, 16, rng=gen)
        assert out.shape == (2, 16)


class TestRandomBipolarHypervectors:
    def test_values_are_bipolar(self):
        out = hv.random_bipolar_hypervectors(4, 200, rng=0)
        assert set(np.unique(out)) <= {-1, 1}

    def test_near_zero_mean(self):
        out = hv.random_bipolar_hypervectors(10, 4000, rng=1)
        assert abs(out.mean()) < 0.05

    def test_random_pairs_nearly_orthogonal(self):
        out = hv.random_bipolar_hypervectors(2, 10000, rng=2).astype(np.float64)
        cosine = out[0] @ out[1] / 10000
        assert abs(cosine) < 0.05


class TestRandomGaussianHypervectors:
    def test_shape_and_dtype(self):
        out = hv.random_gaussian_hypervectors(3, 50, rng=0)
        assert out.shape == (3, 50)
        assert out.dtype == np.float32

    def test_scale(self):
        out = hv.random_gaussian_hypervectors(50, 200, rng=1, scale=2.0)
        assert 1.8 < out.std() < 2.2

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            hv.random_gaussian_hypervectors(0, 10)


class TestLevelHypervectors:
    def test_shape(self):
        levels = hv.level_hypervectors(8, 128, rng=0)
        assert levels.shape == (8, 128)

    def test_bipolar_values(self):
        levels = hv.level_hypervectors(4, 64, rng=1)
        assert set(np.unique(levels)) <= {-1, 1}

    def test_extreme_levels_nearly_orthogonal(self):
        levels = hv.level_hypervectors(16, 4096, rng=2).astype(np.float64)
        similarity = levels[0] @ levels[-1] / 4096
        assert abs(similarity) < 0.1

    def test_adjacent_levels_highly_similar(self):
        levels = hv.level_hypervectors(16, 4096, rng=3).astype(np.float64)
        similarity = levels[0] @ levels[1] / 4096
        assert similarity > 0.8

    def test_similarity_decreases_monotonically_with_distance(self):
        levels = hv.level_hypervectors(10, 8000, rng=4).astype(np.float64)
        sims = [levels[0] @ levels[i] / 8000 for i in range(10)]
        # Allow small non-monotonic noise but require a clear overall decay.
        assert sims[0] > sims[4] > sims[9] - 0.05

    def test_total_flips_cover_half_the_positions(self):
        dimension = 100
        levels = hv.level_hypervectors(5, dimension, rng=5)
        flipped = (levels[0] != levels[-1]).sum()
        assert flipped == dimension // 2

    def test_too_few_levels_raises(self):
        with pytest.raises(ValueError):
            hv.level_hypervectors(1, 64)


class TestQuantizers:
    def test_binarize_with_explicit_threshold(self):
        assert np.array_equal(hv.binarize([0.1, 0.6, 0.4], threshold=0.5), [0, 1, 0])

    def test_binarize_defaults_to_mean(self):
        values = np.array([0.0, 0.0, 10.0, 10.0])
        assert np.array_equal(hv.binarize(values), [0, 0, 1, 1])

    def test_binarize_strictly_greater(self):
        values = np.array([1.0, 2.0, 3.0])
        # mean is 2.0; only the 3.0 entry exceeds it strictly.
        assert np.array_equal(hv.binarize(values), [0, 0, 1])

    def test_bipolarize_sign_with_tie_up(self):
        assert np.array_equal(hv.bipolarize([-0.5, 0.0, 0.5]), [-1, 1, 1])

    def test_bipolarize_custom_threshold(self):
        assert np.array_equal(hv.bipolarize([1.0, 3.0], threshold=2.0), [-1, 1])

    def test_to_bipolar_roundtrip(self):
        binary = np.array([[0, 1, 1], [1, 0, 0]])
        assert np.array_equal(hv.to_binary(hv.to_bipolar(binary)), binary)

    def test_to_bipolar_rejects_other_values(self):
        with pytest.raises(ValueError):
            hv.to_bipolar(np.array([0, 2]))

    def test_to_binary_rejects_other_values(self):
        with pytest.raises(ValueError):
            hv.to_binary(np.array([0, 1]))


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(hv._as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = hv._as_generator(7).random(3)
        b = hv._as_generator(7).random(3)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert hv._as_generator(gen) is gen
