"""Unit tests for repro.hdc.encoders."""

import threading

import numpy as np
import pytest

from repro.hdc.encoders import IDLevelEncoder, RandomProjectionEncoder
from repro.hdc.similarity import cosine_similarity


class TestRandomProjectionEncoder:
    def test_output_shape_batch(self):
        encoder = RandomProjectionEncoder(10, 64, rng=0)
        out = encoder.encode(np.random.default_rng(0).random((5, 10)))
        assert out.shape == (5, 64)

    def test_output_shape_single(self):
        encoder = RandomProjectionEncoder(10, 64, rng=0)
        out = encoder.encode(np.random.default_rng(0).random(10))
        assert out.shape == (64,)

    def test_output_is_bipolar_by_default(self):
        encoder = RandomProjectionEncoder(8, 32, rng=1)
        out = encoder.encode(np.random.default_rng(1).random((4, 8)))
        assert set(np.unique(out)) <= {-1, 1}

    def test_unquantized_output_is_real(self):
        encoder = RandomProjectionEncoder(8, 32, quantize_output=False, rng=1)
        out = encoder.encode(np.random.default_rng(1).random((4, 8)))
        assert out.dtype == np.float32
        assert not set(np.unique(out)) <= {-1.0, 1.0}

    def test_projection_matrix_shape_and_alphabet(self):
        encoder = RandomProjectionEncoder(12, 48, rng=2)
        assert encoder.projection.shape == (12, 48)
        assert set(np.unique(encoder.projection)) <= {-1, 1}

    def test_projection_binary_view(self):
        encoder = RandomProjectionEncoder(12, 48, rng=2)
        binary = encoder.projection_binary
        assert set(np.unique(binary)) <= {0, 1}
        assert np.array_equal(2 * binary - 1, encoder.projection)

    def test_projection_binary_requires_binary_projection(self):
        encoder = RandomProjectionEncoder(6, 16, binary_projection=False, rng=3)
        with pytest.raises(ValueError):
            _ = encoder.projection_binary

    def test_gaussian_projection(self):
        encoder = RandomProjectionEncoder(6, 16, binary_projection=False, rng=3)
        assert encoder.projection.dtype == np.float32

    def test_encoding_deterministic(self):
        features = np.random.default_rng(4).random((3, 20))
        a = RandomProjectionEncoder(20, 100, rng=7).encode(features)
        b = RandomProjectionEncoder(20, 100, rng=7).encode(features)
        assert np.array_equal(a, b)

    def test_encoding_matches_manual_mvm(self):
        encoder = RandomProjectionEncoder(5, 9, rng=8)
        features = np.random.default_rng(8).random(5)
        projected = features @ encoder.projection.astype(np.float64)
        expected = np.where(projected >= 0, 1, -1)
        assert np.array_equal(encoder.encode(features), expected)

    def test_similar_inputs_have_similar_codes(self):
        encoder = RandomProjectionEncoder(50, 2048, rng=9)
        gen = np.random.default_rng(9)
        base = gen.random(50)
        near = base + gen.normal(0, 0.01, 50)
        far = gen.random(50)
        sim_near = cosine_similarity(
            encoder.encode(base).astype(float), encoder.encode(near).astype(float)
        )
        sim_far = cosine_similarity(
            encoder.encode(base).astype(float), encoder.encode(far).astype(float)
        )
        assert sim_near > sim_far

    def test_memory_bits_binary(self):
        encoder = RandomProjectionEncoder(784, 128, rng=0)
        assert encoder.memory_bits() == 784 * 128

    def test_memory_bits_float(self):
        encoder = RandomProjectionEncoder(10, 16, binary_projection=False, rng=0)
        assert encoder.memory_bits() == 10 * 16 * 32

    def test_encode_binary_roundtrip(self):
        encoder = RandomProjectionEncoder(10, 32, rng=5)
        features = np.random.default_rng(5).random((3, 10))
        bipolar = encoder.encode(features)
        binary = encoder.encode_binary(features)
        assert np.array_equal(2 * binary - 1, bipolar)

    def test_encode_binary_requires_quantized_output(self):
        encoder = RandomProjectionEncoder(10, 32, quantize_output=False, rng=5)
        with pytest.raises(ValueError):
            encoder.encode_binary(np.random.default_rng(0).random((2, 10)))

    def test_wrong_feature_count_raises(self):
        encoder = RandomProjectionEncoder(10, 32, rng=5)
        with pytest.raises(ValueError):
            encoder.encode(np.zeros((2, 11)))

    def test_3d_input_raises(self):
        encoder = RandomProjectionEncoder(10, 32, rng=5)
        with pytest.raises(ValueError):
            encoder.encode(np.zeros((2, 3, 10)))

    @pytest.mark.parametrize("num_features,dimension", [(0, 8), (8, 0), (-2, 8)])
    def test_invalid_construction(self, num_features, dimension):
        with pytest.raises(ValueError):
            RandomProjectionEncoder(num_features, dimension)

    def test_callable_interface(self):
        encoder = RandomProjectionEncoder(4, 8, rng=0)
        features = np.random.default_rng(0).random((2, 4))
        assert np.array_equal(encoder(features), encoder.encode(features))


class TestIDLevelEncoder:
    def test_output_shape(self):
        encoder = IDLevelEncoder(6, 64, num_levels=8, rng=0)
        out = encoder.encode(np.random.default_rng(0).random((3, 6)))
        assert out.shape == (3, 64)

    def test_single_vector_shape(self):
        encoder = IDLevelEncoder(6, 64, num_levels=8, rng=0)
        assert encoder.encode(np.random.default_rng(0).random(6)).shape == (64,)

    def test_output_is_bipolar(self):
        encoder = IDLevelEncoder(6, 128, num_levels=8, rng=1)
        out = encoder.encode(np.random.default_rng(1).random((4, 6)))
        assert set(np.unique(out)) <= {-1, 1}

    def test_unquantized_output(self):
        encoder = IDLevelEncoder(6, 32, num_levels=8, quantize_output=False, rng=1)
        out = encoder.encode(np.random.default_rng(1).random((2, 6)))
        assert out.dtype == np.float32

    def test_level_quantization_range(self):
        encoder = IDLevelEncoder(3, 16, num_levels=10, rng=2)
        levels = encoder.quantize_values(np.array([[0.0, 0.5, 1.0]]))
        assert levels.min() >= 0
        assert levels.max() <= 9
        assert levels[0, 0] == 0
        assert levels[0, 2] == 9

    def test_values_outside_range_are_clipped(self):
        encoder = IDLevelEncoder(2, 16, num_levels=4, rng=3)
        levels = encoder.quantize_values(np.array([[-5.0, 5.0]]))
        assert levels[0, 0] == 0
        assert levels[0, 1] == 3

    def test_custom_value_range(self):
        encoder = IDLevelEncoder(1, 16, num_levels=4, value_range=(-1.0, 1.0), rng=4)
        assert encoder.quantize_values(np.array([[-1.0]]))[0, 0] == 0
        assert encoder.quantize_values(np.array([[1.0]]))[0, 0] == 3

    def test_deterministic(self):
        features = np.random.default_rng(5).random((3, 5))
        a = IDLevelEncoder(5, 64, num_levels=8, rng=11).encode(features)
        b = IDLevelEncoder(5, 64, num_levels=8, rng=11).encode(features)
        assert np.array_equal(a, b)

    def test_similar_inputs_more_similar_than_dissimilar(self):
        encoder = IDLevelEncoder(20, 2048, num_levels=32, rng=6)
        gen = np.random.default_rng(6)
        base = gen.random(20)
        near = np.clip(base + gen.normal(0, 0.02, 20), 0, 1)
        far = gen.random(20)
        code_base = encoder.encode(base).astype(float)
        sim_near = cosine_similarity(code_base, encoder.encode(near).astype(float))
        sim_far = cosine_similarity(code_base, encoder.encode(far).astype(float))
        assert sim_near > sim_far

    def test_memory_bits_table1_formula(self):
        encoder = IDLevelEncoder(617, 1024, num_levels=256, rng=0)
        assert encoder.memory_bits() == (617 + 256) * 1024

    def test_wrong_feature_count_raises(self):
        encoder = IDLevelEncoder(5, 16, rng=0)
        with pytest.raises(ValueError):
            encoder.encode(np.zeros((2, 6)))

    def test_invalid_levels_raises(self):
        with pytest.raises(ValueError):
            IDLevelEncoder(5, 16, num_levels=1)

    def test_invalid_value_range_raises(self):
        with pytest.raises(ValueError):
            IDLevelEncoder(5, 16, value_range=(1.0, 0.0))

    def test_id_and_level_tables_have_expected_shapes(self):
        encoder = IDLevelEncoder(7, 32, num_levels=5, rng=1)
        assert encoder.id_vectors.shape == (7, 32)
        assert encoder.level_vectors.shape == (5, 32)


class TestConcurrentEncode:
    """One encoder serves concurrent callers (pipeline threads, the online
    trainer beside request threads), so a call's single-vector squeeze
    must not depend on what another call did in between."""

    @pytest.mark.parametrize(
        "make, hook",
        [
            (lambda: RandomProjectionEncoder(6, 40, rng=0), "_operands"),
            (lambda: IDLevelEncoder(6, 40, num_levels=4, rng=0), "quantize_values"),
        ],
        ids=["projection", "id-level"],
    )
    def test_batch_encode_between_validate_and_squeeze(self, make, hook):
        # Park a single-vector encode inside ``hook`` (after input
        # validation, before the squeeze), run a whole batch encode on the
        # same encoder, then let the single encode finish.
        encoder = make()
        original = getattr(encoder, hook)
        parked = threading.Event()
        release = threading.Event()

        def gate(*args):
            if threading.current_thread().name == "single":
                parked.set()
                release.wait(10.0)
            return original(*args)

        setattr(encoder, hook, gate)  # instance attribute shadows the method
        results = {}
        single = threading.Thread(
            target=lambda: results.update(single=encoder.encode(np.full(6, 0.5))),
            name="single",
        )
        single.start()
        try:
            assert parked.wait(10.0), "single encode never reached the hook"
            results["batch"] = encoder.encode(np.full((3, 6), 0.5))
        finally:
            release.set()
            single.join(10.0)
        assert not single.is_alive()
        assert results["batch"].shape == (3, 40)
        assert results["single"].shape == (40,)
        np.testing.assert_array_equal(results["single"], results["batch"][0])
