"""Tests of the fused encode-to-packed-words path.

``RandomProjectionEncoder.encode_packed`` packs the signs of ``M^T F``
straight into ``uint64`` words.  For the binary projection they are the
exact signs, certified from float32 sums -- a GEMM over the encoder's
lazily built float32 widening, or a table lookup from the projection's
bits for small batches (``tests/test_encode_exact.py`` holds them to
exact arithmetic); for a Gaussian one they are the signs of the float64
product.  It must equal ``pack_binary(to_binary(encode(x)))`` bit for
bit on every input -- odd dimensions, single vectors, NaN/inf rows, exact
zero projections, Gaussian and read-only projections -- as must its
unpacked twin ``encode_binary`` equal ``to_binary(encode(x))``; and MEMHD's
packed/pruned engines, which it feeds, must keep answering exactly like
the float engine.  The cache itself must never leak into checkpoints.
"""

import mmap

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel
from repro.hdc import _packed_kernels as kernels
from repro.hdc.encoders import RandomProjectionEncoder
from repro.hdc.hypervector import to_binary
from repro.hdc.packed import PackedVectors, pack_binary
from repro.io.checkpoint import content_fingerprint, load_mapped, save_checkpoint
from repro.runtime.pipeline import ENGINES

#: Any float a request body can carry after JSON decoding, and then some.
any_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)

#: Small integers make exact-zero projections (ties) common.
small_ints = st.integers(-2, 2).map(float)


def _reference(encoder: RandomProjectionEncoder, features: np.ndarray):
    """The unfused chain the fused path must reproduce."""
    return pack_binary(to_binary(encoder.encode(features)))


def _assert_same_words(fused: PackedVectors, reference: PackedVectors) -> None:
    assert fused.dimension == reference.dimension
    assert fused.alphabet == reference.alphabet
    assert fused.words.dtype == np.uint64
    np.testing.assert_array_equal(fused.words, reference.words)


def _assert_binary_matches(encoder: RandomProjectionEncoder, features) -> None:
    """``encode_binary`` is the unpacked twin: ``to_binary(encode(x))``."""
    binary = encoder.encode_binary(features)
    reference = to_binary(encoder.encode(features))
    assert binary.dtype == np.int8
    assert binary.shape == reference.shape
    np.testing.assert_array_equal(binary, reference)


@st.composite
def encoder_and_features(draw, elements=any_floats):
    """A projection encoder plus a 1-D or 2-D feature batch for it."""
    num_features = draw(st.integers(1, 9))
    dimension = draw(st.integers(1, 200))
    binary = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    encoder = RandomProjectionEncoder(
        num_features, dimension, binary_projection=binary, rng=seed
    )
    if draw(st.booleans()):
        shape = (num_features,)
    else:
        shape = (draw(st.integers(1, 5)), num_features)
    features = draw(hnp.arrays(np.float64, shape, elements=elements))
    return encoder, features


class TestFusedEqualsUnfused:
    @settings(max_examples=150, deadline=None)
    @given(encoder_and_features())
    def test_any_finite_or_nonfinite_input(self, case):
        encoder, features = case
        with np.errstate(invalid="ignore", over="ignore"):
            fused = encoder.encode_packed(features)
            reference = _reference(encoder, features)
            _assert_binary_matches(encoder, features)
        _assert_same_words(fused, reference)
        assert len(fused) == (1 if features.ndim == 1 else features.shape[0])

    @settings(max_examples=100, deadline=None)
    @given(encoder_and_features(elements=small_ints))
    def test_exact_zero_projections_go_to_bit_one(self, case):
        encoder, features = case
        _assert_same_words(
            encoder.encode_packed(features), _reference(encoder, features)
        )
        _assert_binary_matches(encoder, features)

    def test_zero_rows_and_nonfinite_rows(self):
        encoder = RandomProjectionEncoder(4, 70, rng=5)
        features = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],  # every projection is exactly 0
                [np.nan, 1.0, 2.0, 3.0],  # NaN everywhere
                [np.inf, 0.0, 0.0, 0.0],  # +/-inf by column sign
                [np.inf, -np.inf, 0.0, 0.0],  # inf - inf = NaN in some columns
            ]
        )
        with np.errstate(invalid="ignore"):
            fused = encoder.encode_packed(features)
            reference = _reference(encoder, features)
            _assert_binary_matches(encoder, features)
        _assert_same_words(fused, reference)
        bits = fused.unpack()
        assert bits[0].all()  # ties go up
        assert not bits[1].any()  # NaN maps to bit 0
        np.testing.assert_array_equal(bits[2], encoder.projection[0] > 0)

    @pytest.mark.parametrize("dimension", [1, 63, 64, 65, 127, 128, 1000])
    def test_tail_words_stay_zero(self, dimension):
        encoder = RandomProjectionEncoder(6, dimension, rng=dimension)
        features = np.random.default_rng(dimension).normal(size=(7, 6))
        fused = encoder.encode_packed(features)
        _assert_same_words(fused, _reference(encoder, features))
        np.testing.assert_array_equal(fused.unpack(), encoder.encode_binary(features))

    def test_gaussian_float32_projection(self):
        encoder = RandomProjectionEncoder(12, 90, binary_projection=False, rng=4)
        assert encoder.projection.dtype == np.float32
        features = np.random.default_rng(4).normal(size=(9, 12))
        _assert_same_words(
            encoder.encode_packed(features), _reference(encoder, features)
        )

    def test_read_only_projection(self):
        projection = RandomProjectionEncoder(8, 77, rng=6).projection.copy()
        projection.setflags(write=False)
        encoder = RandomProjectionEncoder.from_projection(projection)
        encoder.projection = projection  # adopt the read-only matrix itself
        features = np.random.default_rng(6).random((5, 8))
        _assert_same_words(
            encoder.encode_packed(features), _reference(encoder, features)
        )

    def test_empty_batch(self):
        encoder = RandomProjectionEncoder(3, 65, rng=1)
        fused = encoder.encode_packed(np.empty((0, 3)))
        assert fused.words.shape == (0, 2)

    def test_rejects_unquantized_encoder_and_bad_width(self):
        unquantized = RandomProjectionEncoder(3, 8, quantize_output=False, rng=0)
        with pytest.raises(ValueError, match="quantize_output"):
            unquantized.encode_packed(np.zeros(3))
        with pytest.raises(ValueError, match="quantize_output"):
            unquantized.encode_binary(np.zeros(3))
        with pytest.raises(ValueError, match="expected 3 features"):
            RandomProjectionEncoder(3, 8, rng=0).encode_packed(np.zeros(4))


class TestWidenedProjectionCache:
    def test_cached_between_calls(self):
        encoder = RandomProjectionEncoder(5, 40, rng=2)
        widened = encoder.widened_projection()
        assert widened.dtype == np.float32
        np.testing.assert_array_equal(widened, encoder.projection)
        assert encoder.widened_projection() is widened

    def test_assignment_invalidates(self):
        encoder = RandomProjectionEncoder(5, 40, rng=2)
        features = np.random.default_rng(2).random((4, 5))
        before = encoder.encode_packed(features)
        old = encoder.widened_projection()
        encoder.projection = (-encoder.projection).astype(np.int8)
        widened = encoder.widened_projection()
        assert widened is not old
        np.testing.assert_array_equal(widened, encoder.projection)
        after = encoder.encode_packed(features)
        _assert_same_words(after, _reference(encoder, features))
        assert not np.array_equal(after.words, before.words)

    def test_float64_projection_is_not_duplicated(self):
        encoder = RandomProjectionEncoder.from_projection(
            np.random.default_rng(3).normal(size=(4, 20)), binary_projection=False
        )
        assert encoder.widened_projection() is encoder.projection


# ------------------------------------------------------------ MEMHD wiring
@pytest.fixture(scope="module")
def odd_memhd(tiny_dataset):
    """A fitted MEMHD model at a dimension that is not a multiple of 64."""
    config = MEMHDConfig(dimension=100, columns=24, epochs=3, seed=5)
    model = MEMHDModel(tiny_dataset.num_features, tiny_dataset.num_classes, config)
    model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
    return model


class TestMEMHDEngines:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.just(24)),
            elements=st.floats(-3.0, 3.0, allow_nan=False),
        ),
        single=st.booleans(),
    )
    def test_engines_agree(self, odd_memhd, rows, single):
        queries = rows[0] if single else rows
        labels = [odd_memhd.predict(queries, engine=engine) for engine in ENGINES]
        for other in labels[1:]:
            np.testing.assert_array_equal(labels[0], other)
        reference = odd_memhd.associative_memory.predict(
            np.atleast_2d(odd_memhd.encode_binary(queries))
        )
        np.testing.assert_array_equal(labels[0], reference)
        scores = [odd_memhd.class_scores(queries, engine=engine) for engine in ENGINES]
        for other in scores[1:]:
            np.testing.assert_array_equal(scores[0], other)

    def test_engines_agree_on_test_split(self, odd_memhd, tiny_dataset):
        features = tiny_dataset.test_features
        float_labels = odd_memhd.predict(features, engine="float")
        for engine in ("packed", "pruned"):
            np.testing.assert_array_equal(
                odd_memhd.predict(features, engine=engine), float_labels
            )

    def test_unknown_engine_rejected(self, odd_memhd, tiny_dataset):
        with pytest.raises(ValueError, match="engine must be one of"):
            odd_memhd.predict(tiny_dataset.test_features, engine="quantum")
        with pytest.raises(ValueError, match="engine must be one of"):
            odd_memhd.class_scores(tiny_dataset.test_features, engine="quantum")

    def test_prepare_engine_builds_the_packer_not_the_widening(
        self, odd_memhd, tmp_path
    ):
        save_checkpoint(odd_memhd, tmp_path / "m.npz")
        restored = load_mapped(tmp_path / "m.npz")
        assert restored.encoder._packer is None
        restored.prepare_engine("packed")
        packer = restored.encoder._operands()[1]
        assert packer is not None and restored.encoder._widened is None
        # At D = 100 every block takes the GEMM: the first builds the widening.
        restored.predict(np.zeros(odd_memhd.num_features), engine="packed")
        widened = restored.encoder._widened[1]
        restored.predict(np.zeros((3, odd_memhd.num_features)), engine="packed")
        assert restored.encoder._widened[1] is widened
        assert restored.encoder._operands()[1] is packer

    def test_mapped_projection_is_shared_not_copied(self, odd_memhd, tmp_path):
        save_checkpoint(odd_memhd, tmp_path / "m.npz")
        projection = load_mapped(tmp_path / "m.npz").encoder.projection
        base = projection
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, mmap.mmap)  # the extracted file's mapping
        assert not projection.flags.writeable

    def test_from_projection_adopts_its_matrix(self, odd_memhd):
        matrix = odd_memhd.encoder.projection
        adopted = RandomProjectionEncoder.from_projection(matrix)
        assert np.shares_memory(adopted.projection, matrix)


class TestServingMemory:
    """A server at a wide ``D`` encodes its small micro-batches by table
    lookup, so it never pays the ``f * D * 4``-byte float32 widening."""

    @pytest.fixture(scope="class")
    def wide_checkpoint(self, tiny_dataset, tmp_path_factory):
        config = MEMHDConfig(dimension=1100, columns=16, epochs=1, seed=8)
        model = MEMHDModel(tiny_dataset.num_features, tiny_dataset.num_classes, config)
        model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        path = tmp_path_factory.mktemp("wide") / "m.npz"
        save_checkpoint(model, path)
        return model, path

    def test_small_batches_never_build_the_widening(
        self, wide_checkpoint, tiny_dataset
    ):
        if kernels.backend_name() != "native":
            pytest.skip("the numpy backend encodes every block by GEMM")
        model, path = wide_checkpoint
        restored = load_mapped(path)
        restored.prepare_engine("packed")
        features = tiny_dataset.test_features
        for rows in (features[:1], features[1:4]):
            np.testing.assert_array_equal(
                restored.predict(rows, engine="packed"), model.predict(rows)
            )
        assert restored.encoder._widened is None
        builds = []
        widen = restored.encoder._widen

        def counting_widen(projection):
            if restored.encoder._widened is None:
                builds.append(projection.shape)
            return widen(projection)

        restored.encoder._widen = counting_widen
        for _ in range(2):
            np.testing.assert_array_equal(
                restored.predict(features, engine="packed"), model.predict(features)
            )
        assert builds == [(tiny_dataset.num_features, 1100)]
        assert restored.encoder._widened is not None


class TestCheckpointsIgnoreTheCache:
    def test_arrays_and_fingerprint_unchanged(self, odd_memhd, tiny_dataset, tmp_path):
        cold_path = tmp_path / "cold.npz"
        warm_path = tmp_path / "warm.npz"
        save_checkpoint(odd_memhd, cold_path)
        model = load_mapped(cold_path)  # restored encoders start cold
        assert model.encoder._widened is None
        cold = {k: (v.dtype, v.shape) for k, v in model.checkpoint_arrays().items()}

        model.prepare_engine("pruned")
        model.predict(tiny_dataset.test_features, engine="pruned")
        warm = {k: (v.dtype, v.shape) for k, v in model.checkpoint_arrays().items()}
        assert warm == cold
        assert warm["encoder_projection"][0] == np.int8
        save_checkpoint(model, warm_path)
        assert content_fingerprint(warm_path) == content_fingerprint(cold_path)

    def test_mapped_model_matches_unfused_chain(
        self, odd_memhd, tiny_dataset, tmp_path
    ):
        save_checkpoint(odd_memhd, tmp_path / "m.npz")
        mapped = load_mapped(tmp_path / "m.npz")
        features = tiny_dataset.test_features
        _assert_same_words(
            mapped.encoder.encode_packed(features),
            _reference(odd_memhd.encoder, features),
        )
        for engine in ENGINES:
            np.testing.assert_array_equal(
                mapped.predict(features, engine=engine),
                odd_memhd.predict(features, engine=engine),
            )
