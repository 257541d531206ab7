"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.quantization import mean_threshold_binarize, normalize_rows
from repro.eval.metrics import accuracy, confusion_matrix
from repro.hdc.hypervector import (
    binarize,
    bipolarize,
    to_binary,
    to_bipolar,
)
from repro.hdc.memory_model import (
    associative_memory_bits,
    bits_to_kib,
    id_level_encoder_bits,
    projection_encoder_bits,
)
from repro.hdc.similarity import (
    cosine_similarity,
    dot_similarity,
    hamming_distance,
)
from repro.hdc.packed import (
    pack_binary,
    pack_bipolar,
    packed_dot_similarity,
    packed_hamming_distance,
)
from repro.imc.array import IMCArrayConfig
from repro.imc.mapping import AMStructure, analyze_am_mapping, tile_matrix
from repro.imc.noise import flip_bits


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------
finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def float_matrices(max_rows=8, max_cols=32):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(1, max_rows), st.integers(1, max_cols)
        ),
        elements=finite_floats,
    )


def binary_matrices(max_rows=16, max_cols=16):
    return hnp.arrays(
        dtype=np.int8,
        shape=st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)),
        elements=st.integers(0, 1),
    )


def bipolar_vectors(max_dim=64):
    return hnp.arrays(
        dtype=np.int8,
        shape=st.integers(1, max_dim),
        elements=st.sampled_from([-1, 1]),
    )


# --------------------------------------------------------------------------
# Hypervector algebra invariants
# --------------------------------------------------------------------------
class TestHypervectorProperties:
    @given(binary_matrices())
    def test_binary_bipolar_roundtrip(self, matrix):
        assert np.array_equal(to_binary(to_bipolar(matrix)), matrix)

    @given(bipolar_vectors())
    def test_bipolar_binary_roundtrip(self, vector):
        assert np.array_equal(to_bipolar(to_binary(vector)), vector)

    @given(float_matrices())
    def test_binarize_output_alphabet(self, matrix):
        result = binarize(matrix)
        assert set(np.unique(result)) <= {0, 1}

    @given(float_matrices())
    def test_bipolarize_output_alphabet(self, matrix):
        result = bipolarize(matrix)
        assert set(np.unique(result)) <= {-1, 1}

    @given(float_matrices())
    def test_bipolarize_idempotent_on_sign_pattern(self, matrix):
        once = bipolarize(matrix)
        twice = bipolarize(once.astype(np.float64))
        assert np.array_equal(once, twice)


# --------------------------------------------------------------------------
# Similarity metric invariants
# --------------------------------------------------------------------------
class TestSimilarityProperties:
    @given(bipolar_vectors(max_dim=48), st.data())
    def test_dot_symmetry(self, a, data):
        b = data.draw(
            hnp.arrays(dtype=np.int8, shape=a.shape, elements=st.sampled_from([-1, 1]))
        )
        assert dot_similarity(a, b) == dot_similarity(b, a)

    @given(bipolar_vectors(max_dim=48), st.data())
    def test_dot_hamming_identity_for_bipolar(self, a, data):
        b = data.draw(
            hnp.arrays(dtype=np.int8, shape=a.shape, elements=st.sampled_from([-1, 1]))
        )
        dimension = a.shape[0]
        assert dot_similarity(a, b) == dimension - 2 * hamming_distance(a, b)

    @given(bipolar_vectors(max_dim=48))
    def test_self_similarity_is_maximal(self, a):
        assert dot_similarity(a, a) == a.shape[0]
        assert hamming_distance(a, a) == 0

    @given(float_matrices(max_rows=5, max_cols=16), st.data())
    def test_cosine_bounded(self, queries, data):
        references = data.draw(
            hnp.arrays(
                dtype=np.float64,
                shape=st.tuples(st.integers(1, 5), st.just(queries.shape[1])),
                elements=finite_floats,
            )
        )
        values = np.atleast_2d(cosine_similarity(queries, references))
        assert np.all(values <= 1.0 + 1e-9)
        assert np.all(values >= -1.0 - 1e-9)

    @given(binary_matrices(max_rows=6, max_cols=24), st.data())
    def test_hamming_triangle_inequality(self, matrix, data):
        if matrix.shape[0] < 3:
            return
        a, b, c = matrix[0], matrix[1], matrix[2]
        ab = hamming_distance(a, b)
        bc = hamming_distance(b, c)
        ac = hamming_distance(a, c)
        assert ac <= ab + bc


# --------------------------------------------------------------------------
# Packed-engine equivalence invariants
# --------------------------------------------------------------------------
def _paired_batches(draw, elements, max_rows=6, max_cols=130):
    """Draw two batches sharing a dimension, biased toward odd tail sizes."""
    dimension = draw(st.integers(1, max_cols))

    def batch():
        rows = draw(st.integers(1, max_rows))
        return draw(
            hnp.arrays(dtype=np.int8, shape=(rows, dimension), elements=elements)
        )
    return batch(), batch()


class TestPackedEquivalenceProperties:
    """The bit-packed engine must be bit-exact with the unpacked paths.

    Dimensions are drawn from [1, 130], so single-word, word-aligned and
    odd tail-word (mask-needing) layouts are all exercised.
    """

    @given(st.data())
    def test_binary_dot_matches_unpacked(self, data):
        q, r = _paired_batches(data.draw, st.integers(0, 1))
        expected = q.astype(np.int64) @ r.astype(np.int64).T
        assert np.array_equal(
            packed_dot_similarity(pack_binary(q), pack_binary(r)), expected
        )
        assert np.array_equal(dot_similarity(q, r, packed=True), expected)

    @given(st.data())
    def test_bipolar_dot_matches_unpacked(self, data):
        q, r = _paired_batches(data.draw, st.sampled_from([-1, 1]))
        expected = q.astype(np.int64) @ r.astype(np.int64).T
        assert np.array_equal(
            packed_dot_similarity(pack_bipolar(q), pack_bipolar(r)), expected
        )
        assert np.array_equal(dot_similarity(q, r, packed=True), expected)

    @given(st.data())
    def test_hamming_matches_unpacked(self, data):
        q, r = _paired_batches(data.draw, st.integers(0, 1))
        assert np.array_equal(
            packed_hamming_distance(pack_binary(q), pack_binary(r)),
            hamming_distance(q, r),
        )
        assert np.array_equal(
            hamming_distance(q, r, packed=True), hamming_distance(q, r)
        )

    @given(st.data())
    def test_bipolar_dot_hamming_identity_packed(self, data):
        q, r = _paired_batches(data.draw, st.sampled_from([-1, 1]))
        dimension = q.shape[1]
        dot = packed_dot_similarity(pack_bipolar(q), pack_bipolar(r))
        hamming = packed_hamming_distance(pack_bipolar(q), pack_bipolar(r))
        assert np.array_equal(dot, dimension - 2 * hamming)

    @given(st.data())
    def test_pack_unpack_roundtrip(self, data):
        q, _ = _paired_batches(data.draw, st.integers(0, 1))
        assert np.array_equal(pack_binary(q).unpack(), q)
        bipolar = (2 * q - 1).astype(np.int8)
        assert np.array_equal(pack_bipolar(bipolar).unpack(), bipolar)


# --------------------------------------------------------------------------
# Model-level engine equivalence (all five baselines + MEMHD)
# --------------------------------------------------------------------------
#: Model families whose ``predict`` must be bit-exact across engines.
#: Built through :func:`repro.eval.sweep.build_model`, the same factory the
#: CLI and the sweep workers use, so the property covers the shipped
#: construction path.
PACKED_FAMILIES = ("memhd", "basichdc", "quanthd", "searchd", "lehdc")

#: Dimensions biased toward packed-engine edge cases: single-word,
#: word-aligned, and odd tail-word (mask-needing) layouts.
EDGE_DIMENSIONS = (3, 33, 64, 65, 127, 130)


def _tiny_problem(seed: int):
    """A small random classification problem (features in [0, 1])."""
    gen = np.random.default_rng(seed)
    num_features, num_classes, samples = 8, 3, 30
    train_x = gen.random((samples, num_features))
    train_y = gen.integers(0, num_classes, size=samples).astype(np.int64)
    # Every class needs at least one sample for the clustering init.
    train_y[:num_classes] = np.arange(num_classes)
    test_x = gen.random((12, num_features))
    return num_features, num_classes, train_x, train_y, test_x


class TestModelEngineEquivalence:
    """Differential tests: ``engine="packed"`` must equal ``engine="float"``.

    Covers every model family with a packed path -- MEMHD and all the
    baselines except the floating-point-AM OnlineHD, whose contract is a
    loud rejection -- across odd and tail-word dimensions.
    """

    @pytest.mark.parametrize("family", PACKED_FAMILIES)
    @settings(max_examples=6, deadline=None)
    @given(
        dimension=st.sampled_from(EDGE_DIMENSIONS),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_packed_predictions_match_float(self, family, dimension, seed):
        from repro.eval.sweep import build_model

        num_features, num_classes, train_x, train_y, test_x = _tiny_problem(seed)
        model = build_model(
            family,
            num_features,
            num_classes,
            dimension=dimension,
            columns=max(4, num_classes),
            epochs=1,
            id_levels=4,
            seed=seed % 1000,
        )
        model.fit(train_x, train_y)
        float_labels = model.predict(test_x, engine="float")
        packed_labels = model.predict(test_x, engine="packed")
        assert np.array_equal(float_labels, packed_labels)
        # The default engine is the float path.
        assert np.array_equal(model.predict(test_x), float_labels)
        # Single-query (1-D) inputs take the same paths.
        assert np.array_equal(
            model.predict(test_x[0], engine="packed"),
            model.predict(test_x[0], engine="float"),
        )

    @settings(max_examples=4, deadline=None)
    @given(
        dimension=st.sampled_from(EDGE_DIMENSIONS),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_onlinehd_engine_contract(self, dimension, seed):
        """OnlineHD: float works, packed is rejected loudly (FP memory)."""
        from repro.eval.sweep import build_model

        num_features, num_classes, train_x, train_y, test_x = _tiny_problem(seed)
        model = build_model(
            "onlinehd",
            num_features,
            num_classes,
            dimension=dimension,
            epochs=1,
            seed=seed % 1000,
        )
        model.fit(train_x, train_y)
        assert np.array_equal(
            model.predict(test_x), model.predict(test_x, engine="float")
        )
        with pytest.raises(ValueError, match="packed engine"):
            model.predict(test_x, engine="packed")
        with pytest.raises(ValueError):
            model.predict(test_x, engine="quantum")


# --------------------------------------------------------------------------
# Quantization invariants
# --------------------------------------------------------------------------
class TestQuantizationProperties:
    @given(float_matrices())
    def test_binarize_alphabet_and_shape(self, matrix):
        binary = mean_threshold_binarize(matrix)
        assert binary.shape == matrix.shape
        assert set(np.unique(binary)) <= {0, 1}

    @given(float_matrices())
    def test_row_mean_threshold_never_all_ones(self, matrix):
        binary = mean_threshold_binarize(matrix, "row-mean")
        # With a strict ">" threshold at the row mean, a row with genuine
        # spread can never be entirely ones (the minimum cannot be strictly
        # above the mean).  Numerically-constant rows are excluded.
        spread = matrix.std(axis=1) > 1e-9 * (1.0 + np.abs(matrix).max(axis=1))
        assert not np.any(binary.all(axis=1) & spread)

    @given(float_matrices())
    def test_zscore_rows_have_zero_mean(self, matrix):
        normalized = normalize_rows(matrix, "zscore")
        assert np.allclose(normalized.mean(axis=1), 0.0, atol=1e-6)

    @given(float_matrices())
    def test_l2_rows_have_unit_or_zero_norm(self, matrix):
        normalized = normalize_rows(matrix, "l2")
        norms = np.linalg.norm(normalized, axis=1)
        for original_row, norm in zip(matrix, norms):
            original_norm = np.linalg.norm(original_row)
            if original_norm > 1e-100:
                assert norm == pytest.approx(1.0, rel=1e-6)
            elif original_norm == 0.0:
                assert norm == pytest.approx(0.0)
            # Rows in the denormal range are numerically degenerate; their
            # normalized norm is unspecified beyond being finite.
            else:
                assert np.isfinite(norm)

    @given(float_matrices())
    def test_normalization_never_changes_shape(self, matrix):
        for mode in ("zscore", "l2", "none"):
            assert normalize_rows(matrix, mode).shape == matrix.shape


# --------------------------------------------------------------------------
# Memory model invariants
# --------------------------------------------------------------------------
class TestMemoryModelProperties:
    @given(
        st.integers(1, 4096),
        st.integers(1, 4096),
        st.integers(1, 512),
        st.integers(1, 128),
    )
    def test_memory_formulas_are_monotone(self, f, d, rows, levels):
        assert projection_encoder_bits(f, d) <= projection_encoder_bits(f + 1, d)
        assert id_level_encoder_bits(f, levels, d) >= projection_encoder_bits(f, d)
        assert associative_memory_bits(rows, d) <= associative_memory_bits(rows + 1, d)

    @given(st.integers(0, 2**40))
    def test_bits_to_kib_non_negative_and_linear(self, bits):
        assert bits_to_kib(bits) >= 0
        assert bits_to_kib(2 * bits) == pytest.approx(2 * bits_to_kib(bits))


# --------------------------------------------------------------------------
# Metrics invariants
# --------------------------------------------------------------------------
class TestMetricProperties:
    @given(
        hnp.arrays(dtype=np.int64, shape=st.integers(1, 60), elements=st.integers(0, 5)),
        st.data(),
    )
    def test_confusion_matrix_totals(self, actual, data):
        predicted = data.draw(
            hnp.arrays(dtype=np.int64, shape=actual.shape, elements=st.integers(0, 5))
        )
        matrix = confusion_matrix(predicted, actual, num_classes=6)
        assert matrix.sum() == actual.size
        assert np.trace(matrix) == np.sum(predicted == actual)
        assert accuracy(predicted, actual) == pytest.approx(
            np.trace(matrix) / actual.size
        )

    @given(
        hnp.arrays(dtype=np.int64, shape=st.integers(1, 60), elements=st.integers(0, 5))
    )
    def test_accuracy_of_perfect_prediction(self, labels):
        assert accuracy(labels, labels) == 1.0


# --------------------------------------------------------------------------
# IMC mapping invariants
# --------------------------------------------------------------------------
class TestIMCMappingProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 600),   # structure dimension
        st.integers(1, 300),   # stored vectors
        st.integers(8, 128),   # array rows
        st.integers(8, 128),   # array cols
    )
    def test_analytical_mapping_invariants(self, dimension, vectors, rows, cols):
        structure = AMStructure(dimension, vectors, label="prop")
        array = IMCArrayConfig(rows, cols)
        analysis = analyze_am_mapping(structure, array)
        assert analysis.arrays >= 1
        assert analysis.cycles >= analysis.col_tiles
        assert 0.0 < analysis.utilization <= 1.0
        # Stored cells must fit in the allocated arrays.
        assert analysis.arrays * rows * cols >= dimension * vectors

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 100),
        st.integers(1, 60),
        st.integers(4, 64),
        st.integers(4, 64),
        st.integers(0, 2**31 - 1),
    )
    def test_tiled_mvm_equals_dense_product(self, rows, cols, array_rows, array_cols, seed):
        gen = np.random.default_rng(seed)
        matrix = gen.integers(0, 2, size=(rows, cols)).astype(np.int8)
        tiled = tile_matrix(matrix, IMCArrayConfig(array_rows, array_cols))
        inputs = gen.random(rows)
        assert np.allclose(tiled.mvm(inputs), inputs @ matrix)

    @settings(max_examples=20, deadline=None)
    @given(binary_matrices(max_rows=20, max_cols=20), st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
    def test_flip_bits_alphabet_preserved(self, matrix, probability, seed):
        flipped = flip_bits(matrix, probability, rng=seed)
        assert flipped.shape == matrix.shape
        assert set(np.unique(flipped)) <= {0, 1}
