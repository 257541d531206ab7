"""Unit tests for repro.core.associative_memory (MultiCentroidAM)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.associative_memory import MultiCentroidAM
from repro.hdc.packed import pack_binary, pack_bipolar


def make_am(columns=8, dimension=16, num_classes=4, seed=0, **kwargs):
    gen = np.random.default_rng(seed)
    fp = gen.normal(size=(columns, dimension))
    column_classes = np.arange(columns) % num_classes
    return MultiCentroidAM(fp, column_classes, num_classes=num_classes, **kwargs)


class TestConstruction:
    def test_shapes_and_labels(self):
        am = make_am()
        assert am.num_columns == 8
        assert am.dimension == 16
        assert am.num_classes == 4
        assert am.shape_label == "16x8"

    def test_binary_memory_created_at_construction(self):
        am = make_am()
        assert am.binary_memory.shape == (8, 16)
        assert set(np.unique(am.binary_memory)) <= {0, 1}

    def test_missing_class_raises(self):
        fp = np.random.default_rng(0).normal(size=(4, 8))
        with pytest.raises(ValueError):
            MultiCentroidAM(fp, np.array([0, 0, 1, 1]), num_classes=3)

    def test_num_classes_smaller_than_labels_raises(self):
        fp = np.random.default_rng(0).normal(size=(4, 8))
        with pytest.raises(ValueError):
            MultiCentroidAM(fp, np.array([0, 1, 2, 3]), num_classes=3)

    def test_negative_label_raises(self):
        fp = np.random.default_rng(0).normal(size=(2, 8))
        with pytest.raises(ValueError):
            MultiCentroidAM(fp, np.array([-1, 0]))

    def test_column_class_length_mismatch_raises(self):
        fp = np.random.default_rng(0).normal(size=(4, 8))
        with pytest.raises(ValueError):
            MultiCentroidAM(fp, np.array([0, 1, 2]))

    def test_1d_memory_raises(self):
        with pytest.raises(ValueError):
            MultiCentroidAM(np.zeros(8), np.array([0]))

    def test_num_classes_inferred(self):
        fp = np.random.default_rng(0).normal(size=(3, 8))
        am = MultiCentroidAM(fp, np.array([0, 1, 2]))
        assert am.num_classes == 3


class TestColumnBookkeeping:
    def test_columns_of_class(self):
        am = make_am(columns=8, num_classes=4)
        assert np.array_equal(am.columns_of_class(0), [0, 4])
        assert np.array_equal(am.columns_of_class(3), [3, 7])

    def test_columns_of_class_out_of_range(self):
        am = make_am()
        with pytest.raises(ValueError):
            am.columns_of_class(99)

    def test_columns_per_class(self):
        am = make_am(columns=8, num_classes=4)
        assert am.columns_per_class() == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_memory_bits(self):
        am = make_am(columns=8, dimension=16)
        assert am.memory_bits() == 8 * 16


class TestScoresAndPrediction:
    def test_scores_shape(self):
        am = make_am()
        queries = np.random.default_rng(1).integers(0, 2, size=(5, 16))
        assert am.scores(queries).shape == (5, 8)

    def test_single_query_scores(self):
        am = make_am()
        query = np.random.default_rng(1).integers(0, 2, size=16)
        assert am.scores(query).shape == (8,)

    def test_scores_equal_binary_dot_product(self):
        am = make_am()
        queries = np.random.default_rng(2).integers(0, 2, size=(4, 16)).astype(float)
        expected = queries @ am.binary_memory.T.astype(float)
        assert np.allclose(am.scores(queries), expected)

    def test_dimension_mismatch_raises(self):
        am = make_am()
        with pytest.raises(ValueError):
            am.scores(np.zeros((2, 17)))

    def test_predict_returns_column_class(self):
        am = make_am()
        queries = np.random.default_rng(3).integers(0, 2, size=(6, 16))
        columns = am.predict_columns(queries)
        assert np.array_equal(am.predict(queries), am.column_classes[columns])

    def test_predict_exact_match_of_stored_vector(self):
        am = make_am(columns=6, dimension=32, num_classes=3, seed=5)
        # A query equal to one stored binary row must win that row (its dot
        # with itself equals its popcount, which upper-bounds any other dot).
        row = 4
        query = am.binary_memory[row].astype(float)
        scores = am.scores(query)
        assert scores[row] == scores.max()

    def test_class_scores_shape_and_consistency(self):
        am = make_am()
        queries = np.random.default_rng(4).integers(0, 2, size=(5, 16))
        class_scores = am.class_scores(queries)
        assert class_scores.shape == (5, 4)
        assert np.array_equal(np.argmax(class_scores, axis=1), am.predict(queries))


class TestUpdatesAndRefresh:
    def test_apply_updates_adds_and_subtracts(self):
        am = make_am(seed=7)
        before = am.fp_memory.copy()
        vector = np.ones(16)
        am.apply_updates(
            add_rows=np.array([0]),
            add_vectors=vector[None, :],
            subtract_rows=np.array([1]),
            subtract_vectors=vector[None, :],
            learning_rate=0.5,
        )
        assert np.allclose(am.fp_memory[0], before[0] + 0.5)
        assert np.allclose(am.fp_memory[1], before[1] - 0.5)
        assert np.allclose(am.fp_memory[2:], before[2:])

    def test_repeated_rows_accumulate(self):
        am = make_am(seed=8)
        before = am.fp_memory[0].copy()
        vector = np.ones(16)
        am.apply_updates(
            add_rows=np.array([0, 0, 0]),
            add_vectors=np.tile(vector, (3, 1)),
            subtract_rows=np.array([], dtype=int),
            subtract_vectors=np.zeros((0, 16)),
            learning_rate=0.1,
        )
        assert np.allclose(am.fp_memory[0], before + 0.3)

    def test_updates_do_not_touch_binary_until_refresh(self):
        am = make_am(seed=9)
        binary_before = am.binary_memory.copy()
        # A non-uniform update (only half the positions) so the row's binary
        # pattern must change once the memory is re-quantized.
        update = np.zeros((1, 16))
        update[0, :8] = 100.0
        am.apply_updates(
            add_rows=np.array([0]),
            add_vectors=update,
            subtract_rows=np.array([], dtype=int),
            subtract_vectors=np.zeros((0, 16)),
            learning_rate=1.0,
        )
        assert np.array_equal(am.binary_memory, binary_before)
        am.refresh_binary()
        assert not np.array_equal(am.binary_memory, binary_before)

    def test_invalid_learning_rate(self):
        am = make_am()
        with pytest.raises(ValueError):
            am.apply_updates(
                np.array([0]), np.zeros((1, 16)), np.array([0]), np.zeros((1, 16)), 0.0
            )

    def test_refresh_uses_configured_normalization(self):
        gen = np.random.default_rng(10)
        fp = gen.normal(size=(6, 32))
        fp[0] += 100.0  # a row that dominates the global-mean threshold
        labels = np.arange(6) % 3
        zscore_am = MultiCentroidAM(fp.copy(), labels, normalization="zscore")
        none_am = MultiCentroidAM(fp.copy(), labels, normalization="none")
        # Without normalization the dominating row binarizes to (almost) all
        # ones under the global-mean threshold; z-scoring keeps it balanced.
        assert none_am.binary_memory[0].mean() > zscore_am.binary_memory[0].mean()
        assert 0.3 < zscore_am.binary_memory[0].mean() < 0.7


#: Finite floats spanning many magnitudes, so a changed summation order
#: shows up as a changed last bit.
_update_values = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def _update_batches(draw):
    """An FP memory plus add/subtract batches with repeated rows."""
    columns = draw(st.integers(1, 5))
    dimension = draw(st.sampled_from([1, 2, 3, 8]))
    memory = draw(hnp.arrays(np.float64, (columns, dimension), elements=_update_values))
    batches = []
    for _ in range(2):
        count = draw(st.integers(0, 12))
        rows = draw(
            hnp.arrays(np.int64, (count,), elements=st.integers(0, columns - 1))
        )
        vectors = draw(
            hnp.arrays(np.float64, (count, dimension), elements=_update_values)
        )
        batches.append((rows, vectors))
    rate = draw(st.floats(1e-3, 10.0, allow_nan=False))
    return memory, batches, rate


class TestGroupedUpdates:
    """``apply_updates`` groups updates by row yet stays bit-identical to
    ``np.add.at`` (additions in order, then subtractions in order)."""

    @settings(max_examples=300, deadline=None)
    @given(_update_batches())
    def test_bitwise_equal_to_add_at(self, case):
        memory, ((add_rows, add_vectors), (sub_rows, sub_vectors)), rate = case
        columns = memory.shape[0]
        am = MultiCentroidAM(memory.copy(), np.zeros(columns, dtype=np.int64))
        am.apply_updates(add_rows, add_vectors, sub_rows, sub_vectors, rate)
        expected = memory.copy()
        np.add.at(expected, add_rows, rate * add_vectors)
        np.add.at(expected, sub_rows, -rate * sub_vectors)
        np.testing.assert_array_equal(am.fp_memory, expected)

    @pytest.mark.parametrize("dimension", [1, 2, 5])
    def test_long_runs_on_one_row_keep_sequential_order(self, dimension):
        # Dozens of updates on one row: numpy's pairwise summation would
        # round differently from np.add.at's left-to-right adds here.
        gen = np.random.default_rng(dimension)
        memory = gen.normal(size=(3, dimension)) * 1e8
        rows = np.zeros(64, dtype=np.int64)
        scales = 10.0 ** gen.integers(-6, 6, size=(64, 1))
        vectors = gen.normal(size=(64, dimension)) * scales
        am = MultiCentroidAM(memory.copy(), np.arange(3))
        am.apply_updates(rows, vectors, rows[:10], vectors[:10], 0.1)
        expected = memory.copy()
        np.add.at(expected, rows, 0.1 * vectors)
        np.add.at(expected, rows[:10], -0.1 * vectors[:10])
        np.testing.assert_array_equal(am.fp_memory, expected)

    def test_empty_updates_leave_memory_untouched(self):
        am = make_am(seed=12)
        before = am.fp_memory.copy()
        no_rows, no_vectors = np.array([], dtype=int), np.zeros((0, 16))
        am.apply_updates(no_rows, no_vectors, no_rows, no_vectors, 0.5)
        np.testing.assert_array_equal(am.fp_memory, before)

    def test_out_of_range_row_raises(self):
        am = make_am()
        with pytest.raises(IndexError):
            am.apply_updates(
                np.array([8]), np.ones((1, 16)), np.array([], dtype=int),
                np.zeros((0, 16)), 0.1,
            )


class TestPackedQueries:
    def test_packed_vectors_score_like_unpacked_queries(self):
        am = make_am(seed=13)
        queries = np.random.default_rng(13).integers(0, 2, size=(6, 16))
        packed = pack_binary(queries)
        np.testing.assert_array_equal(
            am.scores(packed, packed=True), am.scores(queries)
        )
        np.testing.assert_array_equal(
            am.predict(packed, packed=True), am.predict(queries)
        )

    def test_packed_vectors_need_packed_flag_and_binary_alphabet(self):
        am = make_am(seed=14)
        with pytest.raises(ValueError, match="packed=True"):
            am.scores(pack_binary(np.ones((2, 16))))
        with pytest.raises(ValueError, match="alphabet"):
            am.scores(pack_bipolar(np.ones((2, 16))), packed=True)
        with pytest.raises(ValueError, match="dimension"):
            am.scores(pack_binary(np.ones((2, 15))), packed=True)


class TestCopy:
    def test_copy_is_independent(self):
        am = make_am(seed=11)
        clone = am.copy()
        clone.fp_memory[0, 0] += 123.0
        clone.binary_memory[0, 0] = 1 - clone.binary_memory[0, 0]
        assert am.fp_memory[0, 0] != clone.fp_memory[0, 0]
        assert am.binary_memory[0, 0] != clone.binary_memory[0, 0]

    def test_copy_preserves_configuration(self):
        am = make_am(threshold_mode="row-mean", normalization="l2")
        clone = am.copy()
        assert clone.threshold_mode == "row-mean"
        assert clone.normalization == "l2"
        assert np.array_equal(clone.column_classes, am.column_classes)
