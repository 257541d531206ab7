"""Fuzz harness for the popcount kernel backends.

``repro.hdc._packed_kernels`` ships two implementations of the same
contract -- the self-compiled native kernel (at whatever compiler-flag
tier this machine supports) and the pure numpy reference.  Everything
downstream (packed engine, pruned search, serving) assumes they are
*bit-identical*; these tests fuzz that equivalence over randomized
shapes, read-only and zero-size operands and flag tiers, prove the
silent-numpy-fallback path when no compiler is available, and check
that kernel calls read only the backend resolved once per process.  The
fused row search and the ordered Eq. (6) accumulate are held to their
defining numpy expressions (score matrix + ``np.argmax``, ``np.add.at``).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.hdc import _packed_kernels as kernels
from repro.hdc import encoders


def _random_words(rng, rows, words):
    return rng.integers(0, 2**64, size=(rows, words), dtype=np.uint64)


def _native_only():
    if kernels.backend_name() != "native":
        pytest.skip("native kernel unavailable on this machine")


@pytest.fixture
def restore_backend():
    yield
    kernels.set_backend(None)


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


# --------------------------------------------------------------------------
# numpy reference vs native, over randomized shapes and operand kinds
# --------------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("variant", ["writable", "read-only", "zero-size"])
    def test_pair_popcount_fuzz(self, variant, restore_backend):
        _native_only()
        rng = np.random.default_rng(61)
        for trial in range(30):
            n, m, words = (int(v) for v in rng.integers(1, 20, size=3))
            if variant == "zero-size":
                n, m, words = [(0, m, words), (n, 0, words), (n, m, 0)][trial % 3]
            q = _random_words(rng, n, words)
            r = _random_words(rng, m, words)
            if variant == "read-only":
                q, r = _read_only(q, r)
            kernels.set_backend("native")
            native_and = kernels.and_popcount(q, r)
            native_xor = kernels.xor_popcount(q, r)
            kernels.set_backend("numpy")
            np.testing.assert_array_equal(native_and, kernels.and_popcount(q, r))
            np.testing.assert_array_equal(native_xor, kernels.xor_popcount(q, r))

    def test_empty_operands(self):
        empty = np.empty((0, 3), dtype=np.uint64)
        other = np.empty((5, 3), dtype=np.uint64)
        assert kernels.and_popcount(empty, other).shape == (0, 5)
        assert kernels.xor_popcount(other, empty).shape == (5, 0)

    def test_operand_validation(self):
        good = np.zeros((2, 3), dtype=np.uint64)
        with pytest.raises(ValueError):
            kernels.and_popcount(good, np.zeros((2, 4), dtype=np.uint64))
        with pytest.raises(ValueError):
            kernels.and_popcount(good.astype(np.int64), good)
        with pytest.raises(ValueError):
            kernels.xor_popcount(good[0], good)


class _UnreadableEnviron(dict):
    """An ``os.environ`` stand-in that fails every read."""

    def _fail(self, *args, **kwargs):
        raise AssertionError("kernel call read the environment")

    get = __getitem__ = __contains__ = __iter__ = __len__ = _fail


class TestResolvedOnce:
    def test_calls_read_no_environment_once_resolved(self, monkeypatch):
        rng = np.random.default_rng(83)
        q = _random_words(rng, 3, 2)
        r = _random_words(rng, 5, 2)
        columns = rng.choice([-1.0, 1.0], size=(70, 6)).astype(np.float32)
        features = rng.normal(size=(4, 6))
        values = features.astype(np.float32) @ columns.T
        coefficients = encoders._bound_coefficients(6)
        packer = kernels.SignPacker(columns, coefficients, 2.0**100)
        kernels.reset_native_cache()
        try:
            backend = kernels.backend_name()
            expected = (
                kernels.and_popcount(q, r),
                kernels.xor_popcount(q, r),
                packer(features, values),
            )
            monkeypatch.setattr(kernels.os, "environ", _UnreadableEnviron())
            assert kernels.backend_name() == backend
            np.testing.assert_array_equal(kernels.and_popcount(q, r), expected[0])
            np.testing.assert_array_equal(kernels.xor_popcount(q, r), expected[1])
            words, open_bits, count = packer(features, values)
            np.testing.assert_array_equal(words, expected[2][0])
            np.testing.assert_array_equal(open_bits, expected[2][1])
            assert count == expected[2][2]
        finally:
            monkeypatch.undo()
            kernels.reset_native_cache()


class TestCompilerTiers:
    @pytest.mark.parametrize("tier", kernels.TIERS)
    def test_pinned_tier_matches_numpy(self, tier, restore_backend, monkeypatch):
        _native_only()
        monkeypatch.setenv("REPRO_PACKED_TIER", tier)
        kernels.reset_native_cache()
        try:
            if kernels.backend_name() != "native":
                pytest.skip(f"tier {tier!r} does not compile on this machine")
            info = kernels.native_build_info()
            assert info is not None and info["tier"] == tier
            rng = np.random.default_rng(71)
            q = _random_words(rng, 7, 5)
            r = _random_words(rng, 11, 5)
            kernels.set_backend("native")
            native = kernels.xor_popcount(q, r)
            kernels.set_backend("numpy")
            np.testing.assert_array_equal(native, kernels.xor_popcount(q, r))
        finally:
            monkeypatch.delenv("REPRO_PACKED_TIER", raising=False)
            kernels.reset_native_cache()

    def test_build_info_reports_tier(self):
        _native_only()
        info = kernels.native_build_info()
        assert info is not None
        assert info["tier"] in kernels.TIERS
        assert "compiler" in info and "library" in info


class TestCompileFailureFallback:
    def test_broken_compiler_falls_back_to_numpy(self, restore_backend, monkeypatch):
        # With CC pointing nowhere the build must fail quietly and every
        # kernel call must keep working through the numpy reference.  (The
        # compile cache is content-addressed by compiler path, so the
        # broken compiler cannot hit a previously built library.)  A pinned
        # REPRO_PACKED_BACKEND=native (the CI kernel matrix) would turn the
        # fallback into an error, so the test runs with the default.
        monkeypatch.delenv("REPRO_PACKED_BACKEND", raising=False)
        monkeypatch.setenv("CC", "/nonexistent/compiler")
        kernels.reset_native_cache()
        try:
            assert kernels.backend_name() == "numpy"
            assert kernels.native_build_info() is None
            assert not kernels.sparse_scan_available()
            rng = np.random.default_rng(73)
            q = _random_words(rng, 4, 2)
            r = _random_words(rng, 6, 2)
            out = kernels.and_popcount(q, r)
            assert out.shape == (4, 6)
            with pytest.raises(RuntimeError):
                kernels.sparse_scan(
                    q,
                    r,
                    np.array([0, 6], dtype=np.int64),
                    np.arange(6, dtype=np.int64),
                    np.array([0, 1, 2, 3, 4], dtype=np.int64),
                    np.zeros(4, dtype=np.int64),
                    np.full(4, np.iinfo(np.int64).min, dtype=np.int64),
                    np.full(4, 6, dtype=np.int64),
                    kernels.OP_AND,
                )
        finally:
            monkeypatch.delenv("CC", raising=False)
            kernels.reset_native_cache()
        # Recovery: with the real toolchain back, the probe runs again.
        assert kernels.backend_name() in ("native", "numpy")

    def test_forcing_native_without_compiler_raises(self, restore_backend, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/compiler")
        kernels.reset_native_cache()
        try:
            with pytest.raises(RuntimeError):
                kernels.set_backend("native")
        finally:
            monkeypatch.delenv("CC", raising=False)
            kernels.reset_native_cache()


class TestSparseScan:
    def _csr_reference(
        self, q, r, group_start, orig_row, list_start, list_groups, op
    ):
        """Plain-python mirror of the C kernel's contract."""
        n = q.shape[0]
        best_metric = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        best_row = np.full(n, len(orig_row), dtype=np.int64)
        combine = np.bitwise_and if op == kernels.OP_AND else np.bitwise_xor
        for i in range(n):
            for g in list_groups[list_start[i]:list_start[i + 1]]:
                for pos in range(group_start[g], group_start[g + 1]):
                    acc = int(np.bitwise_count(combine(q[i], r[pos])).sum())
                    metric = acc if op == kernels.OP_AND else -acc
                    row = int(orig_row[pos])
                    if metric > best_metric[i] or (
                        metric == best_metric[i] and row < best_row[i]
                    ):
                        best_metric[i] = metric
                        best_row[i] = row
        return best_metric, best_row

    @pytest.mark.parametrize("op_name", ["and", "xor"])
    @pytest.mark.parametrize("variant", ["writable", "read-only", "zero-size"])
    def test_matches_reference(self, op_name, variant):
        _native_only()
        op = kernels.OP_AND if op_name == "and" else kernels.OP_XOR
        rng = np.random.default_rng(79)
        for trial in range(15):
            groups = int(rng.integers(1, 8))
            rows = rng.integers(1, 5, size=groups)
            words = int(rng.integers(1, 6))
            n = int(rng.integers(1, 7))
            lists = [
                np.sort(
                    rng.choice(groups, size=rng.integers(1, groups + 1), replace=False)
                )
                for _ in range(n)
            ]
            if variant == "zero-size":
                # No queries, no candidates, no words or no rows at all.
                case = trial % 4
                n = 0 if case == 0 else n
                lists = [np.empty(0, dtype=np.int64)] * n if case == 1 else lists[:n]
                words = 0 if case == 2 else words
                rows = rows * 0 if case == 3 else rows
            total = int(rows.sum())
            q = _random_words(rng, n, words)
            r = _random_words(rng, total, words)
            group_start = np.zeros(groups + 1, dtype=np.int64)
            np.cumsum(rows, out=group_start[1:])
            orig_row = rng.permutation(total).astype(np.int64)
            list_start = np.zeros(n + 1, dtype=np.int64)
            np.cumsum([len(lst) for lst in lists], out=list_start[1:])
            list_groups = np.concatenate([np.empty(0), *lists]).astype(np.int64)
            if variant == "read-only":
                _read_only(q, r, group_start, orig_row, list_start, list_groups)
            expect_metric, expect_row = self._csr_reference(
                q, r, group_start, orig_row, list_start, list_groups, op
            )
            best_metric = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
            best_row = np.full(n, total, dtype=np.int64)
            kernels.sparse_scan(
                q,
                r,
                group_start,
                orig_row,
                list_start,
                list_groups,
                best_metric,
                best_row,
                op,
            )
            np.testing.assert_array_equal(best_metric, expect_metric)
            np.testing.assert_array_equal(best_row, expect_row)


# --------------------------------------------------------------------------
# Fused row search vs scores + np.argmax, on both backends
# --------------------------------------------------------------------------
BACKENDS = ["numpy", "native"]


def _use_backend(backend):
    if backend == "native":
        _native_only()
    kernels.set_backend(backend)


@st.composite
def _search_cases(draw):
    """Queries, references, shuffled row classes and labels.

    Words come from a small pool, so rows repeat and scores tie often;
    every label names a class that owns at least one row.
    """
    words = draw(st.sampled_from([1, 2, 3, 128]))
    m = draw(st.integers(1, 24))
    n = draw(st.integers(0, 12))
    any_word = st.integers(0, 2**64 - 1)
    pool_shape = (draw(st.integers(1, 4)), words)
    pool = draw(hnp.arrays(np.uint64, pool_shape, elements=any_word))
    picks = draw(hnp.arrays(np.int64, m, elements=st.integers(0, len(pool) - 1)))
    references = pool[picks]
    queries = draw(hnp.arrays(np.uint64, (n, words), elements=any_word))
    num_classes = draw(st.integers(1, min(m, 5)))
    # Every class owns a row; the rest are assigned at random, then shuffled.
    some_class = st.integers(0, num_classes - 1)
    rest = draw(hnp.arrays(np.int64, m - num_classes, elements=some_class))
    classes = np.concatenate([np.arange(num_classes), rest])
    classes = classes[draw(st.permutations(range(m)))]
    labels = draw(hnp.arrays(np.int64, n, elements=some_class))
    return queries, references, classes, num_classes, labels


def _reference_search(queries, references, classes, labels, op):
    """Score matrix, np.argmax, and the masked per-class argmax."""
    combine = np.bitwise_and if op == kernels.OP_AND else np.bitwise_xor
    counts = np.bitwise_count(combine(queries[:, None, :], references[None]))
    counts = counts.sum(-1, dtype=np.int64)
    scores = counts if op == kernels.OP_AND else -counts  # dot = D - 2 * hamming
    best = np.argmax(scores, axis=1) if len(queries) else np.empty(0, np.int64)
    own = np.empty(len(queries), dtype=np.int64)
    for i, label in enumerate(labels):
        rows = np.flatnonzero(classes == label)
        own[i] = rows[np.argmax(scores[i, rows])]
    return best, own


class TestFusedSearch:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op", [kernels.OP_AND, kernels.OP_XOR], ids=["and", "xor"])
    @settings(max_examples=60, deadline=None)
    @given(case=_search_cases())
    def test_matches_scores_and_argmax(self, backend, op, case):
        queries, references, classes, num_classes, labels = case
        _use_backend(backend)
        try:
            search = kernels.RowSearch(references, classes, num_classes, op)
            best, own = search(queries, labels)
            unlabelled, none = search(queries)
        finally:
            kernels.set_backend(None)
        want_best, want_own = _reference_search(
            queries, references, classes, labels, op
        )
        np.testing.assert_array_equal(best, want_best)
        np.testing.assert_array_equal(own, want_own)
        np.testing.assert_array_equal(unlabelled, want_best)
        assert none is None

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("words", [1, 2, 3, 128])
    def test_all_rows_tied_picks_first(self, backend, words):
        references = np.zeros((6, words), dtype=np.uint64)
        classes = np.array([2, 0, 1, 0, 2, 1])
        queries = np.full((3, words), 2**64 - 1, dtype=np.uint64)
        _use_backend(backend)
        try:
            for op in (kernels.OP_AND, kernels.OP_XOR):
                search = kernels.RowSearch(references, classes, 3, op)
                best, own = search(queries, np.array([0, 1, 2]))
                np.testing.assert_array_equal(best, [0, 0, 0])
                np.testing.assert_array_equal(own, [1, 2, 0])
        finally:
            kernels.set_backend(None)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "label", [1, 3, -1], ids=["no-row", "past-end", "negative"]
    )
    def test_label_without_rows_raises(self, backend, label):
        # Class 1 exists (num_classes = 3) but owns no row.
        references = np.arange(8, dtype=np.uint64).reshape(4, 2)
        classes = np.array([0, 2, 2, 0])
        search = kernels.RowSearch(references, classes, 3, kernels.OP_AND)
        queries = np.ones((2, 2), dtype=np.uint64)
        _use_backend(backend)
        try:
            with pytest.raises(ValueError, match="no reference row"):
                search(queries, np.array([0, label]))
            # The rows that do exist still search normally afterwards.
            assert search(queries, np.array([0, 2]))[1].min() >= 0
        finally:
            kernels.set_backend(None)

    def test_pickled_copy_searches_its_own_arrays(self):
        rng = np.random.default_rng(5)
        references = _random_words(rng, 40, 3)
        queries = _random_words(rng, 30, 3)
        search = kernels.RowSearch(references, np.arange(40) % 4, 4, kernels.OP_AND)
        want = search(queries)[0]
        clone = pickle.loads(pickle.dumps(search))
        del search
        # Reuse the freed memory, so a stale address would read other words.
        filler = [np.full((3, 40), 2**64 - 1, dtype=np.uint64) for _ in range(50)]
        np.testing.assert_array_equal(clone(queries)[0], want)
        assert filler

    def test_label_count_must_match(self):
        search = kernels.RowSearch(np.zeros((2, 1), np.uint64), np.array([0, 1]), 2,
                                   kernels.OP_AND)
        with pytest.raises(ValueError, match="labels"):
            search(np.zeros((3, 1), np.uint64), np.array([0, 1]))


# --------------------------------------------------------------------------
# Ordered Eq. (6) accumulate vs np.add.at (native only)
# --------------------------------------------------------------------------
@st.composite
def _accumulate_cases(draw, dtype):
    rows_count = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 9))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    target = draw(hnp.arrays(np.float64, (rows_count, dim), elements=finite))
    n = draw(st.integers(0, 30))
    # Few distinct rows: most updates land on a row already updated.
    row = st.integers(0, min(rows_count, 2) - 1)
    rows = draw(hnp.arrays(np.int64, n, elements=row))
    elements = st.integers(-128, 127) if dtype == np.int8 else finite
    vectors = draw(hnp.arrays(dtype, (n, dim), elements=elements))
    scale = draw(st.floats(1e-4, 10.0) | st.floats(-10.0, -1e-4))
    return target, rows, vectors, scale


class TestOrderedAccumulate:
    @pytest.mark.parametrize("dtype", [np.int8, np.float64], ids=["int8", "float64"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_add_at(self, dtype, data):
        _native_only()
        target, rows, vectors, scale = data.draw(_accumulate_cases(dtype))
        expected = target.copy()
        np.add.at(expected, rows, scale * vectors)
        kernels.ordered_accumulate(target, rows, vectors, scale)
        np.testing.assert_array_equal(target, expected)

    def test_rejects_rows_out_of_range(self):
        _native_only()
        target = np.zeros((2, 3))
        with pytest.raises(IndexError):
            kernels.ordered_accumulate(target, np.array([2]), np.ones((1, 3)), 1.0)
        np.testing.assert_array_equal(target, 0.0)

    def test_numpy_backend_refuses(self, restore_backend):
        kernels.set_backend("numpy")
        with pytest.raises(RuntimeError):
            kernels.ordered_accumulate(
                np.zeros((1, 1)), np.array([0]), np.ones((1, 1)), 1.0
            )
