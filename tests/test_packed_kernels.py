"""Fuzz harness for the popcount kernel backends.

``repro.hdc._packed_kernels`` ships two implementations of the same
contract -- the self-compiled native kernel (at whatever compiler-flag
tier this machine supports) and the pure numpy reference.  Everything
downstream (packed engine, pruned search, serving) assumes they are
*bit-identical*; these tests fuzz that equivalence over randomized
shapes, read-only and zero-size operands and flag tiers, prove the
silent-numpy-fallback path when no compiler is available, and check
that kernel calls read only the backend resolved once per process.
"""

import numpy as np
import pytest

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
