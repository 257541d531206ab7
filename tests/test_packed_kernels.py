"""Fuzz harness for the popcount kernel backends.

``repro.hdc._packed_kernels`` ships three implementations of the same
contract -- the self-compiled native kernel (at whatever compiler-flag
tier this machine supports), its pthread-parallel variant, and the pure
numpy reference.  Everything downstream (packed engine, pruned search,
serving) assumes they are *bit-identical*; these tests fuzz that
equivalence over randomized shapes, thread counts and flag tiers, and
prove the silent-numpy-fallback path when no compiler is available.
"""

import numpy as np
import pytest

from repro.hdc import _packed_kernels as kernels


def _random_words(rng, rows, words):
    return rng.integers(0, 2**64, size=(rows, words), dtype=np.uint64)


def _native_only():
    if kernels.backend_name() != "native":
        pytest.skip("native kernel unavailable on this machine")


@pytest.fixture
def restore_backend():
    yield
    kernels.set_backend(None)


# --------------------------------------------------------------------------
# numpy reference vs native, over randomized shapes and threads
# --------------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("threads", [None, 1, 3])
    def test_pair_popcount_fuzz(self, threads, restore_backend):
        _native_only()
        rng = np.random.default_rng(61)
        for _ in range(30):
            n, m, words = rng.integers(0, 20, size=3)
            q = _random_words(rng, int(n), int(words))
            r = _random_words(rng, int(m), int(words))
            kernels.set_backend("native")
            native_and = kernels.and_popcount(q, r, threads=threads)
            native_xor = kernels.xor_popcount(q, r, threads=threads)
            kernels.set_backend("numpy")
            np.testing.assert_array_equal(native_and, kernels.and_popcount(q, r))
            np.testing.assert_array_equal(native_xor, kernels.xor_popcount(q, r))

    def test_env_threads_respected(self, restore_backend, monkeypatch):
        _native_only()
        rng = np.random.default_rng(67)
        q = _random_words(rng, 9, 4)
        r = _random_words(rng, 13, 4)
        kernels.set_backend("numpy")
        expected = kernels.and_popcount(q, r)
        kernels.set_backend("native")
        for env in ("", "1", "4", "auto", "0"):
            monkeypatch.setenv("REPRO_PACKED_THREADS", env)
            np.testing.assert_array_equal(kernels.and_popcount(q, r), expected)

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
    @pytest.mark.parametrize("threads", [None, 1, 4])
    def test_matches_reference(self, op_name, threads):
        _native_only()
        op = kernels.OP_AND if op_name == "and" else kernels.OP_XOR
        rng = np.random.default_rng(79)
        for _ in range(15):
            groups = int(rng.integers(1, 8))
            rows = rng.integers(1, 5, size=groups)
            total = int(rows.sum())
            words = int(rng.integers(1, 6))
            n = int(rng.integers(1, 7))
            q = _random_words(rng, n, words)
            r = _random_words(rng, total, words)
            group_start = np.zeros(groups + 1, dtype=np.int64)
            np.cumsum(rows, out=group_start[1:])
            orig_row = rng.permutation(total).astype(np.int64)
            lists = [
                np.sort(
                    rng.choice(groups, size=rng.integers(1, groups + 1), replace=False)
                )
                for _ in range(n)
            ]
            list_start = np.zeros(n + 1, dtype=np.int64)
            np.cumsum([len(lst) for lst in lists], out=list_start[1:])
            list_groups = np.concatenate(lists).astype(np.int64)
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
                threads=threads,
            )
            np.testing.assert_array_equal(best_metric, expect_metric)
            np.testing.assert_array_equal(best_row, expect_row)
