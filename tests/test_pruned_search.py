"""Differential harness for the centroid-pruned shortlist search.

The pruned engine's one non-negotiable contract is *exactness*: for every
AM layout, alphabet, shortlist width and kernel backend, the winning row
(including the lowest-row-index tie-break) must be bit-identical to the
full scan's ``np.argmax``.  These tests attack that contract from every
angle -- hypothesis-driven random layouts, adversarial duplicate rows
(exact score ties), odd/tail dimensions, single-class AMs, shortlists of
width 1 (maximal escape-hatch pressure) -- and then repeat the comparison
through every model's ``engine="pruned"`` path and the serving pipeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.basic_hdc import BasicHDC
from repro.baselines.lehdc import LeHDC
from repro.baselines.onlinehd import OnlineHD
from repro.baselines.quanthd import QuantHD
from repro.baselines.searchd import SearcHD
from repro.core.associative_memory import MultiCentroidAM
from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel
from repro.hdc import _packed_kernels as kernels
from repro.hdc.packed import PackedAM, pack_binary, pack_bipolar
from repro.hdc.pruned import PrunedAM, default_prune_topk
from repro.hdc.similarity import dot_similarity
from repro.runtime.pipeline import InferencePipeline


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------
def _random_setup(rng, n, groups, rows_per_group, dim, alphabet, duplicates):
    """Random (queries, memory, column_classes) in the requested alphabet."""
    total = groups * rows_per_group
    if alphabet == "binary":
        q = rng.integers(0, 2, (n, dim)).astype(np.int8)
        r = rng.integers(0, 2, (total, dim)).astype(np.int8)
    else:
        q = rng.choice(np.array([-1, 1], dtype=np.int8), (n, dim))
        r = rng.choice(np.array([-1, 1], dtype=np.int8), (total, dim))
    if duplicates and total > 1:
        # Exact-tie pressure: clone rows across group boundaries so the
        # best score is achieved by several rows and only the tie-break
        # decides the winner.
        clones = rng.integers(0, total, size=max(2, total // 2))
        r[clones] = r[clones[0]]
    classes = np.repeat(np.arange(groups), rows_per_group)
    return q, r, classes


def _full_scan_rows(q, r, alphabet):
    """Reference winner: plain argmax over the exact dot-score matrix."""
    scores = np.atleast_2d(dot_similarity(q, r))
    return np.argmax(scores, axis=1)


def _pack(arr, alphabet):
    return pack_binary(arr) if alphabet == "binary" else pack_bipolar(arr)


def _assert_pruned_matches(q, r, classes, alphabet, prune_topk):
    index = PrunedAM(PackedAM(_pack(r, alphabet), classes), prune_topk=prune_topk)
    got = index.predict_columns(_pack(q, alphabet))
    expected = _full_scan_rows(q, r, alphabet)
    np.testing.assert_array_equal(got, expected)
    return index


# --------------------------------------------------------------------------
# Property tests: pruned == full scan, always
# --------------------------------------------------------------------------
class TestPrunedExactness:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        groups=st.integers(1, 12),
        rows_per_group=st.integers(1, 6),
        dim=st.integers(1, 200),
        alphabet=st.sampled_from(["binary", "bipolar"]),
        duplicates=st.booleans(),
        topk=st.sampled_from([None, 1, 2, 5]),
    )
    def test_argmax_identical_to_full_scan(
        self, seed, n, groups, rows_per_group, dim, alphabet, duplicates, topk
    ):
        rng = np.random.default_rng(seed)
        q, r, classes = _random_setup(
            rng, n, groups, rows_per_group, dim, alphabet, duplicates
        )
        _assert_pruned_matches(q, r, classes, alphabet, topk)

    @pytest.mark.parametrize("backend", ["numpy", "native"])
    @pytest.mark.parametrize("alphabet", ["binary", "bipolar"])
    def test_both_backends_and_alphabets(self, backend, alphabet):
        if backend == "native" and kernels.backend_name() != "native":
            pytest.skip("native kernel unavailable on this machine")
        rng = np.random.default_rng(7)
        try:
            kernels.set_backend(backend)
            for trial in range(40):
                q, r, classes = _random_setup(
                    rng,
                    n=int(rng.integers(1, 7)),
                    groups=int(rng.integers(1, 10)),
                    rows_per_group=int(rng.integers(1, 5)),
                    dim=int(rng.integers(1, 300)),
                    alphabet=alphabet,
                    duplicates=bool(trial % 2),
                )
                _assert_pruned_matches(q, r, classes, alphabet, None)
                _assert_pruned_matches(q, r, classes, alphabet, 1)
        finally:
            kernels.set_backend(None)

    def test_odd_and_tail_dimensions(self):
        # Dimensions straddling the 64-bit word boundary: the packed tail
        # bits must never leak into bounds or re-rank scores.
        rng = np.random.default_rng(11)
        for dim in (1, 63, 64, 65, 127, 128, 129, 191):
            for alphabet in ("binary", "bipolar"):
                q, r, classes = _random_setup(
                    rng, 5, 6, 3, dim, alphabet, duplicates=True
                )
                _assert_pruned_matches(q, r, classes, alphabet, 2)

    def test_single_class_am(self):
        # Degenerate layout: one group covering everything.  The shortlist
        # is the whole AM, i.e. an exact full scan.
        rng = np.random.default_rng(3)
        q, r, _ = _random_setup(rng, 4, 1, 9, 150, "binary", duplicates=False)
        classes = np.zeros(9, dtype=np.int64)
        index = _assert_pruned_matches(q, r, classes, "binary", None)
        assert index.num_groups == 1
        assert index.effective_topk() == 1

    def test_tiny_margins(self):
        # Near-identical rows: every group's bound is within a bit or two
        # of every other's, maximizing escape-hatch traffic.
        rng = np.random.default_rng(5)
        base = rng.integers(0, 2, 256).astype(np.int8)
        r = np.tile(base, (24, 1))
        flips = rng.integers(0, 256, size=24)
        r[np.arange(24), flips] ^= 1
        q = rng.integers(0, 2, (10, 256)).astype(np.int8)
        classes = np.repeat(np.arange(8), 3)
        _assert_pruned_matches(q, r, classes, "binary", 1)


class TestEscapeHatch:
    def test_fallback_path_taken_and_exact(self):
        # fallback_fraction=0 is invalid; a tiny fraction forces every
        # ambiguous query straight to the full scan, which must still be
        # exact and must be counted.
        rng = np.random.default_rng(13)
        q, r, classes = _random_setup(rng, 12, 10, 4, 64, "bipolar", True)
        index = PrunedAM(
            PackedAM(pack_bipolar(r), classes),
            prune_topk=1,
            fallback_fraction=1e-9,
        )
        got = index.predict_columns(pack_bipolar(q))
        np.testing.assert_array_equal(got, _full_scan_rows(q, r, "bipolar"))
        stats = index.stats()
        assert stats["queries"] == 12
        assert stats["fallbacks"] > 0
        assert stats["widened"] == 0  # everything escalated to a full scan

    def test_widening_path_taken_and_exact(self):
        # fallback_fraction=1 never allows a full scan, so ambiguous
        # queries must resolve through the widened second pass.
        rng = np.random.default_rng(17)
        base = rng.choice(np.array([-1, 1], dtype=np.int8), 128)
        r = np.tile(base, (30, 1))
        flips = rng.integers(0, 128, size=30)
        r[np.arange(30), flips] *= -1
        q = rng.choice(np.array([-1, 1], dtype=np.int8), (8, 128))
        classes = np.repeat(np.arange(10), 3)
        index = PrunedAM(
            PackedAM(pack_bipolar(r), classes),
            prune_topk=1,
            fallback_fraction=1.0,
        )
        got = index.predict_columns(pack_bipolar(q))
        np.testing.assert_array_equal(got, _full_scan_rows(q, r, "bipolar"))
        stats = index.stats()
        assert stats["fallbacks"] == 0
        assert stats["widened"] > 0

    def test_counters_accumulate_and_reset(self):
        rng = np.random.default_rng(19)
        q, r, classes = _random_setup(rng, 6, 8, 2, 96, "binary", False)
        index = PrunedAM(PackedAM(pack_binary(r), classes))
        index.predict_columns(pack_binary(q))
        index.predict_columns(pack_binary(q))
        stats = index.stats()
        assert stats["queries"] == 12
        assert stats["rows_full_scan"] == 12 * 16
        assert stats["prune_topk"] == index.effective_topk()
        index.reset_stats()
        assert index.stats()["queries"] == 0


class TestConfiguration:
    def test_default_topk_heuristic(self):
        assert default_prune_topk(1) == 1
        assert default_prune_topk(16) == 4
        assert default_prune_topk(17) == 5
        with pytest.raises(ValueError):
            default_prune_topk(0)

    def test_invalid_construction(self):
        rng = np.random.default_rng(0)
        r = rng.integers(0, 2, (4, 32)).astype(np.int8)
        am = PackedAM(pack_binary(r), np.arange(4))
        with pytest.raises(ValueError):
            PrunedAM(am, fallback_fraction=0.0)
        with pytest.raises(ValueError):
            PrunedAM(am, prune_topk=0).effective_topk()

    def test_live_topk_update(self):
        rng = np.random.default_rng(23)
        q, r, classes = _random_setup(rng, 4, 9, 3, 64, "binary", False)
        index = PrunedAM(PackedAM(pack_binary(r), classes))
        assert index.effective_topk() == 3  # ceil(sqrt(9))
        index.prune_topk = 99  # clamped to the group count
        assert index.effective_topk() == 9
        index.prune_topk = 2
        got = index.predict_columns(pack_binary(q))
        np.testing.assert_array_equal(got, _full_scan_rows(q, r, "binary"))


# --------------------------------------------------------------------------
# Model-level differential tests: engine="pruned" == engine="packed"
# --------------------------------------------------------------------------
def _train_data(rng, n=220, f=18, k=6):
    return rng.random((n, f)), rng.integers(0, k, n).astype(np.int64)


def _memhd(num_features, num_classes):
    return MEMHDModel(
        num_features, num_classes, MEMHDConfig(dimension=256, columns=30)
    )


def _move_binary_am(model, x, y, rng):
    """Change the model's binary AM through its one setter."""
    if isinstance(model, MEMHDModel):
        am = model.associative_memory
        am.fp_memory = rng.normal(size=am.fp_memory.shape)
        am.refresh_binary()
    elif isinstance(model, SearcHD):
        # A stochastic pass flips bits in place, then re-assigns the AM.
        encoded = model.encoder.encode(x).astype(np.int8)
        assert model._stochastic_pass(encoded, rng.permutation(y)) > 0
    else:
        model.fit(x, rng.permutation(y))


class TestModelEngines:
    @pytest.mark.parametrize(
        "factory",
        [BasicHDC, QuantHD, LeHDC, SearcHD],
        ids=lambda cls: cls.__name__,
    )
    def test_baseline_pruned_matches_packed(self, factory):
        rng = np.random.default_rng(31)
        x, y = _train_data(rng)
        model = factory(18, 6)
        model.fit(x, y)
        queries = rng.random((50, 18))
        packed = model.predict(queries, engine="packed")
        pruned = model.predict(queries, engine="pruned")
        np.testing.assert_array_equal(pruned, packed)
        model.configure_pruning(1)
        np.testing.assert_array_equal(model.predict(queries, engine="pruned"), packed)
        stats = model.prune_stats()
        assert stats is not None and stats["queries"] == 100
        with pytest.raises(ValueError, match="engine must be one of"):
            model.prepare_engine("bogus")
        with pytest.raises(ValueError, match="engine must be one of"):
            model.predict(queries, engine="bogus")

    @pytest.mark.parametrize(
        "factory",
        [_memhd, BasicHDC, QuantHD, LeHDC, SearcHD],
        ids=["MEMHD", "BasicHDC", "QuantHD", "LeHDC", "SearcHD"],
    )
    def test_setter_invalidates_warm_engines(self, factory):
        rng = np.random.default_rng(59)
        x, y = _train_data(rng)
        model = factory(18, 6)
        model.fit(x, y)
        queries = rng.random((80, 18))
        model.prepare_engine("packed")
        model.prepare_engine("pruned")
        model.configure_pruning(1)
        before = model.predict(queries, engine="packed")
        np.testing.assert_array_equal(model.predict(queries, engine="pruned"), before)
        _move_binary_am(model, x, y, rng)
        labels = model.predict(queries, engine="float")
        assert not np.array_equal(labels, before), "the move changed no label"
        np.testing.assert_array_equal(model.predict(queries, engine="packed"), labels)
        np.testing.assert_array_equal(model.predict(queries, engine="pruned"), labels)
        assert model.prune_stats()["prune_topk"] == 1

    def test_memhd_pruned_matches_packed(self):
        rng = np.random.default_rng(37)
        x, y = _train_data(rng)
        model = MEMHDModel(18, 6, MEMHDConfig(dimension=256, columns=30))
        model.fit(x, y)
        queries = rng.random((60, 18))
        packed = model.predict(queries, engine="packed")
        np.testing.assert_array_equal(model.predict(queries, engine="pruned"), packed)
        # class_scores on the pruned engine delegates to the exact scan.
        np.testing.assert_array_equal(
            model.class_scores(queries, engine="pruned"),
            model.class_scores(queries, engine="packed"),
        )
        with pytest.raises(ValueError, match="engine must be one of"):
            model.prepare_engine("bogus")

    def test_multicentroid_am_invalidation(self):
        # refresh_binary must rebuild the pruned index, not serve stale
        # sketches over a moved memory.
        rng = np.random.default_rng(41)
        fp = rng.normal(size=(20, 128))
        am = MultiCentroidAM(fp, np.repeat(np.arange(5), 4))
        q = rng.integers(0, 2, (9, 128)).astype(np.int8)
        first = am.pruned().predict_columns(q)
        np.testing.assert_array_equal(first, am.predict_columns(q, packed=True))
        am.fp_memory += rng.normal(size=fp.shape)
        am.refresh_binary()
        moved = am.predict_columns(q)
        assert not np.array_equal(moved, first), "refresh moved no winner"
        np.testing.assert_array_equal(am.pruned().predict_columns(q), moved)
        np.testing.assert_array_equal(am.predict_columns(q, packed=True), moved)

    def test_onlinehd_rejects_pruned(self):
        rng = np.random.default_rng(43)
        x, y = _train_data(rng)
        model = OnlineHD(18, 6)
        model.fit(x, y)
        with pytest.raises(ValueError, match="pruned"):
            model.predict(rng.random((3, 18)), engine="pruned")
        with pytest.raises(ValueError):
            model.prepare_engine("pruned")


class TestPipelineIntegration:
    def test_pipeline_pruned_labels_identical(self):
        rng = np.random.default_rng(47)
        x, y = _train_data(rng)
        model = MEMHDModel(18, 6, MEMHDConfig(dimension=256, columns=30))
        model.fit(x, y)
        queries = rng.random((120, 18))
        packed = InferencePipeline(model, engine="packed", chunk_size=16)
        pruned = InferencePipeline(model, engine="pruned", chunk_size=16, prune_topk=2)
        np.testing.assert_array_equal(pruned.predict(queries), packed.predict(queries))
        stats = pruned.prune_stats()
        assert stats is not None
        assert stats["queries"] >= 120
        assert stats["prune_topk"] == 2

    def test_pipeline_validates_prune_topk(self):
        rng = np.random.default_rng(53)
        x, y = _train_data(rng)
        model = MEMHDModel(18, 6, MEMHDConfig(dimension=256, columns=30))
        model.fit(x, y)
        with pytest.raises(ValueError):
            InferencePipeline(model, engine="pruned", prune_topk=0)

    def test_pipeline_rejects_engineless_model(self):
        class Plain:
            def predict(self, features):
                return np.zeros(len(features), dtype=np.int64)

        with pytest.raises(ValueError):
            InferencePipeline(Plain(), engine="pruned")
