"""Unit tests for repro.hdc.clustering (dot-similarity K-means)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.hdc.clustering as clustering
from repro.hdc import _packed_kernels as kernels
from repro.hdc.clustering import dot_kmeans
from repro.hdc.packed import pack_binary


def _blobs(num_blobs, per_blob, dimension, separation, rng):
    """Well-separated Gaussian blobs plus their blob labels."""
    gen = np.random.default_rng(rng)
    centers = gen.normal(0.0, separation, size=(num_blobs, dimension))
    samples = np.vstack(
        [centers[i] + gen.normal(0, 0.3, size=(per_blob, dimension)) for i in range(num_blobs)]
    )
    labels = np.repeat(np.arange(num_blobs), per_blob)
    return samples, labels


class TestDotKMeans:
    def test_result_shapes(self):
        samples, _ = _blobs(3, 20, 8, 5.0, 0)
        result = dot_kmeans(samples, 3, rng=0)
        assert result.centroids.shape == (3, 8)
        assert result.assignments.shape == (60,)
        assert result.num_clusters == 3

    def test_assignments_within_range(self):
        samples, _ = _blobs(4, 10, 6, 4.0, 1)
        result = dot_kmeans(samples, 4, rng=1)
        assert result.assignments.min() >= 0
        assert result.assignments.max() < 4

    def test_separated_blobs_are_recovered(self):
        samples, blob_labels = _blobs(3, 30, 10, 8.0, 2)
        result = dot_kmeans(samples, 3, rng=2)
        # Every blob should map (almost) entirely to a single cluster.
        for blob in range(3):
            assigned = result.assignments[blob_labels == blob]
            dominant_fraction = np.bincount(assigned, minlength=3).max() / assigned.size
            assert dominant_fraction > 0.9

    def test_single_cluster_is_mean(self):
        samples = np.random.default_rng(3).normal(size=(20, 5))
        result = dot_kmeans(samples, 1, rng=3)
        assert np.allclose(result.centroids[0], samples.mean(axis=0))
        assert result.converged

    def test_no_empty_clusters(self):
        samples, _ = _blobs(2, 50, 6, 5.0, 4)
        result = dot_kmeans(samples, 8, rng=4)
        sizes = result.cluster_sizes()
        assert sizes.shape == (8,)
        assert np.all(sizes > 0)

    def test_deterministic_with_seed(self):
        samples, _ = _blobs(3, 15, 7, 4.0, 5)
        a = dot_kmeans(samples, 3, rng=42)
        b = dot_kmeans(samples, 3, rng=42)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.allclose(a.centroids, b.centroids)

    def test_random_init_also_works(self):
        samples, _ = _blobs(3, 20, 6, 6.0, 6)
        result = dot_kmeans(samples, 3, rng=6, init="random")
        assert result.centroids.shape == (3, 6)

    def test_unknown_init_raises(self):
        with pytest.raises(ValueError):
            dot_kmeans(np.zeros((5, 3)), 2, init="bogus")

    def test_more_clusters_than_samples_raises(self):
        with pytest.raises(ValueError):
            dot_kmeans(np.zeros((3, 2)), 4)

    def test_zero_clusters_raises(self):
        with pytest.raises(ValueError):
            dot_kmeans(np.zeros((3, 2)), 0)

    def test_1d_input_raises(self):
        with pytest.raises(ValueError):
            dot_kmeans(np.zeros(5), 2)

    def test_iterations_bounded(self):
        samples, _ = _blobs(4, 25, 8, 3.0, 7)
        result = dot_kmeans(samples, 4, max_iterations=3, rng=7)
        assert result.iterations <= 3

    def test_inertia_improves_with_more_clusters(self):
        samples, _ = _blobs(4, 25, 8, 5.0, 8)
        few = dot_kmeans(samples, 2, rng=8)
        many = dot_kmeans(samples, 6, rng=8)
        assert many.inertia <= few.inertia

    def test_assignment_is_argmax_dot(self):
        samples, _ = _blobs(3, 20, 6, 5.0, 9)
        result = dot_kmeans(samples, 3, rng=9)
        sims = samples @ result.centroids.T
        assert np.array_equal(result.assignments, np.argmax(sims, axis=1))


# ------------------------------------------------- fast-path exactness
def _reference_seeding(samples, k, rng):
    """k-means++ seeding that rescores every chosen centroid at each step."""
    n = samples.shape[0]
    chosen = [int(rng.integers(0, n))]
    for _ in range(1, k):
        best = (samples @ samples[chosen].T).max(axis=1)
        weights = best.max() - best
        total = float(weights.sum())
        if total <= 0.0:
            chosen.append(int(rng.integers(0, n)))
        else:
            chosen.append(int(rng.choice(n, p=weights / total)))
    return samples[chosen].astype(np.float64).copy()


def _reference_kmeans(samples, k, max_iterations, rng):
    """Lloyd iterations with per-cluster masked means and a fresh inertia."""
    n = samples.shape[0]
    centroids = _reference_seeding(samples, k, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    converged = False
    for _ in range(max_iterations):
        sims = samples @ centroids.T
        new_assignments = np.argmax(sims, axis=1)
        counts = np.bincount(new_assignments, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            best = sims[np.arange(n), new_assignments]
            for cluster, sample in zip(empty, np.argsort(best)[: empty.size]):
                new_assignments[sample] = cluster
        if np.array_equal(new_assignments, assignments):
            converged = True
            break
        assignments = new_assignments
        for cluster in range(k):
            members = samples[assignments == cluster]
            if members.size:
                centroids[cluster] = members.mean(axis=0)
    sims = samples @ centroids.T
    inertia = -float(sims[np.arange(n), assignments].sum())
    return centroids, assignments, inertia, converged


def _binary_samples(seed, n, dimension):
    """{0, 1} samples around a few prototypes, like encoded hypervectors."""
    gen = np.random.default_rng(seed)
    prototypes = gen.integers(0, 2, size=(4, dimension))
    flips = gen.random((n, dimension)) < 0.2
    return (prototypes[gen.integers(0, 4, size=n)] ^ flips).astype(np.float64)


class TestExactOnBinarySamples:
    """Running-max seeding, indicator-GEMM sums and the reused inertia are
    bit-identical to the per-cluster formulation on {0, 1} samples."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [2, 5, 17])
    def test_seeding_matches_all_chosen_recompute(self, seed, k):
        from repro.hdc.clustering import _init_centroids_kmeanspp

        samples = _binary_samples(seed, 120, 37)
        fast = _init_centroids_kmeanspp(samples, k, np.random.default_rng(seed))
        reference = _reference_seeding(samples, k, np.random.default_rng(seed))
        np.testing.assert_array_equal(fast, reference)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_iterations", [1, 3, 50])
    def test_kmeans_matches_per_cluster_means(self, seed, max_iterations):
        samples = _binary_samples(100 + seed, 150, 64)
        result = dot_kmeans(samples, 7, max_iterations=max_iterations, rng=seed)
        centroids, assignments, inertia, converged = _reference_kmeans(
            samples, 7, max_iterations, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(result.centroids, centroids)
        np.testing.assert_array_equal(result.assignments, assignments)
        assert result.inertia == inertia
        assert result.converged == converged

    def test_real_valued_samples_agree_to_rounding(self):
        samples, _ = _blobs(3, 25, 9, 4.0, 11)
        result = dot_kmeans(samples, 3, rng=5)
        centroids, assignments, inertia, _ = _reference_kmeans(
            samples, 3, 50, np.random.default_rng(5)
        )
        np.testing.assert_allclose(result.centroids, centroids, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(result.assignments, assignments)
        assert result.inertia == pytest.approx(inertia, rel=1e-12)


# ------------------------------------- running sums and certified assignment
@st.composite
def _tie_heavy_runs(draw):
    """{0, 1} samples drawn from a small row pool (duplicates, exact ties),
    a cluster count up to n, an iteration budget, a seed and a dtype."""
    dimension = draw(st.integers(1, 8))
    pool = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=dimension, max_size=dimension),
            min_size=1,
            max_size=5,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=24))
    samples = np.array([pool[i] for i in picks])
    k = draw(st.integers(2, samples.shape[0]))
    max_iterations = draw(st.sampled_from([1, 2, 5, 50]))
    seed = draw(st.integers(0, 2**32 - 1))
    dtype = draw(st.sampled_from([np.int8, np.float64]))
    return samples.astype(dtype), k, max_iterations, seed


def _assert_matches_reference(samples, k, max_iterations, seed):
    result = dot_kmeans(samples, k, max_iterations=max_iterations, rng=seed)
    exact = samples.astype(np.float64)
    centroids, assignments, inertia, converged = _reference_kmeans(
        exact, k, max_iterations, np.random.default_rng(seed)
    )
    np.testing.assert_array_equal(result.centroids, centroids)
    np.testing.assert_array_equal(result.assignments, assignments)
    assert result.inertia == inertia
    assert result.converged == converged
    # The reference stops in the same iteration: it converges within
    # result.iterations, and not within one fewer.
    if converged:
        for budget, expected in ((result.iterations, True), (result.iterations - 1, False)):
            again = _reference_kmeans(exact, k, budget, np.random.default_rng(seed))
            assert again[3] is expected
    else:
        assert result.iterations == max_iterations
    return result


class TestRunningSumsAndCertifiedAssignment:
    """Running member sums and the certified exact-integer assignment give
    the per-cluster formulation's result bit for bit, ties included."""

    @settings(max_examples=300, deadline=None)
    @given(_tie_heavy_runs())
    def test_tie_heavy_binary_runs_match_reference(self, case):
        _assert_matches_reference(*case)

    def test_cluster_left_without_members_keeps_its_centroid(self, monkeypatch):
        # The re-seeding gives the empty cluster 1 the sole member of
        # cluster 2, so the update leaves cluster 2 with no members: its old
        # centroid scores the next iteration, where X . S^T would score 0.
        samples = np.array([[0, 1], [1, 0], [1, 0]], dtype=np.int8)
        emptied = []
        member_sums = clustering._member_sums

        def spy(sums, arr, old, new, num_clusters):
            emptied.append(bool((np.bincount(new, minlength=num_clusters) == 0).any()))
            return member_sums(sums, arr, old, new, num_clusters)

        monkeypatch.setattr(clustering, "_member_sums", spy)
        result = _assert_matches_reference(samples, 3, 50, 6)
        assert any(emptied)
        assert result.cluster_sizes().min() == 0

    def test_tie_free_run_scores_float64_once(self, monkeypatch):
        # Every iteration is decided by the exact products, so float64
        # scores the k centroids only for the final inertia (the seeding's
        # one-column scores are not counted).
        gen = np.random.default_rng(8)
        prototypes = gen.integers(0, 2, size=(4, 64))
        flips = gen.random((150, 64)) < 0.2
        samples = (prototypes[gen.integers(0, 4, size=150)] ^ flips).astype(np.int8)
        scored = []
        dot_similarity = clustering.dot_similarity

        def spy(queries, references, *args, **kwargs):
            scored.append(np.shape(references)[0])
            return dot_similarity(queries, references, *args, **kwargs)

        monkeypatch.setattr(clustering, "dot_similarity", spy)
        result = _assert_matches_reference(samples, 5, 50, 8)
        assert result.iterations >= 3
        assert scored.count(5) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 12), st.data())
    def test_certified_assignment_is_float64_argmax(self, dimension, k, n, data):
        # Any state of member sums: when the exact products decide, they
        # pick float64's argmax of the rounded centroids' scores.
        sizes = np.array(data.draw(st.lists(st.integers(1, 12), min_size=k, max_size=k)))
        sums = np.array(
            [
                data.draw(st.lists(st.integers(0, int(size)), min_size=dimension, max_size=dimension))
                for size in sizes
            ],
            dtype=np.float64,
        )
        samples = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=n * dimension, max_size=n * dimension)),
            dtype=np.int8,
        ).reshape(n, dimension)
        centroids = sums / sizes[:, None]
        # float32 below 2**24 entries, float64 (the samples' own copy) above.
        exact = samples.astype(data.draw(st.sampled_from([np.float32, np.float64])))
        ratio = clustering._certified_ratio(dimension)
        products = exact @ sums.astype(exact.dtype).T
        picked = kernels.certified_argmax(products, sizes, ratio)
        if picked is not None:
            scores = samples.astype(np.float64) @ centroids.T
            np.testing.assert_array_equal(picked, np.argmax(scores, axis=1))

    def test_exact_tie_that_float64_breaks_upward_is_left_to_float64(self):
        # 3/10 == 3 * (1/10) exactly, but float64 scores 0.3 against
        # 0.1 + 0.1 + 0.1 = 0.30000000000000004 and picks cluster 1.
        sums = np.array([[3.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        sizes = np.array([10, 10])
        samples = np.ones((1, 3), dtype=np.int8)
        centroids = sums / sizes[:, None]
        assert np.argmax(samples.astype(np.float64) @ centroids.T) == 1
        products = samples.astype(np.float32) @ sums.astype(np.float32).T
        ratio = clustering._certified_ratio(3)
        assert kernels.certified_argmax(products, sizes, ratio) is None

    def test_integer_samples_outside_binary_use_float64(self):
        samples = np.random.default_rng(4).integers(-3, 4, size=(60, 6))
        result = dot_kmeans(samples, 4, rng=4)
        centroids, assignments, inertia, _ = _reference_kmeans(
            samples.astype(np.float64), 4, 50, np.random.default_rng(4)
        )
        np.testing.assert_array_equal(result.centroids, centroids)
        np.testing.assert_array_equal(result.assignments, assignments)
        assert result.inertia == inertia


class TestCertifiedRatio:
    @pytest.mark.parametrize("dimension", [0, 1, 2, 7, 128, 8192, 10**6, 2**30])
    def test_ratio_meets_the_bound_exactly(self, dimension):
        # ratio * (1 + u)^2 * (1 + gamma_D) <= (1 - gamma_D) * (1 - u), in
        # exact rational arithmetic.
        u = Fraction(1, 2**53)
        gamma = dimension * u / (1 - dimension * u)
        ratio = Fraction(clustering._certified_ratio(dimension))
        assert 0 < ratio < 1
        assert ratio * (1 + u) ** 2 * (1 + gamma) <= (1 - gamma) * (1 - u)


def _certified_both(products, sizes, ratio):
    """certified_argmax on the numpy twin and, when available, natively."""
    answers = []
    try:
        for backend in ("numpy", "native"):
            if backend == "native" and kernels.native_build_info() is None:
                continue
            kernels.set_backend(backend)
            answers.append(kernels.certified_argmax(products, sizes, ratio))
    finally:
        kernels.set_backend(None)
    for answer in answers[1:]:
        if answers[0] is None:
            assert answer is None
        else:
            np.testing.assert_array_equal(answer, answers[0])
    return answers[0]


class TestCertifiedArgmax:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 6),
        st.data(),
        st.sampled_from([np.float32, np.float64]),
    )
    def test_native_matches_numpy_twin(self, n, k, data, dtype):
        products = np.array(
            data.draw(st.lists(st.integers(0, 40), min_size=n * k, max_size=n * k)),
            dtype=dtype,
        ).reshape(n, k)
        sizes = np.array(data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)))
        ratio = data.draw(st.sampled_from([clustering._certified_ratio(8), 0.5, 0.9, 1.0]))
        best = _certified_both(products, sizes, ratio)
        if best is None:
            return
        # A certified row's pick is the unique best exact ratio (or all 0).
        for row, pick in zip(products, best):
            ratios = [Fraction(int(p), int(s)) for p, s in zip(row, sizes)]
            if max(ratios) == 0:
                assert pick == 0
            else:
                assert all(r < ratios[pick] for j, r in enumerate(ratios) if j != pick)

    def test_margin_boundary(self):
        sizes = np.array([1.0, 1.0])
        # 2 * 1 < (4 * 1) * 0.5 is false: on the boundary is not certified.
        assert _certified_both(np.array([[4.0, 2.0]]), sizes, 0.5) is None
        np.testing.assert_array_equal(
            _certified_both(np.array([[4.0, 1.0]]), sizes, 0.5), [0]
        )
        # Inside and just outside float64's error bound at D = 128.
        ratio = clustering._certified_ratio(128)
        near = np.array([[2.0**46, 2.0**46 - 1]])
        assert _certified_both(near, sizes, ratio) is None
        far = np.array([[2.0**44 - 1, 2.0**44]])
        np.testing.assert_array_equal(_certified_both(far, sizes, ratio), [1])

    def test_exact_tie_and_zero_row(self):
        sizes = np.array([3.0, 2.0])
        # 3/3 == 2/2: an exact tie is left to float64.
        assert _certified_both(np.array([[3.0, 2.0]], np.float32), sizes, 0.9) is None
        # All scores 0: float64's scores are exactly 0 too, so column 0.
        np.testing.assert_array_equal(
            _certified_both(np.zeros((2, 2), np.float32), sizes, 0.9), [0, 0]
        )

    def test_single_cluster(self):
        products = np.array([[5.0], [0.0], [2.0]], np.float32)
        np.testing.assert_array_equal(
            _certified_both(products, np.array([4.0]), clustering._certified_ratio(8)), [0, 0, 0]
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            kernels.certified_argmax(np.zeros((2, 3)), np.ones(2), 0.5)
        with pytest.raises(ValueError):
            kernels.certified_argmax(np.zeros((2, 0)), np.ones(0), 0.5)
        assert kernels.certified_argmax(np.zeros((0, 3)), np.ones(3), 0.5).shape == (0,)


# ------------------------------------------- scores from packed words
def _int8_binary_samples(seed, n, dimension):
    return _binary_samples(seed, n, dimension).astype(np.int8)


class TestPackedWordScores:
    """{0, 1} integer samples: seeding and the first iteration score
    popcounts of the packed words, P = X . S^T is kept across updates, and
    float64 is made only when read."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [2, 5, 17])
    def test_packed_seeding_matches_all_chosen_recompute(self, seed, k, monkeypatch):
        samples = _int8_binary_samples(seed, 120, 70)
        words = pack_binary(samples).words
        scored = []
        monkeypatch.setattr(clustering, "dot_similarity", lambda *a: scored.append(a))
        fast = clustering._init_centroids_kmeanspp(
            samples, k, np.random.default_rng(seed), words
        )
        reference = _reference_seeding(
            samples.astype(np.float64), k, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(fast, reference)
        assert not scored

    @staticmethod
    def _check_kept_scores(patch, samples, update_moved_rows):
        """Spy on the run: every certified assignment must read exactly
        X . S^T of the current member sums.  Returns the list of checks."""
        latest, checked = [], []
        member_sums = clustering._member_sums
        certified_argmax = kernels.certified_argmax

        def sums_spy(*args):
            latest[:] = [member_sums(*args)]
            return latest[0]

        def argmax_spy(products, sizes, ratio):
            fresh = samples.astype(np.float64) @ latest[0].astype(np.float64).T
            np.testing.assert_array_equal(products, fresh)
            checked.append(True)
            return certified_argmax(products, sizes, ratio)

        patch.setattr(clustering, "_member_sums", sums_spy)
        patch.setattr(kernels, "certified_argmax", argmax_spy)
        patch.setattr(clustering, "_moved_rows_cheaper", lambda *a: update_moved_rows)
        return checked

    @settings(max_examples=150, deadline=None)
    @given(_tie_heavy_runs(), st.booleans())
    def test_kept_scores_equal_a_fresh_product(self, case, update_moved_rows):
        # Whichever way P is kept (the moved rows' popcounts or the GEMM),
        # it is X . S^T, and the result stays the reference's.
        samples, k, max_iterations, seed = case
        samples = samples.astype(np.int8)
        with pytest.MonkeyPatch.context() as patch:
            self._check_kept_scores(patch, samples, update_moved_rows)
            _assert_matches_reference(samples, k, max_iterations, seed)

    @pytest.mark.parametrize("update_moved_rows", [False, True])
    def test_kept_scores_on_a_long_run(self, update_moved_rows, monkeypatch):
        samples = _int8_binary_samples(3, 400, 130)
        checked = self._check_kept_scores(monkeypatch, samples, update_moved_rows)
        result = _assert_matches_reference(samples, 9, 50, 3)
        assert result.iterations >= 4 and len(checked) >= 3

    def test_no_float64_until_inertia_is_read(self, monkeypatch):
        gen = np.random.default_rng(8)
        prototypes = gen.integers(0, 2, size=(4, 64))
        flips = gen.random((150, 64)) < 0.2
        samples = (prototypes[gen.integers(0, 4, size=150)] ^ flips).astype(np.int8)
        scored = []
        dot_similarity = clustering.dot_similarity

        def spy(queries, references, *args, **kwargs):
            scored.append(np.shape(references)[0])
            return dot_similarity(queries, references, *args, **kwargs)

        monkeypatch.setattr(clustering, "dot_similarity", spy)
        result = dot_kmeans(samples, 5, rng=8)
        assert result.iterations >= 3
        assert scored == []
        inertia = result.inertia
        assert scored == [5]
        assert result.inertia == inertia and len(scored) == 1
        _, _, reference, _ = _reference_kmeans(
            samples.astype(np.float64), 5, 50, np.random.default_rng(8)
        )
        assert inertia == reference

    def test_given_words_are_checked_and_equal_packing_here(self):
        samples = _int8_binary_samples(5, 90, 100)
        words = pack_binary(samples).words
        given = dot_kmeans(samples, 6, rng=1, words=words)
        packed_here = dot_kmeans(samples, 6, rng=1)
        np.testing.assert_array_equal(given.centroids, packed_here.centroids)
        np.testing.assert_array_equal(given.assignments, packed_here.assignments)
        with pytest.raises(ValueError, match="do not pack"):
            dot_kmeans(samples, 6, rng=1, words=words[:, :1])

    def test_classwise_keeps_integer_samples_exact(self, monkeypatch):
        # One int8 class block per class, as the init rounds pass them,
        # against its float64 copy.
        samples = _int8_binary_samples(6, 120, 64)
        blocks = []
        lloyd = clustering._lloyd

        def spy(block, words, *args):
            blocks.append((block.dtype, words is not None))
            return lloyd(block, words, *args)

        monkeypatch.setattr(clustering, "_lloyd", spy)
        for block in np.split(samples, 3):
            blocks.clear()
            exact = dot_kmeans(block, 4, rng=2)
            assert blocks == [(np.int8, True)]
            floats = dot_kmeans(block.astype(np.float64), 4, rng=2)
            for field in ("centroids", "assignments"):
                np.testing.assert_array_equal(
                    getattr(exact, field), getattr(floats, field)
                )


def test_initialization_matches_reference_kmeans(monkeypatch):
    # A block with fewer samples than dimensions (the serving workload's
    # shape), clustered over several allocation rounds: the init memory is
    # the reference k-means's, bit for bit.
    from repro.core import initialization

    gen = np.random.default_rng(21)
    num_classes, per_class, dimension = 4, 45, 300
    prototypes = gen.integers(0, 2, size=(num_classes * 3, dimension))
    labels = np.repeat(np.arange(num_classes), per_class)
    picks = labels * 3 + gen.integers(0, 3, size=labels.size)
    flips = gen.random((labels.size, dimension)) < 0.25
    encoded = (prototypes[picks] ^ flips).astype(np.int8)
    kwargs = dict(columns=30, num_classes=num_classes, cluster_ratio=0.5, rng=4)

    fast = initialization.clustering_initialization(encoded, labels, **kwargs)

    def reference(samples, k, max_iterations, rng, words):
        centroids, assignments, inertia, converged = _reference_kmeans(
            samples.astype(np.float64), k, max_iterations, rng
        )
        return clustering.KMeansResult(centroids, assignments, inertia, 0, converged)

    monkeypatch.setattr(initialization, "dot_kmeans", reference)
    slow = initialization.clustering_initialization(encoded, labels, **kwargs)
    assert fast.allocation_rounds and fast.allocation_rounds == slow.allocation_rounds
    assert fast.clusters_per_class == slow.clusters_per_class
    np.testing.assert_array_equal(fast.fp_memory, slow.fp_memory)
