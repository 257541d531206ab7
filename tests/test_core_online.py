"""Unit tests for repro.core.online (OnlineMEMHD)."""

import numpy as np
import pytest

from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel
from repro.core.online import OnlineMEMHD
from repro.data.synthetic import SyntheticSpec, make_synthetic_dataset
from repro.hdc import _packed_kernels as kernels
from repro.hdc.packed import PackedAM


@pytest.fixture()
def fitted_model(tiny_dataset):
    model = MEMHDModel(
        tiny_dataset.num_features,
        tiny_dataset.num_classes,
        MEMHDConfig(dimension=64, columns=24, epochs=5, seed=0),
        rng=0,
    )
    model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
    return model


@pytest.fixture()
def five_class_dataset():
    """A dataset with one extra class, sharing the tiny dataset's geometry."""
    spec = SyntheticSpec(
        num_classes=5,
        num_features=24,
        train_per_class=60,
        test_per_class=20,
        modes_per_class=3,
        latent_dim=8,
        class_separation=3.0,
        noise_scale=0.3,
    )
    return make_synthetic_dataset("tiny5", spec, rng=7)


class TestConstruction:
    def test_requires_fitted_model(self, tiny_dataset):
        model = MEMHDModel(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            MEMHDConfig(dimension=32, columns=8),
        )
        with pytest.raises(RuntimeError):
            OnlineMEMHD(model)

    def test_default_learning_rate_from_config(self, fitted_model):
        online = OnlineMEMHD(fitted_model)
        assert online.learning_rate == fitted_model.config.learning_rate

    def test_invalid_learning_rate(self, fitted_model):
        with pytest.raises(ValueError):
            OnlineMEMHD(fitted_model, learning_rate=0.0)


class TestPartialFit:
    def test_returns_batch_statistics(self, fitted_model, tiny_dataset):
        online = OnlineMEMHD(fitted_model)
        stats = online.partial_fit(
            tiny_dataset.train_features[:50], tiny_dataset.train_labels[:50]
        )
        assert set(stats) == {"batch_accuracy_before", "batch_accuracy_after", "updates"}
        assert 0 <= stats["updates"] <= 50

    def test_unknown_label_rejected(self, fitted_model, tiny_dataset):
        online = OnlineMEMHD(fitted_model)
        labels = tiny_dataset.train_labels[:10].copy()
        labels[0] = 99
        with pytest.raises(ValueError):
            online.partial_fit(tiny_dataset.train_features[:10], labels)

    def test_length_mismatch_rejected(self, fitted_model, tiny_dataset):
        online = OnlineMEMHD(fitted_model)
        with pytest.raises(ValueError):
            online.partial_fit(
                tiny_dataset.train_features[:10], tiny_dataset.train_labels[:9]
            )

    def test_streaming_does_not_destroy_accuracy(self, fitted_model, tiny_dataset):
        online = OnlineMEMHD(fitted_model, learning_rate=0.02)
        before = online.evaluate(tiny_dataset.test_features, tiny_dataset.test_labels)
        for start in range(0, tiny_dataset.num_train, 40):
            online.partial_fit(
                tiny_dataset.train_features[start : start + 40],
                tiny_dataset.train_labels[start : start + 40],
            )
        after = online.evaluate(tiny_dataset.test_features, tiny_dataset.test_labels)
        assert after >= before - 0.10

    def test_repeated_batches_reduce_batch_errors(self, fitted_model, tiny_dataset):
        online = OnlineMEMHD(fitted_model, learning_rate=0.05)
        batch_x = tiny_dataset.train_features[:80]
        batch_y = tiny_dataset.train_labels[:80]
        first = online.partial_fit(batch_x, batch_y)
        for _ in range(5):
            last = online.partial_fit(batch_x, batch_y)
        # Errors on the repeated batch should not grow (small jitter from the
        # global re-binarization threshold is tolerated).
        assert last["updates"] <= first["updates"] + 3

    def test_single_sample_batch(self, fitted_model, tiny_dataset):
        online = OnlineMEMHD(fitted_model)
        stats = online.partial_fit(
            tiny_dataset.train_features[0], tiny_dataset.train_labels[:1]
        )
        assert stats["updates"] in (0, 1)


class TestAddClass:
    def test_add_class_without_growth_keeps_shape(
        self, fitted_model, five_class_dataset
    ):
        online = OnlineMEMHD(fitted_model, rng=np.random.default_rng(0))
        columns_before = fitted_model.associative_memory.num_columns
        new_samples = five_class_dataset.train_features[
            five_class_dataset.train_labels == 4
        ]
        label = online.add_class(new_samples, columns=3)
        am = fitted_model.associative_memory
        assert label == 4
        assert am.num_columns == columns_before
        assert am.num_classes == 5
        assert len(am.columns_of_class(4)) == 3
        # No existing class lost its last column.
        assert all(count >= 1 for count in am.columns_per_class().values())

    def test_add_class_with_growth_appends_columns(
        self, fitted_model, five_class_dataset
    ):
        online = OnlineMEMHD(fitted_model, rng=np.random.default_rng(1))
        columns_before = fitted_model.associative_memory.num_columns
        new_samples = five_class_dataset.train_features[
            five_class_dataset.train_labels == 4
        ]
        online.add_class(new_samples, columns=2, grow=True)
        am = fitted_model.associative_memory
        assert am.num_columns == columns_before + 2
        assert len(am.columns_of_class(4)) == 2

    def test_added_class_is_recognized(self, fitted_model, five_class_dataset):
        online = OnlineMEMHD(fitted_model, rng=np.random.default_rng(2))
        train_mask = five_class_dataset.train_labels == 4
        test_mask = five_class_dataset.test_labels == 4
        online.add_class(five_class_dataset.train_features[train_mask], columns=4)
        # A few partial_fit passes let the new centroids settle.
        for _ in range(3):
            online.partial_fit(
                five_class_dataset.train_features, five_class_dataset.train_labels
            )
        predictions = fitted_model.associative_memory.predict(
            fitted_model.encode_binary(
                five_class_dataset.test_features[test_mask]
            ).astype(np.float64)
        )
        recall = float(np.mean(predictions == 4))
        assert recall > 0.5

    def test_existing_label_rejected(self, fitted_model, tiny_dataset):
        online = OnlineMEMHD(fitted_model)
        with pytest.raises(ValueError):
            online.add_class(tiny_dataset.train_features[:5], new_label=0)

    def test_invalid_columns_rejected(self, fitted_model, five_class_dataset):
        online = OnlineMEMHD(fitted_model)
        samples = five_class_dataset.train_features[:5]
        with pytest.raises(ValueError):
            online.add_class(samples, columns=0)

    def test_empty_samples_rejected(self, fitted_model):
        online = OnlineMEMHD(fitted_model)
        with pytest.raises(ValueError):
            online.add_class(np.empty((0, 24)))


class TestCacheInvalidation:
    """The packed/pruned mirrors can never answer from stale memory.

    ``binary_memory`` is a property whose setter drops the cached
    ``PackedAM`` / ``PrunedAM``; these tests pin every path that
    assigns it -- ``refresh_binary`` after online updates, and the raw
    snapshot-restore assignment the trainer's keep-best rollback and the
    serving runtime's promotion/rollback use.  Without the setter (the
    pre-fix code invalidated only inside ``refresh_binary``) the
    restore test fails: the warm packed cache keeps serving the
    *pre-restore* memory.
    """

    def test_partial_fit_refreshes_packed_and_pruned(
        self, fitted_model, tiny_dataset
    ):
        am = fitted_model.associative_memory
        queries = tiny_dataset.test_features
        # Warm both derived caches on the initial memory; they are reused
        # while the memory holds still.
        fitted_model.predict(queries, engine="packed")
        fitted_model.predict(queries, engine="pruned")
        warm_packed, warm_pruned = am.packed(), am.pruned()
        assert am.packed() is warm_packed and am.pruned() is warm_pruned
        online = OnlineMEMHD(fitted_model, learning_rate=0.5)
        rng = np.random.default_rng(3)
        online.partial_fit(
            tiny_dataset.train_features[:80],
            rng.permutation(tiny_dataset.train_labels[:80]),
        )
        assert am.packed() is not warm_packed and am.pruned() is not warm_pruned
        base = fitted_model.predict(queries, engine="float")
        np.testing.assert_array_equal(
            fitted_model.predict(queries, engine="packed"), base
        )
        np.testing.assert_array_equal(
            fitted_model.predict(queries, engine="pruned"), base
        )

    def test_add_class_refreshes_packed_and_pruned(
        self, fitted_model, five_class_dataset
    ):
        queries = five_class_dataset.test_features
        fitted_model.predict(queries, engine="packed")
        fitted_model.predict(queries, engine="pruned")
        online = OnlineMEMHD(fitted_model, rng=np.random.default_rng(0))
        online.add_class(
            five_class_dataset.train_features[five_class_dataset.train_labels == 4],
            columns=3,
        )
        base = fitted_model.predict(queries, engine="float")
        np.testing.assert_array_equal(
            fitted_model.predict(queries, engine="packed"), base
        )
        np.testing.assert_array_equal(
            fitted_model.predict(queries, engine="pruned"), base
        )

    def test_binary_restore_drops_warm_caches(self, fitted_model, tiny_dataset):
        """Regression: a raw ``binary_memory`` assignment (the keep-best /
        rollback pattern) must invalidate warm packed/pruned caches."""
        am = fitted_model.associative_memory
        queries = tiny_dataset.test_features
        snapshot = am.binary_memory.copy()
        baseline = fitted_model.predict(queries, engine="packed")
        # Drive the memory far from the snapshot (permuted labels), then
        # warm both caches on the *updated* memory.
        online = OnlineMEMHD(fitted_model, learning_rate=0.5)
        rng = np.random.default_rng(0)
        for _ in range(3):
            online.partial_fit(
                tiny_dataset.train_features[:120],
                rng.permutation(tiny_dataset.train_labels[:120]),
            )
        stale = fitted_model.predict(queries, engine="packed")
        fitted_model.predict(queries, engine="pruned")
        warm_packed, warm_pruned = am.packed(), am.pruned()
        assert not np.array_equal(stale, baseline), (
            "updates did not change predictions; the restore scenario "
            "would not exercise the cache"
        )
        # The rollback every restore path performs: assign the snapshot.
        am.binary_memory = snapshot
        assert am.engine.stats() is None
        assert am.packed() is not warm_packed and am.pruned() is not warm_pruned
        np.testing.assert_array_equal(
            fitted_model.predict(queries, engine="packed"), baseline
        )
        np.testing.assert_array_equal(
            fitted_model.predict(queries, engine="pruned"), baseline
        )


class TestVictimSelection:
    """Edge cases of ``_select_victim_columns`` (column repurposing)."""

    def _single_centroid_model(self, tiny_dataset):
        model = MEMHDModel(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            MEMHDConfig(dimension=64, columns=tiny_dataset.num_classes, epochs=2,
                        seed=0),
            rng=0,
        )
        model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        return model

    def test_single_centroid_classes_refuse_repurposing(
        self, tiny_dataset, five_class_dataset
    ):
        model = self._single_centroid_model(tiny_dataset)
        am = model.associative_memory
        assert all(count == 1 for count in am.columns_per_class().values())
        online = OnlineMEMHD(model, rng=np.random.default_rng(0))
        new_samples = five_class_dataset.train_features[
            five_class_dataset.train_labels == 4
        ]
        with pytest.raises(ValueError, match="grow=True"):
            online.add_class(new_samples, columns=1)
        # The failed call must not have corrupted the AM.
        assert am.num_classes == tiny_dataset.num_classes
        assert all(count == 1 for count in am.columns_per_class().values())

    def test_single_centroid_classes_can_still_grow(
        self, tiny_dataset, five_class_dataset
    ):
        model = self._single_centroid_model(tiny_dataset)
        online = OnlineMEMHD(model, rng=np.random.default_rng(0))
        new_samples = five_class_dataset.train_features[
            five_class_dataset.train_labels == 4
        ]
        label = online.add_class(new_samples, columns=1, grow=True)
        am = model.associative_memory
        assert label == 4
        assert am.num_columns == tiny_dataset.num_classes + 1
        assert len(am.columns_of_class(4)) == 1

    def test_repeated_add_class_to_capacity(self, fitted_model, five_class_dataset):
        """Adding classes one by one drains the richest classes first and
        stops (with a clear error) exactly when every class is down to one
        centroid."""
        online = OnlineMEMHD(fitted_model, rng=np.random.default_rng(4))
        am = fitted_model.associative_memory
        columns_total = am.num_columns
        samples = five_class_dataset.train_features[
            five_class_dataset.train_labels == 4
        ]
        # 24 columns over 4 classes: 20 more single-column classes fit
        # before every class owns exactly one centroid.
        capacity = columns_total - fitted_model.num_classes
        for extra in range(capacity):
            label = online.add_class(samples[: 5 + extra % 3], columns=1)
            assert label == 4 + extra
            assert am.num_columns == columns_total  # shape never changes
            assert min(am.columns_per_class().values()) >= 1
        assert all(count == 1 for count in am.columns_per_class().values())
        with pytest.raises(ValueError, match="grow=True"):
            online.add_class(samples[:5], columns=1)


class TestNoScoreMatrix:
    def test_fit_and_partial_fit_never_build_the_score_matrix(
        self, tiny_dataset, monkeypatch
    ):
        """On the native backend, the init allocation rounds, the trainer
        and partial_fit search without the (n, C) pair-count matrix against
        an AM's packed memory.  Pair counts against other words (k-means
        scoring samples against samples) are allowed."""
        if kernels.backend_name() != "native":
            pytest.skip("the numpy backend's search reduces pair counts")

        memories = []
        packed_am_init = PackedAM.__init__

        def recording_init(self, memory, *args, **kwargs):
            memories.append(memory.words)
            packed_am_init(self, memory, *args, **kwargs)

        pair_popcount = kernels._pair_popcount
        other_pairs = []

        def no_score_matrix(queries, references, op):
            if any(np.shares_memory(references, words) for words in memories):
                raise AssertionError("an (n, C) score matrix was built")
            other_pairs.append(references.shape[0])
            return pair_popcount(queries, references, op)

        monkeypatch.setattr(PackedAM, "__init__", recording_init)
        monkeypatch.setattr(kernels, "_pair_popcount", no_score_matrix)
        model = MEMHDModel(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            MEMHDConfig(dimension=64, columns=24, epochs=5, seed=0),
            rng=0,
        )
        model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        assert model.initialization.allocation_rounds
        stats = OnlineMEMHD(model).partial_fit(
            tiny_dataset.test_features, tiny_dataset.test_labels
        )
        assert stats["updates"] >= 0
        assert memories and other_pairs
