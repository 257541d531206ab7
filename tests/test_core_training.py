"""Unit tests for repro.core.training (quantization-aware iterative learning)."""

import numpy as np
import pytest

from repro.baselines.base import TrainingHistory
from repro.core.associative_memory import MultiCentroidAM
from repro.core.initialization import clustering_initialization
from repro.core.training import QuantizationAwareTrainer
from repro.eval.metrics import accuracy
from repro.hdc.packed import PackedAM


@pytest.fixture()
def am_and_data(encoded_training_data):
    encoded, labels = encoded_training_data
    init = clustering_initialization(
        encoded, labels, columns=16, num_classes=4, cluster_ratio=0.75, rng=1
    )
    am = MultiCentroidAM(init.fp_memory, init.column_classes, num_classes=4)
    return am, encoded, labels


class TestTrainerValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"epochs": -1},
            {"binary_update_interval": 0},
            {"early_stop_patience": 0},
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            QuantizationAwareTrainer(**kwargs)

    def test_dimension_mismatch_raises(self, am_and_data):
        am, encoded, labels = am_and_data
        trainer = QuantizationAwareTrainer(epochs=1)
        with pytest.raises(ValueError):
            trainer.train(am, encoded[:, :-1], labels)

    def test_length_mismatch_raises(self, am_and_data):
        am, encoded, labels = am_and_data
        trainer = QuantizationAwareTrainer(epochs=1)
        with pytest.raises(ValueError):
            trainer.train(am, encoded, labels[:-1])

    def test_1d_encoded_raises(self, am_and_data):
        am, encoded, labels = am_and_data
        trainer = QuantizationAwareTrainer(epochs=1)
        with pytest.raises(ValueError):
            trainer.train(am, encoded[0], labels[:1])

    @pytest.mark.parametrize("transform", [lambda e: 2 * e - 1, lambda e: 0.5 * e])
    def test_non_binary_encodings_raise(self, am_and_data, transform):
        am, encoded, labels = am_and_data
        trainer = QuantizationAwareTrainer(epochs=1)
        with pytest.raises(ValueError, match=r"binary \{0, 1\}"):
            trainer.train(am, transform(encoded), labels)
        with pytest.raises(ValueError, match=r"validation encoded must hold binary"):
            trainer.train(
                am, encoded, labels, validation=(transform(encoded[:5]), labels[:5])
            )


class TestTrainingDynamics:
    def test_history_lengths(self, am_and_data):
        am, encoded, labels = am_and_data
        trainer = QuantizationAwareTrainer(epochs=5, learning_rate=0.05)
        history = trainer.train(am, encoded, labels, rng=np.random.default_rng(0))
        assert history.epochs <= 5
        assert len(history.updates) == history.epochs
        assert history.initial_accuracy is not None

    def test_training_improves_accuracy(self, am_and_data):
        am, encoded, labels = am_and_data
        trainer = QuantizationAwareTrainer(epochs=10, learning_rate=0.05)
        history = trainer.train(am, encoded, labels, rng=np.random.default_rng(1))
        assert history.best_train_accuracy >= history.initial_accuracy

    def test_updates_equal_mispredictions(self, am_and_data):
        am, encoded, labels = am_and_data
        trainer = QuantizationAwareTrainer(epochs=3, learning_rate=0.05)
        history = trainer.train(am, encoded, labels, rng=np.random.default_rng(2))
        assert all(0 <= count <= labels.size for count in history.updates)

    def test_validation_tracked(self, am_and_data):
        am, encoded, labels = am_and_data
        trainer = QuantizationAwareTrainer(epochs=3)
        history = trainer.train(
            am,
            encoded,
            labels,
            validation=(encoded[:40], labels[:40]),
            rng=np.random.default_rng(3),
        )
        assert len(history.validation_accuracy) == history.epochs

    def test_zero_epochs_keeps_initial_state(self, am_and_data):
        am, encoded, labels = am_and_data
        binary_before = am.binary_memory.copy()
        trainer = QuantizationAwareTrainer(epochs=0)
        history = trainer.train(am, encoded, labels)
        assert history.train_accuracy == [history.initial_accuracy]
        assert np.array_equal(am.binary_memory, binary_before)

    def test_stops_when_no_mispredictions(self, encoded_training_data):
        encoded, labels = encoded_training_data
        # A memory that already classifies everything perfectly: one column
        # per class equal to that class's mean pattern scaled up.
        init = clustering_initialization(
            encoded, labels, columns=8, num_classes=4, cluster_ratio=1.0, rng=0
        )
        am = MultiCentroidAM(init.fp_memory, init.column_classes, num_classes=4)
        trainer = QuantizationAwareTrainer(epochs=50, learning_rate=0.01)
        history = trainer.train(am, encoded, labels, rng=np.random.default_rng(4))
        if history.updates and history.updates[-1] == 0:
            assert history.epochs < 50

    def test_early_stopping(self, am_and_data):
        am, encoded, labels = am_and_data
        trainer = QuantizationAwareTrainer(
            epochs=40, learning_rate=0.05, early_stop_patience=2
        )
        history = trainer.train(am, encoded, labels, rng=np.random.default_rng(5))
        assert history.epochs <= 40

    def test_binary_update_interval(self, am_and_data):
        am, encoded, labels = am_and_data
        trainer = QuantizationAwareTrainer(
            epochs=4, learning_rate=0.05, binary_update_interval=2
        )
        history = trainer.train(am, encoded, labels, rng=np.random.default_rng(6))
        assert history.epochs <= 4

    def test_final_binary_memory_is_consistent_with_fp_without_keep_best(
        self, am_and_data
    ):
        am, encoded, labels = am_and_data
        trainer = QuantizationAwareTrainer(epochs=3, learning_rate=0.05, keep_best=False)
        trainer.train(am, encoded, labels, rng=np.random.default_rng(7))
        expected = am.copy()
        expected.refresh_binary()
        assert np.array_equal(am.binary_memory, expected.binary_memory)

    def test_keep_best_never_ends_below_initial_accuracy(self, am_and_data):
        am, encoded, labels = am_and_data
        trainer = QuantizationAwareTrainer(
            epochs=10, learning_rate=0.5, keep_best=True
        )
        history = trainer.train(am, encoded, labels, rng=np.random.default_rng(8))
        final = accuracy(am.predict(encoded), labels)
        # Even with an aggressive learning rate the deployed binary memory is
        # the best snapshot seen, so it cannot fall below the initial state.
        assert final >= history.initial_accuracy - 1e-12
        assert final == pytest.approx(max([history.initial_accuracy] + history.train_accuracy))

    def test_deterministic_given_rng(self, encoded_training_data):
        encoded, labels = encoded_training_data

        def run():
            init = clustering_initialization(
                encoded, labels, columns=16, num_classes=4, rng=9
            )
            am = MultiCentroidAM(init.fp_memory, init.column_classes, num_classes=4)
            trainer = QuantizationAwareTrainer(epochs=4, learning_rate=0.05)
            trainer.train(am, encoded, labels, rng=np.random.default_rng(11))
            return am.binary_memory.copy()

        assert np.array_equal(run(), run())


class TestUpdateTargetSelection:
    def test_eq4_eq5_targets(self):
        """Hand-crafted case checking the Eq. (4)/(5) target selection.

        The FP memory below binarizes (row-mean threshold, no normalization)
        to the binary rows

            col 0 (class 0): [1, 1, 0, 0]
            col 1 (class 0): [1, 0, 0, 0]
            col 2 (class 1): [0, 0, 1, 1]
            col 3 (class 1): [0, 1, 1, 1]

        so the query ``[0, 1, 1, 1]`` with true label 0 scores (1, 0, 2, 3):
        the associative search wrongly picks column 3 (class 1), the Eq. (4)
        target, while the most similar column *within* class 0 is column 0,
        the Eq. (5) target.
        """
        fp = np.array(
            [
                [5.0, 5.0, 0.0, 0.0],   # class 0, column 0
                [5.0, 0.0, 0.0, 0.0],   # class 0, column 1
                [0.0, 0.0, 5.0, 5.0],   # class 1, column 2
                [0.0, 5.0, 5.0, 5.0],   # class 1, column 3
            ]
        )
        column_classes = np.array([0, 0, 1, 1])
        am = MultiCentroidAM(
            fp.copy(), column_classes, num_classes=2, normalization="none",
            threshold_mode="row-mean",
        )
        assert np.array_equal(
            am.binary_memory,
            np.array([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 1, 1, 1]]),
        )
        query = np.array([[0.0, 1.0, 1.0, 1.0]])
        label = np.array([0])

        trainer = QuantizationAwareTrainer(epochs=1, learning_rate=1.0, shuffle=False)
        fp_before = am.fp_memory.copy()
        trainer.train(am, query, label, rng=np.random.default_rng(0))

        assert np.allclose(am.fp_memory[0], fp_before[0] + query[0])   # Eq. (5)
        assert np.allclose(am.fp_memory[3], fp_before[3] - query[0])   # Eq. (4)
        assert np.allclose(am.fp_memory[1], fp_before[1])
        assert np.allclose(am.fp_memory[2], fp_before[2])


# ----------------------------------------------------- fast-path exactness
def _reference_train(trainer, am, encoded, labels, validation, rng):
    """The per-epoch trainer as first written: two float scoring passes per
    epoch (targets, then accuracy) and ``np.add.at`` updates."""
    queries = np.asarray(encoded, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    history = TrainingHistory()
    history.initial_accuracy = accuracy(am.predict(queries), y)
    class_mask = am.column_classes[None, :] == y[:, None]
    best_accuracy = history.initial_accuracy
    best_binary = am.binary_memory.copy() if trainer.keep_best else None
    stale_epochs = 0
    for epoch in range(1, trainer.epochs + 1):
        order = rng.permutation(queries.shape[0])
        scores = np.atleast_2d(am.scores(queries))
        predicted = np.argmax(scores, axis=1)
        targets = np.argmax(np.where(class_mask, scores, -np.inf), axis=1)
        wrong = np.flatnonzero(am.column_classes[predicted] != y)
        if wrong.size:
            wrong = order[np.isin(order, wrong)]
            rate = trainer.learning_rate
            np.add.at(am.fp_memory, targets[wrong], rate * queries[wrong])
            np.add.at(am.fp_memory, predicted[wrong], -rate * queries[wrong])
        if epoch % trainer.binary_update_interval == 0:
            am.refresh_binary()
        train_acc = accuracy(am.predict(queries), y)
        history.updates.append(int(wrong.size))
        history.train_accuracy.append(train_acc)
        if validation is not None:
            history.validation_accuracy.append(
                accuracy(am.predict(validation[0]), validation[1])
            )
        if train_acc > best_accuracy + 1e-12:
            best_accuracy = train_acc
            if trainer.keep_best:
                best_binary = am.binary_memory.copy()
            stale_epochs = 0
        else:
            stale_epochs += 1
        if (
            trainer.early_stop_patience is not None
            and stale_epochs >= trainer.early_stop_patience
        ):
            break
        if wrong.size == 0:
            break
    if trainer.keep_best:
        am.binary_memory = best_binary
    else:
        am.refresh_binary()
    return history


class TestFastPathIsBitIdentical:
    """Packed scoring once per binary memory plus grouped updates must
    reproduce the reference trainer exactly: memories, history, all bits."""

    @pytest.mark.parametrize("interval", [1, 2])
    @pytest.mark.parametrize("keep_best", [True, False])
    @pytest.mark.parametrize("with_validation", [True, False])
    def test_matches_reference_trainer(
        self, encoded_training_data, interval, keep_best, with_validation
    ):
        encoded, labels = encoded_training_data
        init = clustering_initialization(
            encoded, labels, columns=12, num_classes=4, cluster_ratio=0.5, rng=13
        )
        fast = MultiCentroidAM(
            init.fp_memory.copy(), init.column_classes, num_classes=4
        )
        slow = fast.copy()
        validation = (encoded[::3], labels[::3]) if with_validation else None
        trainer = QuantizationAwareTrainer(
            learning_rate=0.3,
            epochs=7,
            binary_update_interval=interval,
            keep_best=keep_best,
        )
        got = trainer.train(
            fast, encoded, labels, validation=validation, rng=np.random.default_rng(17)
        )
        want = _reference_train(
            trainer, slow, encoded, labels, validation, np.random.default_rng(17)
        )
        assert sum(want.updates) > 0
        np.testing.assert_array_equal(fast.fp_memory, slow.fp_memory)
        np.testing.assert_array_equal(fast.binary_memory, slow.binary_memory)
        assert got.updates == want.updates
        assert got.train_accuracy == want.train_accuracy
        assert got.validation_accuracy == want.validation_accuracy
        assert got.initial_accuracy == want.initial_accuracy

    @pytest.mark.parametrize("interval", [1, 3])
    def test_one_scoring_pass_per_binary_memory(
        self, am_and_data, interval, monkeypatch
    ):
        am, encoded, labels = am_and_data
        calls = {"search": 0, "refresh": 0}
        search, refresh = PackedAM.search, am.refresh_binary

        def counting_search(*args, **kwargs):
            calls["search"] += 1
            return search(*args, **kwargs)

        def counting_refresh():
            calls["refresh"] += 1
            refresh()

        def no_score_matrix(*args, **kwargs):
            raise AssertionError("training built an (n, C) score matrix")

        monkeypatch.setattr(PackedAM, "search", counting_search)
        monkeypatch.setattr(PackedAM, "scores", no_score_matrix)
        am.refresh_binary, am.scores = counting_refresh, no_score_matrix
        trainer = QuantizationAwareTrainer(
            learning_rate=0.5, epochs=30, binary_update_interval=interval
        )
        history = trainer.train(am, encoded, labels, rng=np.random.default_rng(0))
        assert history.epochs == 30
        assert calls["refresh"] == 30 // interval
        # Initial pass plus one per refreshed memory (the parent trainer
        # scored twice per epoch: 61 passes for 30 epochs).
        assert calls["search"] == 1 + calls["refresh"]
