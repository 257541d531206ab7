"""Integration tests of the continual-learning serving loop (PR 8).

Covers the whole lifecycle of :mod:`repro.runtime.online`:

* unit behaviour of the bounded :class:`FeedbackBuffer` and the
  promotion gate (a failed shadow eval must never reach traffic);
* the ``POST /feedback`` HTTP contract (ack payload, 400/404/429/503);
* the drift-recovery scenario: a two-class label swap streamed through
  ``/feedback`` while ``repro loadtest`` traffic runs -- served accuracy
  recovers to within 2% of a from-scratch retrain, with zero 5xx and
  zero torn-version responses during promotions, and the promotion
  lineage supports bit-exact rollback via ``name:tag``;
* prefork chaos: a worker SIGKILLed mid-feedback-stream loses no
  200-acknowledged feedback, and its respawned replacement converges to
  the promoted version.
"""

import os
import signal
import threading
import time
import urllib.error
import urllib.request
import json

import numpy as np
import pytest

from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel
from repro.data.synthetic import SyntheticSpec, make_synthetic_dataset
from repro.eval.metrics import accuracy
from repro.io.registry import ArtifactRegistry
from repro.runtime.loadtest import run_load, stream_feedback
from repro.runtime.online import (
    DRIFT_STORE_FILENAME,
    BufferFullError,
    FeedbackBuffer,
    LearnerClosedError,
    OnlineConfig,
    OnlineLearner,
    feedback_error_status,
)
from repro.runtime.server import ModelServer
from repro.runtime.workers import WorkerConfig, WorkerSupervisor, fork_available

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


# --------------------------------------------------------------------- helpers
def _swap_labels(labels: np.ndarray) -> np.ndarray:
    """The drift scenario: classes 0 and 1 trade places."""
    swapped = np.array(labels)
    swapped[np.array(labels) == 0] = 1
    swapped[np.array(labels) == 1] = 0
    return swapped


def _post(url: str, path: str, payload: dict, timeout: float = 15.0):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _get(url: str, path: str, timeout: float = 15.0):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return json.loads(response.read())


def _wait_folded(url: str, timeout: float = 20.0) -> None:
    """Block until the learner's buffer is empty (deterministic folds)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if _get(url, "/stats")["online"]["feedback"]["buffered"] == 0:
            return
        time.sleep(0.01)
    raise TimeoutError("feedback buffer never drained")


@pytest.fixture(scope="module")
def drift_dataset():
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


@pytest.fixture(scope="module")
def model_config():
    return MEMHDConfig(dimension=64, columns=24, epochs=5, seed=0)


@pytest.fixture(scope="module")
def base_model(drift_dataset, model_config):
    model = MEMHDModel(
        drift_dataset.num_features, drift_dataset.num_classes, model_config, rng=0
    )
    model.fit(drift_dataset.train_features, drift_dataset.train_labels)
    return model


@pytest.fixture()
def registry(tmp_path, base_model):
    """A fresh store holding the base model as ``tiny5:v1``."""
    store = ArtifactRegistry(tmp_path / "store")
    store.save(base_model, "tiny5")
    return store


# -------------------------------------------------------------- feedback buffer
class TestFeedbackBuffer:
    def test_fifo_order(self):
        buffer = FeedbackBuffer(capacity=8)
        rows = [(np.full(3, float(i)), i) for i in range(5)]
        buffer.add(rows[:3])
        buffer.add(rows[3:])
        assert len(buffer) == 5
        drained = buffer.drain()
        assert [label for _, label in drained] == [0, 1, 2, 3, 4]
        assert len(buffer) == 0

    def test_admission_is_all_or_nothing(self):
        buffer = FeedbackBuffer(capacity=4)
        buffer.add([(np.zeros(2), 0)] * 3)
        with pytest.raises(BufferFullError):
            buffer.add([(np.zeros(2), 1)] * 2)
        # The rejected batch left nothing behind.
        assert len(buffer) == 3
        assert all(label == 0 for _, label in buffer.drain())

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FeedbackBuffer(capacity=0)

    def test_error_status_mapping(self):
        assert feedback_error_status(BufferFullError("x")) == 429
        assert feedback_error_status(LearnerClosedError("x")) == 503
        assert feedback_error_status(ValueError("x")) == 400
        assert feedback_error_status(RuntimeError("x")) == 500


class TestOnlineConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"buffer_size": 0},
            {"min_feedback": 0},
            {"eval_fraction": 1.0},
            {"eval_fraction": -0.1},
            {"eval_window": 0},
            {"fold_chunk": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            OnlineConfig(**kwargs)


# ------------------------------------------------------------- learner gating
class TestPromotionGate:
    def _learner(self, registry, config, promote=None):
        calls = []

        def _promote(payload):
            calls.append(payload)

        learner = OnlineLearner(
            registry, "tiny5", config, promote=promote or _promote, model_key="tiny5"
        )
        learner._promote_calls = calls
        return learner

    def test_failed_gate_never_promotes(self, registry, drift_dataset):
        """A shadow that cannot clear the threshold must not reach traffic."""
        learner = self._learner(
            registry,
            OnlineConfig(
                promote_threshold=2.0,  # unreachable: accuracy <= 1
                min_feedback=16,
                eval_fraction=0.25,
                learning_rate=0.5,
            ),
        )
        learner.submit(
            drift_dataset.train_features[:64], drift_dataset.train_labels[:64]
        )
        summary = learner.step(force=True)
        assert summary is not None and summary["gate"] == "failed"
        assert summary["promoted"] is False
        assert learner._promote_calls == []
        stats = learner.stats()
        assert stats["promotions"]["count"] == 0
        assert stats["shadow"]["gate_failures"] >= 1
        assert stats["artifact"] == "tiny5:v1"
        learner.stop(drain=False)

    def test_no_holdout_never_promotes(self, registry, drift_dataset):
        """With gating disabled (eval_fraction=0) nothing is ever promoted --
        an unevaluated shadow must not reach traffic."""
        learner = self._learner(
            registry,
            OnlineConfig(min_feedback=16, eval_fraction=0.0, learning_rate=0.5),
        )
        learner.submit(
            drift_dataset.train_features[:64], drift_dataset.train_labels[:64]
        )
        summary = learner.step(force=True)
        assert summary["gate"] == "no-holdout"
        assert learner._promote_calls == []
        assert learner.stats()["promotions"]["count"] == 0
        learner.stop(drain=False)

    def test_failing_promote_callback_keeps_previous_version(
        self, registry, drift_dataset
    ):
        def _broken(payload):
            raise RuntimeError("reload fan-out died")

        learner = OnlineLearner(
            registry,
            "tiny5",
            # promote_margin=-1 makes the gate pass on every round, so the
            # only thing standing between the shadow and traffic is the
            # (broken) promote callback.
            OnlineConfig(
                min_feedback=16,
                eval_fraction=0.25,
                learning_rate=0.5,
                promote_margin=-1.0,
            ),
            promote=_broken,
            model_key="tiny5",
        )
        for _ in range(3):
            learner.submit(
                drift_dataset.train_features[:80], drift_dataset.train_labels[:80]
            )
            learner.step(force=True)
        stats = learner.stats()
        assert stats["promotions"]["count"] == 0
        assert stats["promotions"]["failed"] >= 1
        assert learner.current_spec == "tiny5:v1"
        learner.stop(drain=False)

    def test_submit_after_stop_is_rejected(self, registry, drift_dataset):
        learner = self._learner(registry, OnlineConfig(min_feedback=16))
        learner.stop(drain=False)
        with pytest.raises(LearnerClosedError):
            learner.submit(
                drift_dataset.train_features[:4], drift_dataset.train_labels[:4]
            )

    def test_drain_flush_persists_acked_feedback(self, registry, drift_dataset):
        """stop(drain=True) folds the sub-threshold backlog and writes an
        incremental checkpoint, so acknowledged feedback is never lost."""
        learner = self._learner(
            registry,
            OnlineConfig(
                min_feedback=10_000,  # the background fold never triggers
                eval_fraction=0.25,
                learning_rate=0.5,
            ),
        )
        ack = learner.submit(
            drift_dataset.train_features[:40], drift_dataset.train_labels[:40]
        )
        assert ack["status"] == "buffered"
        assert ack["accepted"] == 40
        learner.stop(drain=True)
        stats = learner.stats()
        assert stats["feedback"]["folded"] + stats["feedback"]["held_out"] == 40
        assert stats["promotions"]["checkpoints"] >= 1
        # The drain-flush checkpoint records its feedback lineage.
        _, manifest, resolved = registry.load_with_manifest("tiny5")
        assert resolved != "tiny5:v1"
        assert manifest.lineage is not None
        assert manifest.lineage["kind"] in ("drain-flush", "online-promotion")
        assert manifest.lineage["parent"] == "tiny5:v1"
        assert manifest.lineage["feedback_folded"] == stats["feedback"]["folded"]

    def test_lineage_roundtrip_and_rollback(self, registry, drift_dataset, base_model):
        """Promotion writes a lineage-stamped checkpoint; the parent tag
        still loads bit-exactly (full rollback via name:tag)."""
        learner = self._learner(
            registry,
            OnlineConfig(
                min_feedback=16,
                eval_fraction=0.25,
                learning_rate=0.5,
                promote_margin=-1.0,  # gate passes every round
            ),
        )
        for _ in range(4):
            learner.submit(
                drift_dataset.train_features[:80], drift_dataset.train_labels[:80]
            )
            learner.step(force=True)
        stats = learner.stats()
        assert stats["promotions"]["count"] >= 1
        promoted = stats["promotions"]["last_spec"]
        _, manifest, _ = registry.load_with_manifest(promoted)
        assert manifest.lineage["kind"] == "online-promotion"
        # The base manifest predates the lineage field and reads as None.
        _, base_manifest, _ = registry.load_with_manifest("tiny5:v1")
        assert base_manifest.lineage is None
        # Rollback: the original tag still holds the original weights.
        rolled_back, _, _ = registry.load_with_manifest("tiny5:v1")
        np.testing.assert_array_equal(
            rolled_back.predict(drift_dataset.test_features),
            base_model.predict(drift_dataset.test_features),
        )
        learner.stop(drain=False)

    def test_live_and_shadow_share_one_encoder(
        self, registry, drift_dataset, base_model
    ):
        """The projection is never trained, so the live and shadow clones
        hold one encoder (one float64 widening) across promotions, and
        promotion and rollback stay bit-exact on every engine."""
        learner = self._learner(
            registry,
            OnlineConfig(
                min_feedback=16,
                eval_fraction=0.25,
                learning_rate=0.5,
                promote_margin=-1.0,  # gate passes every round
            ),
        )
        assert learner._live.encoder is learner._shadow.encoder
        for _ in range(3):
            learner.submit(
                drift_dataset.train_features[:80],
                _swap_labels(drift_dataset.train_labels[:80]),
            )
            learner.step(force=True)
        assert learner.stats()["promotions"]["count"] >= 1
        assert learner._live.encoder is learner._shadow.encoder
        features = drift_dataset.test_features
        promoted = registry.load(learner.current_spec)
        rolled_back = registry.load("tiny5:v1")
        np.testing.assert_array_equal(
            promoted.encoder.projection, base_model.encoder.projection
        )
        for engine in ("float", "packed", "pruned"):
            np.testing.assert_array_equal(
                learner._live.predict(features, engine=engine),
                promoted.predict(features, engine=engine),
            )
            np.testing.assert_array_equal(
                rolled_back.predict(features, engine=engine),
                base_model.predict(features, engine=engine),
            )
        learner.stop(drain=False)


# ----------------------------------------------------------- the HTTP contract
class TestFeedbackEndpoint:
    @pytest.fixture()
    def online_server(self, registry):
        server = ModelServer(
            models=["tiny5"],
            registry=registry,
            online=OnlineConfig(
                promote_threshold=2.0,  # endpoint tests never promote
                min_feedback=10_000,
                interval_s=30.0,
            ),
            port=0,
        )
        server.start()
        yield server
        server.shutdown()

    def test_ack_payload(self, online_server, drift_dataset):
        status, body, _ = _post(
            online_server.url,
            "/feedback",
            {
                "features": drift_dataset.train_features[:8].tolist(),
                "labels": drift_dataset.train_labels[:8].astype(int).tolist(),
            },
        )
        assert status == 200
        assert body["status"] == "buffered"
        assert body["model"] == "tiny5"
        assert body["accepted"] == 8
        assert body["held_out"] + body["buffered"] == 8

    def test_routed_path_matches_root(self, online_server, drift_dataset):
        status, body, _ = _post(
            online_server.url,
            "/models/tiny5/feedback",
            {
                "features": drift_dataset.train_features[:4].tolist(),
                "labels": drift_dataset.train_labels[:4].astype(int).tolist(),
            },
        )
        assert status == 200 and body["accepted"] == 4

    @pytest.mark.parametrize(
        "payload",
        [
            {"features": [[0.0] * 24]},  # labels missing
            {"labels": [0]},  # features missing
            {"features": [[0.0] * 3], "labels": [0]},  # wrong width
            {"features": [[0.0] * 24], "labels": [99]},  # label out of range
            {"features": [[0.0] * 24], "labels": [0, 1]},  # length mismatch
            {"features": [], "labels": []},  # empty batch
            {"features": [[float("nan")] * 24], "labels": [0]},  # bare NaN
            {"features": [[0.0] * 23 + [float("inf")]], "labels": [0]},  # Infinity
        ],
    )
    def test_malformed_bodies_are_400(self, online_server, payload):
        status, body, _ = _post(online_server.url, "/feedback", payload)
        assert status == 400
        assert "error" in body

    def test_unknown_model_is_404(self, online_server):
        status, _, _ = _post(
            online_server.url,
            "/models/nope/feedback",
            {"features": [[0.0] * 24], "labels": [0]},
        )
        assert status == 404

    def test_disabled_server_is_503(self, registry):
        with ModelServer(models=["tiny5"], registry=registry, port=0) as server:
            status, body, _ = _post(
                server.url, "/feedback", {"features": [[0.0] * 24], "labels": [0]}
            )
            assert status == 503
            assert "online learning is not enabled" in body["error"]
            assert server.stats_dict()["online"] == {"enabled": False}

    def test_full_buffer_sheds_with_429(self, registry, drift_dataset):
        server = ModelServer(
            models=["tiny5"],
            registry=registry,
            online=OnlineConfig(
                buffer_size=2,
                min_feedback=10_000,  # nothing ever drains the buffer
                interval_s=30.0,
                eval_fraction=0.0,
            ),
            port=0,
        )
        with server:
            body = {
                "features": drift_dataset.train_features[:2].tolist(),
                "labels": drift_dataset.train_labels[:2].astype(int).tolist(),
            }
            status, _, _ = _post(server.url, "/feedback", body)
            assert status == 200
            status, reply, headers = _post(server.url, "/feedback", body)
            assert status == 429
            assert "Retry-After" in headers
            stats = server.stats_dict()["online"]
            assert stats["feedback"]["rejected"] == 2
            assert stats["feedback"]["accepted"] == 2

    def test_stats_block_shape(self, online_server):
        block = _get(online_server.url, "/stats")["online"]
        assert block["enabled"] is True
        assert block["model"] == "tiny5"
        assert block["artifact"] == "tiny5:v1"
        assert set(block["feedback"]) == {
            "requests",
            "accepted",
            "rejected",
            "buffered",
            "held_out",
            "eval_window",
            "folded",
        }
        assert set(block["shadow"]) == {
            "rounds",
            "updates",
            "last_shadow_accuracy",
            "last_live_accuracy",
            "gate_passes",
            "gate_failures",
        }
        assert set(block["promotions"]) == {
            "count",
            "failed",
            "checkpoints",
            "last_spec",
            "last_unix",
        }


# --------------------------------------------------------------- drift recovery
class TestDriftRecovery:
    def test_label_shift_recovers_with_zero_5xx_and_no_torn_versions(
        self, registry, drift_dataset, model_config, base_model
    ):
        """The PR 8 acceptance scenario, single-process edition.

        A two-class label swap is streamed through ``/feedback`` while
        predict traffic keeps flowing; the gated shadow promotions must
        carry served accuracy back to within 2% of a from-scratch
        retrain, no response may 5xx, and every response must be wholly
        attributable to one model version.
        """
        train_swapped = _swap_labels(drift_dataset.train_labels)
        test_swapped = _swap_labels(drift_dataset.test_labels)
        server = ModelServer(
            models=["tiny5"],
            registry=registry,
            online=OnlineConfig(
                promote_threshold=0.5,
                min_feedback=32,
                interval_s=0.02,
                eval_fraction=0.125,
                learning_rate=0.5,
            ),
            port=0,
        )
        server.start()
        url = server.url
        try:
            # Pre-drift sanity: the base model is good on the original
            # labels and poor on the swapped ones.
            _, before, _ = _post(
                url, "/predict", {"features": drift_dataset.test_features.tolist()}
            )
            assert before["artifact"] == "tiny5:v1"
            pre_drift = accuracy(np.array(before["labels"]), test_swapped)

            # Concurrent watcher: /predict + /manifest while promotions
            # happen; collects (version, artifact) pairs and any 5xx.
            observed: list = []
            server_errors: list = []
            stop_watch = threading.Event()

            def _watch():
                probe = drift_dataset.test_features[:4].tolist()
                while not stop_watch.is_set():
                    try:
                        status, body, _ = _post(url, "/predict", {"features": probe})
                    except (urllib.error.URLError, OSError):
                        continue
                    if status >= 500:
                        server_errors.append(("predict", status))
                    elif len(body.get("labels", [])) != 4:
                        server_errors.append(("predict-body", body))
                    else:
                        observed.append((body["version"], body["artifact"]))
                    _get(url, "/manifest")  # manifest endpoint stays live

            watcher = threading.Thread(target=_watch, daemon=True)
            watcher.start()

            # Background loadtest traffic during the first drift epochs.
            load_report = {}

            def _load():
                load_report["report"] = run_load(
                    url, concurrency=4, duration_seconds=1.0, batch_size=2, seed=3
                )

            loader = threading.Thread(target=_load, daemon=True)
            loader.start()

            rng = np.random.default_rng(5)
            for _ in range(10):
                order = rng.permutation(len(train_swapped))
                for start in range(0, len(order), 64):
                    idx = order[start : start + 64]
                    status, body, _ = _post(
                        url,
                        "/feedback",
                        {
                            "features": drift_dataset.train_features[idx].tolist(),
                            "labels": train_swapped[idx].astype(int).tolist(),
                        },
                    )
                    assert status == 200, body
                    _wait_folded(url)
            loader.join(timeout=30.0)
            stop_watch.set()
            watcher.join(timeout=10.0)

            stats = _get(url, "/stats")["online"]
            assert stats["promotions"]["count"] >= 1
            promoted_spec = stats["promotions"]["last_spec"]
            assert promoted_spec is not None and promoted_spec != "tiny5:v1"

            # 1) no torn versions: monotone version numbers, and one
            # artifact per served version.
            assert server_errors == []
            versions = [version for version, _ in observed]
            assert versions == sorted(versions)
            by_version: dict = {}
            for version, artifact in observed:
                assert by_version.setdefault(version, artifact) == artifact
            # 2) the concurrent loadtest saw no 5xx either.
            report = load_report["report"]
            assert all(
                status < 500 for status in report.errors_by_status
            ), report.errors_by_status

            # 3) recovery: the served (promoted) model is within 2% of a
            # from-scratch retrain on the shifted distribution.
            _, after, _ = _post(
                url, "/predict", {"features": drift_dataset.test_features.tolist()}
            )
            assert after["artifact"] == promoted_spec
            served = accuracy(np.array(after["labels"]), test_swapped)
            retrain = MEMHDModel(
                drift_dataset.num_features,
                drift_dataset.num_classes,
                model_config,
                rng=0,
            )
            retrain.fit(drift_dataset.train_features, train_swapped)
            retrain_accuracy = accuracy(
                retrain.predict(drift_dataset.test_features), test_swapped
            )
            assert served >= retrain_accuracy - 0.02, (
                f"served {served:.3f} vs retrain {retrain_accuracy:.3f}"
            )
            assert served > pre_drift + 0.2  # genuinely recovered, not noise

            # 4) lineage: the promoted checkpoint's ancestry walks back
            # to the base tag.
            _, manifest, _ = registry.load_with_manifest(promoted_spec)
            assert manifest.lineage["kind"] == "online-promotion"
            spec_chain = [promoted_spec]
            while manifest.lineage is not None:
                parent = manifest.lineage["parent"]
                spec_chain.append(parent)
                _, manifest, _ = registry.load_with_manifest(parent)
            assert spec_chain[-1] == "tiny5:v1"

            # 5) drift records landed in the PR 3 ResultStore next to the
            # artifact.
            drift_path = registry.root / "tiny5" / DRIFT_STORE_FILENAME
            assert drift_path.is_file()
            from repro.eval.store import ResultStore

            records = ResultStore(drift_path).records()
            assert len(records) >= stats["shadow"]["rounds"] - 1
            assert any(record.metrics["promoted"] for record in records)
            assert all(
                record.config["event"] == "shadow-eval" for record in records
            )

            # 6) full rollback via name:tag -- the served model returns
            # bit-exactly to the pre-drift weights.
            status, reload_body, _ = _post(
                url, "/reload", {"model": "tiny5", "spec": "tiny5:v1"}
            )
            assert status == 200 and reload_body["artifact"] == "tiny5:v1"
            _, rolled, _ = _post(
                url, "/predict", {"features": drift_dataset.test_features.tolist()}
            )
            assert rolled["artifact"] == "tiny5:v1"
            np.testing.assert_array_equal(
                np.array(rolled["labels"]),
                base_model.predict(drift_dataset.test_features),
            )
        finally:
            server.shutdown()


# ----------------------------------------------------------------- chaos (fork)
@pytest.mark.skipif(not fork_available(), reason="prefork requires fork()")
class TestPreforkChaos:
    def test_sigkill_mid_stream_loses_no_acked_feedback(
        self, registry, drift_dataset
    ):
        """SIGKILL a worker mid-feedback-stream: every 200-acked sample is
        in the supervisor's learner, the respawned worker converges to the
        promoted version, and the graceful drain persists the backlog."""
        train_swapped = _swap_labels(drift_dataset.train_labels)
        config = WorkerConfig(
            models=("tiny5",),
            store=str(registry.root),
            online=OnlineConfig(
                promote_threshold=0.5,
                min_feedback=32,
                interval_s=0.02,
                eval_fraction=0.125,
                learning_rate=0.5,
            ),
        )
        supervisor = WorkerSupervisor(config, workers=2, port=0)
        supervisor.start()
        url = supervisor.url
        acked = 0
        try:
            rng = np.random.default_rng(5)
            killed = False
            for epoch in range(6):
                order = rng.permutation(len(train_swapped))
                for start in range(0, len(order), 64):
                    idx = order[start : start + 64]
                    # stream_feedback's retry loop is the chaos-tolerant
                    # client: a batch that died with the worker (status 0,
                    # never acked) is re-sent and only counted once acked.
                    result = stream_feedback(
                        url,
                        drift_dataset.train_features[idx],
                        train_swapped[idx],
                        batch_size=64,
                        retries=10,
                    )
                    acked += result["acked"]
                    assert result["acked"] == len(idx), result
                    if epoch == 2 and not killed:
                        victim = next(iter(supervisor.worker_pids().values()))
                        os.kill(victim, signal.SIGKILL)
                        killed = True
                _wait_folded(url)
            assert killed

            # The replacement worker comes back and resyncs.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and supervisor.alive_count() < 2:
                time.sleep(0.1)
            assert supervisor.alive_count() == 2
            assert supervisor.respawns >= 1

            stats = _get(url, "/stats")
            online = stats["online"]
            # No 200-acknowledged feedback was lost to the SIGKILL.
            assert online["feedback"]["accepted"] >= acked
            assert online["promotions"]["count"] >= 1
            promoted_spec = online["promotions"]["last_spec"]

            # Every worker (including the respawned one) serves exactly
            # the promoted artifact -- poll briefly while the resync
            # replay lands.
            deadline = time.monotonic() + 20.0
            artifacts = {}
            while time.monotonic() < deadline:
                stats = _get(url, "/stats")
                artifacts = {
                    worker_id: snapshot["models"]["tiny5"]["artifact"]
                    for worker_id, snapshot in stats["workers"].items()
                }
                if len(artifacts) == 2 and set(artifacts.values()) == {
                    stats["online"]["promotions"]["last_spec"]
                }:
                    break
                time.sleep(0.2)
            promoted_spec = _get(url, "/stats")["online"]["promotions"]["last_spec"]
            assert set(artifacts.values()) == {promoted_spec}, artifacts
        finally:
            supervisor.shutdown()

        # Drain invariant: everything acked was folded (and persisted) or
        # deliberately withheld into the holdout reservoir.
        stats = supervisor._online.stats()
        assert (
            stats["feedback"]["folded"] + stats["feedback"]["held_out"]
            == stats["feedback"]["accepted"]
        )
        assert stats["feedback"]["accepted"] >= acked
        assert stats["feedback"]["buffered"] == 0
