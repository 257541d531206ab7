"""Per-layer replays for the traced run.

Each replay calls the program's public functions one stage at a time and
records a span per call.  The stages recompose into the served result,
and the replay checks that they do: a replayed request must end with the
labels the server answered, and a replayed ``fit`` must end with the
memory ``MEMHDModel.fit`` built.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.associative_memory import MultiCentroidAM
from repro.core.initialization import clustering_initialization
from repro.core.training import QuantizationAwareTrainer
from repro.hdc.encoders import RandomProjectionEncoder
from repro.hdc.hypervector import to_binary
from repro.hdc.packed import pack_binary
from repro.runtime.server import ModelServer


def _validate(features, num_features: int) -> np.ndarray:
    """What the handler does before queueing: shape and width checks."""
    batch = ModelServer._as_feature_batch(features)
    if batch.shape[1] != num_features:
        raise ValueError(f"width {batch.shape[1]} != {num_features}")
    return batch


def _model_stages(tracer, model, batch: np.ndarray) -> List[np.ndarray]:
    """``predict(engine="packed")`` whole, then stage by stage.

    Returns the labels of the whole call, of ``MultiCentroidAM.predict``
    and of the recomposed stages (encode, binarize, pack, scan, argmax).
    """
    am = model.associative_memory
    packed_am = am.packed()
    whole = tracer.call("model.predict", model.predict, batch, engine="packed")
    encoded = tracer.call("encoders.encode", model.encoder.encode, batch)
    binary = tracer.call("hypervector.to_binary", to_binary, encoded)
    packed = tracer.call("packed.pack", pack_binary, binary)
    scores = tracer.call("packed.scan", packed_am.scores, packed)
    by_am = tracer.call("am.predict", am.predict, binary, packed=True)
    recomposed = am.column_classes[np.argmax(np.atleast_2d(scores), axis=1)]
    return [np.asarray(whole), np.asarray(by_am), recomposed]


@dataclass
class RequestReplay:
    """Outcome of :func:`replay_requests`."""

    mismatches: int = 0
    #: Per-request wall times of the unrecorded and the recorded pass.
    untraced_ms: List[float] = field(default_factory=list)
    traced_ms: List[float] = field(default_factory=list)
    #: The ``models`` block of the in-process server's ``/stats`` payload.
    models_stats: Dict = field(default_factory=dict)


def replay_requests(tracer, model, requests: Sequence, model_stages: bool) -> RequestReplay:
    """Replay request bodies through an in-process ``ModelServer``.

    The server is built like ``repro serve --engine packed`` builds it
    (micro-batching on, default window), so ``predict_payload`` includes
    the scheduler's queueing.  Each request is replayed twice, first
    unrecorded and then recorded; the two passes' wall times give the
    tracing overhead.  A request counts as a mismatch when any stage
    chain ends with labels other than the expected ones.
    """
    server = ModelServer(model, engine="packed", port=0)
    restore = tracer.wrap(server.pipeline, "run", lambda *a, **k: "pipeline.run")
    outcome = RequestReplay()
    try:
        for index, request in enumerate(requests):
            expected = np.asarray(request.expected)
            for recorded in (False, True):
                tracer.enabled = recorded
                tracer.request = f"request-{index}"
                start = time.perf_counter()
                payload = tracer.call("server.decode", json.loads, request.body)
                batch = tracer.call(
                    "server.validate", _validate, payload["features"],
                    model.num_features,
                )
                response = tracer.call(
                    "server.predict_payload", server.predict_payload,
                    payload["features"],
                )
                tracer.call("server.encode_response", _encode_response, response)
                labels = [np.asarray(response["labels"])]
                if model_stages:
                    labels += _model_stages(tracer, model, batch)
                elapsed = 1000.0 * (time.perf_counter() - start)
                (outcome.traced_ms if recorded else outcome.untraced_ms).append(elapsed)
                if not all(np.array_equal(found, expected) for found in labels):
                    outcome.mismatches += 1
        outcome.models_stats = server.stats_dict()["models"]
    finally:
        tracer.enabled = True
        tracer.request = None
        restore()
        server.shutdown()
    return outcome


def _encode_response(response) -> bytes:
    """What the handler does with a 200 payload."""
    return json.dumps(response).encode("utf-8")


def replay_eval(tracer, model, features: np.ndarray, expected: np.ndarray,
                repeats: int) -> int:
    """The model stages over a whole split, ``repeats`` times."""
    mismatches = 0
    for index in range(repeats):
        tracer.request = f"eval-{index}"
        for labels in _model_stages(tracer, model, features):
            mismatches += int(not np.array_equal(labels, expected))
    tracer.request = None
    return mismatches


def replay_fit(tracer, config, num_classes: int, features: np.ndarray,
               labels: np.ndarray):
    """``MEMHDModel.fit`` one public call at a time.

    Draws from one generator seeded like the model's, in the order
    ``MEMHDModel`` draws (projection, then initialization, then the
    trainer's shuffles), so the replayed memory equals the fitted one.
    Returns ``(encoder, am, history)``.
    """
    tracer.request = "fit"
    rng = np.random.default_rng(config.seed)
    encoder = RandomProjectionEncoder(
        features.shape[1], config.dimension,
        binary_projection=config.binary_projection, rng=rng,
    )
    encoded = to_binary(encoder.encode(features)).astype(np.float64)
    y = np.asarray(labels, dtype=np.int64)
    init = tracer.call(
        "initialization.clustering", clustering_initialization,
        encoded, y,
        columns=config.columns,
        num_classes=num_classes,
        cluster_ratio=config.cluster_ratio,
        kmeans_iterations=config.kmeans_iterations,
        allocation_rounds=config.allocation_rounds,
        threshold_mode=config.threshold_mode,
        normalization=config.normalization,
        rng=rng,
    )
    am = MultiCentroidAM(
        init.fp_memory, init.column_classes, num_classes=num_classes,
        threshold_mode=config.threshold_mode, normalization=config.normalization,
    )
    restore_scores = tracer.wrap(
        am, "scores",
        lambda queries, packed=False: "am.scores_packed" if packed else "am.scores_float",
    )
    restore_refresh = tracer.wrap(am, "refresh_binary", lambda: "am.refresh_binary")
    trainer = QuantizationAwareTrainer(
        learning_rate=config.learning_rate,
        epochs=config.epochs,
        binary_update_interval=config.binary_update_interval,
        early_stop_patience=config.early_stop_patience,
        keep_best=config.keep_best,
    )
    try:
        history = tracer.call("training.train", trainer.train, am, encoded, y, rng=rng)
    finally:
        restore_scores()
        restore_refresh()
        tracer.request = None
    return encoder, am, history


def request_metrics(tracer, bodies: Sequence[bytes]) -> Dict[str, float]:
    """Per-request medians of the replayed request stages."""
    metrics = {
        "server.decode_ms": tracer.median_ms("server.decode"),
        "server.validate_ms": tracer.median_ms("server.validate"),
        "server.predict_payload_ms": tracer.median_ms("server.predict_payload"),
        "scheduler.self_ms": statistics.median(
            tracer.self_durations("server.predict_payload")
        ),
        "pipeline.run_ms": tracer.median_ms("pipeline.run"),
        "server.encode_response_ms": tracer.median_ms("server.encode_response"),
        "server.request_bytes": float(statistics.median(len(b) for b in bodies)),
    }
    return metrics


def model_metrics(tracer) -> Dict[str, float]:
    return {
        "model.predict_ms": tracer.median_ms("model.predict"),
        "encoders.encode_ms": tracer.median_ms("encoders.encode"),
        "hypervector.to_binary_ms": tracer.median_ms("hypervector.to_binary"),
        "packed.pack_ms": tracer.median_ms("packed.pack"),
        "packed.scan_ms": tracer.median_ms("packed.scan"),
        "am.predict_ms": tracer.median_ms("am.predict"),
    }


def fit_metrics(tracer, history) -> Dict[str, float]:
    return {
        "initialization.clustering_ms": tracer.total_ms("initialization.clustering"),
        "training.train_ms": tracer.total_ms("training.train"),
        "am.scores_float_ms": tracer.total_ms("am.scores_float"),
        "am.refresh_binary_ms": tracer.total_ms("am.refresh_binary"),
        "training.epochs_run": float(len(history.updates)),
        "training.updates_total": float(sum(history.updates)),
    }


def scheduler_metrics(models_stats: Dict) -> Dict[str, float]:
    """``scheduler.*`` from the ``models`` block of a ``/stats`` payload."""
    batches = queries = rejected = expired = 0
    dispatch_s = 0.0
    for entry in models_stats.values():
        block = entry.get("scheduler") or {}
        batches += block.get("batches", 0)
        queries += block.get("queries", 0)
        rejected += block.get("rejected_full", 0)
        expired += block.get("expired_deadlines", 0)
        dispatch_s += block.get("dispatch_s", 0.0)
    return {
        "scheduler.mean_batch_rows": queries / batches if batches else 0.0,
        "scheduler.dispatch_ms_per_batch": 1000.0 * dispatch_s / batches if batches else 0.0,
        "scheduler.rejected_full": float(rejected),
        "scheduler.expired_deadlines": float(expired),
    }
