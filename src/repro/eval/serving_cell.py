"""Serving-load sweep cells: capacity planning as a regular sweep axis.

An accuracy cell answers "how good is this configuration"; a serving-load
cell answers "how does it *serve*": the cell trains its model with the
same deterministic seed derivation every other cell uses, boots a real
server on an ephemeral port (an in-process
:class:`~repro.runtime.server.ModelServer` for one worker, a
:class:`~repro.runtime.workers.WorkerSupervisor` prefork pool for more),
drives it with the PR 4 load generator under the cell's
concurrency/batch/loop-mode knobs, and records the numbers capacity
planning needs -- QPS and p50/p95/p99 latency -- as ordinary cell
metrics.

Determinism is split explicitly, so the store stays drift-gateable:

* **deterministic metrics** -- ``requests``, ``queries``, ``errors``,
  ``error_rate`` (the load is a *fixed request count*, not a duration)
  and ``predictions_sha256`` (a digest of the labels the server returns
  for a fixed synthesized payload pool -- bit-exact across runs, hosts
  and worker counts because the trained model is bit-identical);
* **volatile metrics** -- ``qps`` / ``requests_per_s`` / ``p50_ms`` /
  ``p95_ms`` / ``p99_ms`` / ``duration_s`` / ``train_elapsed_s`` -- are
  machine measurements, excluded from ``sweep diff`` / provenance by the
  explicit ``repro.eval.store.VOLATILE_METRICS`` set.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.eval.metrics import accuracy

#: Payload batches hashed into ``predictions_sha256`` (kept small: the
#: digest certifies bit-exactness, it is not a throughput measurement).
DIGEST_BATCHES = 8


def execute_serving_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Train, serve, and load-test one serving-load grid cell.

    Module-level and picklable for the same reason as
    :func:`repro.eval.sweep.execute_job` -- process pools and distributed
    workers both call it through that dispatcher.
    """
    from repro.eval.sweep import model_for_config
    from repro.runtime.loadtest import prediction_digest, run_load

    config = payload["config"]
    model_seed = int(payload["seed"])
    model, dataset = model_for_config(config, model_seed)

    train_start = time.perf_counter()
    history = model.fit(dataset.train_features, dataset.train_labels)
    train_elapsed = time.perf_counter() - train_start
    report = model.memory_report()

    engine = config.get("engine") or "float"
    concurrency = int(config["serving_concurrency"])
    workers = int(config["serving_workers"])
    batch = int(config["serving_batch"])
    mode = config["serving_mode"]
    requests = int(config["serving_requests"])
    rate = config.get("serving_rate")

    with _serve(model, engine=engine, workers=workers) as url:
        load = run_load(
            url,
            num_features=dataset.num_features,
            mode=mode,
            concurrency=concurrency,
            batch_size=batch,
            rate=None if rate is None else float(rate),
            seed=model_seed,
            total_requests=requests,
        )
        digest = prediction_digest(
            url,
            num_features=dataset.num_features,
            batch_size=batch,
            count=DIGEST_BATCHES,
            seed=model_seed,
        )

    load_row = load.as_dict()
    metrics: Dict[str, Any] = {
        # deterministic: gate drift on these
        "train_accuracy": float(history.final_train_accuracy),
        "test_accuracy": float(
            accuracy(model.predict(dataset.test_features), dataset.test_labels)
        ),
        "memory_kib": float(report.total_kib),
        "requests": int(load_row["requests"]),
        "queries": int(load_row["queries"]),
        "errors": int(load_row["errors"]),
        "error_rate": float(load_row["errors"]) / float(load_row["requests"]),
        "predictions_sha256": digest,
        # volatile: machine measurements, diff-ignored by VOLATILE_METRICS
        "train_elapsed_s": float(train_elapsed),
        "duration_s": float(load_row["duration_s"]),
        "qps": float(load_row["qps"]),
        "requests_per_s": float(load_row["requests_per_s"]),
        "p50_ms": float(load_row["p50_ms"]),
        "p95_ms": float(load_row["p95_ms"]),
        "p99_ms": float(load_row["p99_ms"]),
    }
    return {"key": payload["key"], "config": config, "metrics": metrics}


class _serve:
    """Context manager yielding the URL of a per-cell throwaway server.

    One worker boots an in-process threaded :class:`ModelServer`;
    ``workers > 1`` boots a :class:`WorkerSupervisor` prefork pool with
    the fitted model inherited through ``fork``.  On platforms without
    ``fork`` the pool degrades to the in-process server -- the
    deterministic metrics (counts + digest) are identical either way, so
    stores from both paths still diff clean.
    """

    def __init__(self, model, engine: str, workers: int) -> None:
        self.model = model
        self.engine = engine
        self.workers = workers
        self._server = None
        self._supervisor = None

    def __enter__(self) -> str:
        from repro.runtime.workers import fork_available

        if self.workers > 1 and fork_available():
            from repro.runtime.config import ServeConfig
            from repro.runtime.workers import WorkerConfig, WorkerSupervisor

            self._supervisor = WorkerSupervisor(
                WorkerConfig(model=self.model, serve=ServeConfig(engine=self.engine)),
                host="127.0.0.1",
                port=0,
                workers=self.workers,
                respawn=False,
            )
            self._supervisor.start()
            return self._supervisor.url
        from repro.runtime.server import ModelServer

        self._server = ModelServer(
            self.model, engine=self.engine, host="127.0.0.1", port=0
        ).start()
        return self._server.url

    def __exit__(self, *exc_info) -> None:
        if self._supervisor is not None:
            self._supervisor.shutdown(drain=False)
        if self._server is not None:
            self._server.shutdown()
