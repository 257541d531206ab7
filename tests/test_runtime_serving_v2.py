"""End-to-end tests for serving runtime v2 over real HTTP.

Covers the four hardening satellites of the serving-v2 PR:

* **concurrency stress** -- >=16 client threads with mixed batch sizes;
  every response bit-identical to direct ``model.predict``, no request
  lost or duplicated, clean shutdown drains the queue;
* **hot-swap race** -- a steady request stream while ``POST /reload``
  swaps checkpoints in a loop; every response comes wholly from one model
  version and ``/manifest`` never 500s;
* **error paths** -- unknown model 404, full queue 429 + ``Retry-After``,
  expired deadline 503, malformed ``/reload`` 400;
* **stats schema** -- the ``/stats`` and ``/predict`` payload shapes are
  pinned against ``tests/golden/serving_stats_schema.json`` (regenerate
  after an intentional change with ``REPRO_REGEN_GOLDEN=1``).
"""

from __future__ import annotations

import collections
import json
import os
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel
from repro.io.registry import ArtifactRegistry
from repro.runtime.server import ModelServer

GOLDEN_SCHEMA_PATH = Path(__file__).parent / "golden" / "serving_stats_schema.json"


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _post_status(url, payload):
    """POST returning (status, payload, headers) without raising on 4xx/5xx."""
    try:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                json.loads(response.read().decode("utf-8")),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        body = json.loads(error.read().decode("utf-8"))
        headers = dict(error.headers)
        error.close()
        return error.code, body, headers


def _train(dataset, seed: int) -> MEMHDModel:
    model = MEMHDModel(
        dataset.num_features,
        dataset.num_classes,
        MEMHDConfig(dimension=48, columns=16, epochs=2, seed=seed),
        rng=seed,
    )
    model.fit(dataset.train_features, dataset.train_labels)
    return model


@pytest.fixture(scope="module")
def serving_stack(tmp_path_factory, tiny_dataset):
    """Registry with two distinguishable 'demo' versions + a live server."""
    store = ArtifactRegistry(tmp_path_factory.mktemp("serve-v2-store"))
    v1 = _train(tiny_dataset, seed=1)
    v2 = _train(tiny_dataset, seed=2)
    probe = tiny_dataset.test_features
    # The swap-race test needs the versions to disagree somewhere,
    # otherwise "wholly one version" would be vacuous.
    assert not np.array_equal(
        v1.predict(probe, engine="packed"), v2.predict(probe, engine="packed")
    )
    store.save(v1, "demo", tag="v1")
    store.save(v2, "demo", tag="v2")
    store.save(_train(tiny_dataset, seed=3), "alt", tag="v1")
    server = ModelServer(
        models=["demo:v1", "alt:v1"],
        registry=store,
        engine="packed",
        max_batch_size=32,
        max_wait_ms=2.0,
        queue_depth=256,
        port=0,
    )
    with server:
        yield {
            "server": server,
            "registry": store,
            "models": {"demo:v1": v1, "demo:v2": v2},
        }
    # Post-shutdown: the pool drained; no scheduler may still hold work.
    assert server.pool.total_queue_size() == 0


class GateModel:
    """Minimal 'model' whose predict blocks until released (429/503 tests)."""

    name = "gate"
    num_features = 4

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def predict(self, features):
        self.entered.set()
        assert self.release.wait(timeout=30.0)
        return np.zeros(np.asarray(features).shape[0], dtype=np.int64)


class TestMultiModelRouting:
    def test_default_and_path_and_body_routing_agree(
        self, serving_stack, tiny_dataset
    ):
        server = serving_stack["server"]
        batch = tiny_dataset.test_features[:6].tolist()
        _, by_default, _ = _post_status(server.url + "/predict", {"features": batch})
        _, by_path, _ = _post_status(
            server.url + "/models/demo/predict", {"features": batch}
        )
        _, by_body, _ = _post_status(
            server.url + "/predict", {"features": batch, "model": "demo"}
        )
        assert by_default["labels"] == by_path["labels"] == by_body["labels"]
        assert by_default["model"] == "demo"
        assert by_default["artifact"] == "demo:v1"

    def test_second_model_served_concurrently(self, serving_stack, tiny_dataset):
        server = serving_stack["server"]
        registry = serving_stack["registry"]
        batch = tiny_dataset.test_features[:8]
        status, payload, _ = _post_status(
            server.url + "/models/alt/predict", {"features": batch.tolist()}
        )
        assert status == 200
        expected = registry.load("alt:v1").predict(batch, engine="packed")
        assert payload["labels"] == [int(label) for label in expected]
        assert payload["model"] == "alt"

    def test_models_listing(self, serving_stack):
        server = serving_stack["server"]
        status, payload = _get(server.url + "/models")
        assert status == 200
        keys = {row["key"] for row in payload["models"]}
        assert keys == {"demo", "alt"}

    def test_named_manifest(self, serving_stack):
        server = serving_stack["server"]
        status, payload = _get(server.url + "/models/alt/manifest")
        assert status == 200
        assert payload["model_class"] == "MEMHDModel"


class TestConcurrencyStress:
    def test_hammer_bit_exact_no_loss(self, serving_stack, tiny_dataset):
        """16 threads x mixed batch sizes: every response 200 and
        bit-identical to the direct model; request count conserved."""
        server = serving_stack["server"]
        model = serving_stack["models"]["demo:v1"]
        features = tiny_dataset.test_features
        failures = []
        completed = []
        before = _get(server.url + "/stats")[1]["models"]["demo"]

        def client(worker: int) -> None:
            rng = np.random.default_rng(1000 + worker)
            for _ in range(8):
                size = int(rng.integers(1, 10))
                start = int(rng.integers(0, len(features) - size))
                batch = features[start : start + size]
                status, payload, _ = _post_status(
                    server.url + "/models/demo/predict",
                    {"features": batch.tolist()},
                )
                expected = [
                    int(label) for label in model.predict(batch, engine="packed")
                ]
                if status != 200 or payload["labels"] != expected:
                    failures.append((worker, status, payload))
                else:
                    completed.append(payload["count"])

        threads = [threading.Thread(target=client, args=(w,)) for w in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not failures
        assert len(completed) == 16 * 8
        after = _get(server.url + "/stats")[1]["models"]["demo"]
        assert after["requests"] - before["requests"] == 16 * 8
        assert after["queries"] - before["queries"] == sum(completed)
        # Micro-batching actually engaged under the hammer.
        histogram = after["scheduler"]["batch_size_histogram"]
        assert any(int(rows) > 9 for rows in histogram)

    def test_shutdown_drains_cleanly(self, tiny_dataset, trained_memhd):
        """Shutdown under load: every admitted request gets an answer."""
        model, _ = trained_memhd
        server = ModelServer(
            model, engine="packed", max_batch_size=16, max_wait_ms=1.0, port=0
        ).start()
        outcomes = []
        stop = threading.Event()
        answered = threading.Event()

        def client() -> None:
            batch = tiny_dataset.test_features[:3].tolist()
            while not stop.is_set():
                try:
                    status, _, _ = _post_status(
                        server.url + "/predict", {"features": batch}
                    )
                    outcomes.append((status, time.monotonic()))
                    if status == 200:
                        answered.set()
                except (urllib.error.URLError, OSError, json.JSONDecodeError):
                    # Connection refused/reset after the listener stopped
                    # is fine; a hung request would fail the join below.
                    return

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        # Shut down under load, once the server has answered at least once.
        first_answer = answered.wait(30.0)
        shutdown_started = time.monotonic()
        stop.set()
        server.shutdown()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "a client hung across shutdown"
        assert first_answer, "no request was answered before shutdown"
        assert outcomes
        # Every request gets a definite answer (never a hang, per the
        # joins above): 200 normally; a request racing the shutdown
        # boundary may be shed with 503, but only then.
        assert all(status in (200, 503) for status, _ in outcomes), outcomes
        for status, finished in outcomes:
            if status == 503:
                assert finished >= shutdown_started
        assert any(status == 200 for status, _ in outcomes)
        assert server.pool.total_queue_size() == 0


class TestHotSwapRace:
    def test_responses_wholly_from_one_version(self, serving_stack, tiny_dataset):
        """Requests racing a reload loop: each response must match one
        checkpoint exactly (no torn reads) and agree with the version the
        server claims served it; /manifest never errors."""
        server = serving_stack["server"]
        models = serving_stack["models"]
        probe = tiny_dataset.test_features[:12]
        expected = {
            spec: [int(v) for v in model.predict(probe, engine="packed")]
            for spec, model in models.items()
        }
        stop = threading.Event()
        anomalies = []
        manifest_failures = []
        served = collections.Counter()  # responses per artifact
        served_changed = threading.Condition()

        def requester() -> None:
            while not stop.is_set():
                status, payload, _ = _post_status(
                    server.url + "/models/demo/predict",
                    {"features": probe.tolist()},
                )
                if status != 200:
                    anomalies.append(("status", status, payload))
                    continue
                artifact = payload["artifact"]
                if payload["labels"] != expected.get(artifact):
                    anomalies.append(("torn", artifact, payload["labels"]))
                with served_changed:
                    served[artifact] += 1
                    served_changed.notify_all()

        def manifest_poller() -> None:
            while not stop.is_set():
                try:
                    status, payload = _get(server.url + "/models/demo/manifest")
                    if status != 200 or "model_class" not in payload:
                        manifest_failures.append((status, payload))
                except urllib.error.HTTPError as error:
                    manifest_failures.append((error.code, None))
                    error.close()

        workers = [threading.Thread(target=requester) for _ in range(6)]
        workers.append(threading.Thread(target=manifest_poller))
        for thread in workers:
            thread.start()
        try:
            for cycle in range(8):
                spec = "demo:v2" if cycle % 2 == 0 else "demo:v1"
                status, payload, _ = _post_status(
                    server.url + "/reload", {"model": "demo", "spec": spec}
                )
                assert status == 200, payload
                assert payload["artifact"] == spec
                # Race the next reload only once a requester has been
                # served the version just installed.
                with served_changed:
                    before = served[spec]
                    fresh = served_changed.wait_for(
                        lambda: served[spec] > before, timeout=30.0
                    )
                assert fresh, f"no request was served {spec} after its reload"
        finally:
            stop.set()
            for thread in workers:
                thread.join(timeout=60.0)
        # Leave the shared fixture on its original version.
        _post_status(server.url + "/reload", {"model": "demo", "spec": "demo:v1"})
        assert not anomalies
        assert not manifest_failures
        assert set(served) >= {"demo:v1", "demo:v2"}, (
            "the race never actually observed both versions"
        )

    def test_reload_bumps_version_monotonically(self, serving_stack):
        server = serving_stack["server"]
        _, before, _ = _post_status(
            server.url + "/reload", {"model": "alt", "spec": "alt:v1"}
        )
        _, after, _ = _post_status(
            server.url + "/reload", {"model": "alt", "spec": "alt:v1"}
        )
        assert after["version"] == before["version"] + 1


class TestErrorPaths:
    def test_unknown_model_404(self, serving_stack, tiny_dataset):
        server = serving_stack["server"]
        batch = tiny_dataset.test_features[:2].tolist()
        for payload, path in (
            ({"features": batch}, "/models/ghost/predict"),
            ({"features": batch, "model": "ghost"}, "/predict"),
        ):
            status, body, _ = _post_status(server.url + path, payload)
            assert status == 404
            assert "ghost" in body["error"]

    def test_unknown_manifest_404(self, serving_stack):
        server = serving_stack["server"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/models/ghost/manifest")
        assert excinfo.value.code == 404

    def test_malformed_reload_400(self, serving_stack):
        server = serving_stack["server"]
        for payload in (
            {"model": 42},
            {"spec": ["demo:v1"]},
            {"model": "demo", "spec": "no-such-artifact:v9"},
        ):
            status, body, _ = _post_status(server.url + "/reload", payload)
            assert status == 400, body
        status, _, _ = _post_status(server.url + "/reload", {"model": "ghost"})
        assert status == 404

    def test_reload_rejects_non_object_body(self, serving_stack):
        server = serving_stack["server"]
        request = urllib.request.Request(
            server.url + "/reload",
            data=b"[1, 2, 3]",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        excinfo.value.close()

    def test_bad_deadline_and_model_types_400(self, serving_stack, tiny_dataset):
        server = serving_stack["server"]
        batch = tiny_dataset.test_features[:2].tolist()
        status, _, _ = _post_status(
            server.url + "/predict", {"features": batch, "deadline_ms": -5}
        )
        assert status == 400
        status, _, _ = _post_status(
            server.url + "/predict", {"features": batch, "model": 7}
        )
        assert status == 400

    def test_full_queue_429_with_retry_after(self):
        gate = GateModel()
        server = ModelServer(
            gate, max_batch_size=1, max_wait_ms=0.0, queue_depth=1, port=0
        ).start()
        try:
            batch = [[0.0, 0.0, 0.0, 0.0]]
            predict_args = (server.url + "/predict", {"features": batch})
            first = threading.Thread(target=_post_status, args=predict_args)
            first.start()
            assert gate.entered.wait(timeout=10.0)
            second = threading.Thread(target=_post_status, args=predict_args)
            second.start()
            deadline = time.monotonic() + 5.0
            while server.pool.total_queue_size() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            status, body, headers = _post_status(
                server.url + "/predict", {"features": batch}
            )
            assert status == 429, body
            assert int(headers["Retry-After"]) >= 1
            stats = server.stats_dict()
            assert stats["errors_by_status"].get("429") == 1
        finally:
            gate.release.set()
            first.join(timeout=30.0)
            second.join(timeout=30.0)
            server.shutdown()

    def test_expired_deadline_503(self):
        gate = GateModel()
        server = ModelServer(
            gate, max_batch_size=1, max_wait_ms=0.0, queue_depth=8, port=0
        ).start()
        try:
            batch = [[0.0, 0.0, 0.0, 0.0]]
            predict_args = (server.url + "/predict", {"features": batch})
            blocker = threading.Thread(target=_post_status, args=predict_args)
            blocker.start()
            assert gate.entered.wait(timeout=10.0)
            result = {}

            def doomed() -> None:
                result["outcome"] = _post_status(
                    server.url + "/predict",
                    {"features": batch, "deadline_ms": 25},
                )

            loser = threading.Thread(target=doomed)
            loser.start()
            # Release only once the doomed request is queued (its
            # deadline is stamped at admission) and 25 ms have passed.
            give_up = time.monotonic() + 10.0
            while server.pool.total_queue_size() < 1:
                assert time.monotonic() < give_up, "request never queued"
                time.sleep(0.001)
            lapsed = time.monotonic() + 0.025
            while time.monotonic() <= lapsed:
                time.sleep(0.001)
            gate.release.set()
            loser.join(timeout=30.0)
            blocker.join(timeout=30.0)
            status, body, _ = result["outcome"]
            assert status == 503, body
            assert "deadline" in body["error"]
        finally:
            gate.release.set()
            server.shutdown()

    def test_wrong_width_request_rejected_at_admission(self, serving_stack):
        """A request whose width disagrees with the model gets its own
        400 instead of poisoning the micro-batch it would have joined."""
        server = serving_stack["server"]
        status, body, _ = _post_status(
            server.url + "/predict", {"features": [[1.0, 2.0, 3.0]]}
        )
        assert status == 400
        assert "columns" in body["error"]
        # The scheduler is untouched: a correct request still serves.
        entry = server.pool.get("demo")
        good = [[0.0] * entry.num_features]
        status, _, _ = _post_status(server.url + "/predict", {"features": good})
        assert status == 200

    def test_unread_body_error_closes_keepalive_cleanly(self, serving_stack):
        """An error sent before the body is read must drop the keep-alive
        connection (regression: leftover body bytes used to be parsed as
        the next request line, poisoning the connection)."""
        import socket as socket_module

        server = serving_stack["server"]
        body = json.dumps({"features": [[1.0]]}).encode("utf-8")
        request = (
            f"POST /nope HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body
        with socket_module.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(request)
            response = b""
            while b"\r\n\r\n" not in response:
                response += sock.recv(65536)
            head = response.split(b"\r\n\r\n", 1)[0]
            assert b"404" in head.split(b"\r\n", 1)[0]
            assert b"Connection: close" in head
            # The server hangs up instead of misreading the body bytes.
            sock.settimeout(5.0)
            tail = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                tail += chunk
        assert b"Bad request" not in tail

    def test_concurrent_reloads_are_serialized(self, serving_stack):
        """Racing reloads must produce strictly distinct version numbers."""
        server = serving_stack["server"]
        base = _post_status(
            server.url + "/reload", {"model": "alt", "spec": "alt:v1"}
        )[1]["version"]
        results = []

        def reloader() -> None:
            status, payload, _ = _post_status(
                server.url + "/reload", {"model": "alt", "spec": "alt:v1"}
            )
            results.append((status, payload.get("version")))

        threads = [threading.Thread(target=reloader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert all(status == 200 for status, _ in results)
        versions = sorted(version for _, version in results)
        assert versions == list(range(base + 1, base + 7))

    def test_errors_never_skew_throughput(self, trained_memhd, tiny_dataset):
        """The ServerStats regression fix, end to end: a burst of failing
        requests leaves queries_per_second untouched."""
        model, _ = trained_memhd
        with ModelServer(model, engine="packed", port=0) as server:
            batch = tiny_dataset.test_features[:8].tolist()
            _post_status(server.url + "/predict", {"features": batch})
            healthy = _get(server.url + "/stats")[1]
            for _ in range(5):
                status, _, _ = _post_status(
                    server.url + "/predict", {"features": batch, "model": "ghost"}
                )
                assert status == 404
            degraded = _get(server.url + "/stats")[1]
            assert degraded["queries_per_second"] == pytest.approx(
                healthy["queries_per_second"]
            )
            assert degraded["queries"] == healthy["queries"]
            assert degraded["errors"] == healthy["errors"] + 5
            assert degraded["errors_by_status"]["404"] == 5


class TestStatsSchema:
    def _schema(self, serving_stack, tiny_dataset):
        server = serving_stack["server"]
        _, predict, _ = _post_status(
            server.url + "/predict",
            {"features": tiny_dataset.test_features[:2].tolist()},
        )
        _, stats = _get(server.url + "/stats")
        model_stats = stats["models"]["demo"]
        return {
            "predict_response": sorted(predict),
            "stats": sorted(stats),
            "model_stats": sorted(model_stats),
            "scheduler_stats": sorted(model_stats["scheduler"]),
        }

    def test_stats_schema_matches_golden(self, serving_stack, tiny_dataset):
        """Pin the serving API schema (PR 3 golden-gate pattern).

        Regenerate after an intentional change with::

            REPRO_REGEN_GOLDEN=1 python -m pytest \
                tests/test_runtime_serving_v2.py -k schema
        """
        observed = self._schema(serving_stack, tiny_dataset)
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_SCHEMA_PATH.write_text(
                json.dumps(observed, indent=2, sort_keys=True) + "\n"
            )
        assert GOLDEN_SCHEMA_PATH.is_file(), (
            "golden schema missing; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        golden = json.loads(GOLDEN_SCHEMA_PATH.read_text())
        assert observed == golden, (
            "serving API schema drifted from tests/golden/"
            "serving_stats_schema.json; if intentional, regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )

    def test_queue_depth_and_histogram_accounting(self, trained_memhd, tiny_dataset):
        """Batch histogram over known sequential traffic: all singletons."""
        model, _ = trained_memhd
        with ModelServer(
            model, engine="packed", max_batch_size=8, max_wait_ms=0.0, port=0
        ) as server:
            for _ in range(4):
                _post_status(
                    server.url + "/predict",
                    {"features": tiny_dataset.test_features[:3].tolist()},
                )
            stats = _get(server.url + "/stats")[1]
            assert stats["queue_depth"] == 0
            scheduler = stats["models"]["default"]["scheduler"]
            assert scheduler["batches"] == 4
            assert scheduler["queries"] == 12
            assert scheduler["batch_size_histogram"] == {"3": 4}
            assert scheduler["mean_batch_rows"] == pytest.approx(3.0)
