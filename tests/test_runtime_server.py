"""End-to-end smoke tests for the serve daemon (repro.runtime.server)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.io.checkpoint import save_checkpoint, read_manifest
from repro.runtime.server import ModelServer, ServerStats, _RequestHandler


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _post(url, payload, raw: bytes = None):
    body = raw if raw is not None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


@pytest.fixture(scope="module")
def server(trained_memhd, tmp_path_factory):
    """A live daemon on an ephemeral port, serving a checkpointed model."""
    model, _ = trained_memhd
    path = tmp_path_factory.mktemp("serve") / "model.npz"
    save_checkpoint(model, path, metrics={"note": "server-smoke"})
    daemon = ModelServer(
        model,
        engine="packed",
        manifest=read_manifest(path),
        port=0,
    )
    with daemon:
        yield daemon


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = _get(server.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model"] == "MEMHD"
        assert payload["engine"] == "packed"
        assert payload["uptime_s"] >= 0.0

    def test_predict_matches_in_process_model(self, server, tiny_dataset):
        features = tiny_dataset.test_features[:40]
        status, payload = _post(
            server.url + "/predict", {"features": features.tolist()}
        )
        assert status == 200
        assert payload["count"] == 40
        expected = server.model.predict(features, engine="packed")
        assert payload["labels"] == [int(label) for label in expected]
        assert payload["elapsed_ms"] >= 0.0

    def test_predict_single_vector(self, server, tiny_dataset):
        vector = tiny_dataset.test_features[0]
        status, payload = _post(server.url + "/predict", {"features": vector.tolist()})
        assert status == 200
        assert payload["count"] == 1

    def test_stats_accumulate(self, server, tiny_dataset):
        before = _get(server.url + "/stats")[1]
        _post(
            server.url + "/predict",
            {"features": tiny_dataset.test_features[:8].tolist()},
        )
        after = _get(server.url + "/stats")[1]
        assert after["queries"] >= before["queries"] + 8
        assert after["requests"] > before["requests"]
        assert after["queries_per_second"] >= 0.0

    def test_manifest_endpoint(self, server):
        status, payload = _get(server.url + "/manifest")
        assert status == 200
        assert payload["model_class"] == "MEMHDModel"
        assert payload["metrics"] == {"note": "server-smoke"}


class TestErrorHandling:
    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_get_predict_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/predict")
        assert excinfo.value.code == 405

    def test_post_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/other", {"features": [[0.0]]})
        assert excinfo.value.code == 404

    def test_invalid_json_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/predict", None, raw=b"not json at all")
        assert excinfo.value.code == 400

    def test_missing_features_key_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/predict", {"rows": [[0.0]]})
        assert excinfo.value.code == 400

    def test_ragged_features_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/predict", {"features": [[0.0, 1.0], [0.0]]})
        assert excinfo.value.code == 400

    def test_empty_batch_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/predict", {"features": []})
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_features_400(self, server, trained_memhd, bad):
        """Bare NaN/Infinity parse as JSON but must not get a 200."""
        model, _ = trained_memhd
        row = [0.5] * model.num_features
        row[-1] = bad
        body = json.dumps({"features": [[0.5] * model.num_features, row]})
        assert "NaN" in body or "Infinity" in body
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/predict", None, raw=body.encode("utf-8"))
        assert excinfo.value.code == 400
        assert "finite" in json.loads(excinfo.value.read())["error"]

    def test_negative_content_length_400(self, server):
        """A negative length must not hang the handler in read-to-EOF."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.putrequest("POST", "/predict")
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_oversized_content_length_413(self, server):
        import http.client

        from repro.runtime.server import MAX_REQUEST_BYTES

        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.putrequest("POST", "/predict")
            connection.putheader("Content-Length", str(MAX_REQUEST_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
        finally:
            connection.close()

    @pytest.mark.parametrize("framing", ["chunked", "unframed"])
    def test_post_without_content_length_411_and_close(
        self, server, trained_memhd, framing
    ):
        """A body the handler cannot measure must not desync keep-alive.

        The pipelined ``GET /healthz`` must never be answered: the server
        refuses the POST with one JSON 411 and drops the connection, so
        leftover chunk bytes are never parsed as a request line.
        """
        import socket

        model, _ = trained_memhd
        body = json.dumps({"features": [[0.5] * model.num_features]})
        if framing == "chunked":
            headers = "Transfer-Encoding: chunked\r\n"
            payload = f"{len(body):x}\r\n{body}\r\n0\r\n\r\n"
        else:
            headers, payload = "", ""
        request = (
            f"POST /predict HTTP/1.1\r\nHost: test\r\n{headers}"
            "Content-Type: application/json\r\n\r\n"
            f"{payload}GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
        )
        received = b""
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(request.encode("ascii"))
            try:
                while chunk := sock.recv(65536):
                    received += chunk
            except TimeoutError:
                pass  # the connection stayed open: asserted below
        head, _, rest = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 411 ")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(rest)["error"]
        assert received.count(b"HTTP/1.1 ") == 1

    def test_errors_counted_in_stats(self, server):
        before = _get(server.url + "/stats")[1]["errors"]
        with pytest.raises(urllib.error.HTTPError):
            _get(server.url + "/nope")
        after = _get(server.url + "/stats")[1]["errors"]
        assert after == before + 1


class TestLifecycle:
    def test_float_engine_server(self, trained_memhd, tiny_dataset):
        model, _ = trained_memhd
        with ModelServer(model, engine="float", port=0) as daemon:
            features = tiny_dataset.test_features[:10]
            _, payload = _post(daemon.url + "/predict", {"features": features.tolist()})
            assert payload["labels"] == [
                int(label) for label in model.predict(features, engine="float")
            ]

    def test_shutdown_is_idempotent(self, trained_memhd):
        model, _ = trained_memhd
        daemon = ModelServer(model, port=0).start()
        daemon.shutdown()
        daemon.shutdown()

    def test_start_is_idempotent(self, trained_memhd):
        model, _ = trained_memhd
        daemon = ModelServer(model, port=0)
        try:
            assert daemon.start() is daemon.start()
        finally:
            daemon.shutdown()

    def test_stats_math(self):
        stats = ServerStats()
        stats.record_predict(10, 0.5)
        stats.record_predict(10, 0.5)
        stats.record_error()
        snapshot = stats.as_dict()
        assert snapshot["requests"] == 3
        assert snapshot["queries"] == 20
        assert snapshot["errors"] == 1
        assert snapshot["queries_per_second"] == pytest.approx(20.0)

    def test_predict_payload_rejects_bad_shapes(self, trained_memhd):
        model, _ = trained_memhd
        daemon = ModelServer(model, port=0)
        try:
            with pytest.raises(ValueError):
                daemon.predict_payload([[[1.0]]])
            with pytest.raises(ValueError):
                daemon.predict_payload("nonsense")
            result = daemon.predict_payload(np.zeros((2, model.num_features)).tolist())
            assert result["count"] == 2
        finally:
            daemon.shutdown()


class _HeldFlush:
    """Response writer whose flush blocks until the test releases it."""

    def __init__(self, inner, entered: threading.Event, release: threading.Event):
        self._inner = inner
        self._entered = entered
        self._release = release

    def write(self, data):
        return self._inner.write(data)

    def flush(self):
        self._entered.set()
        assert self._release.wait(timeout=30.0), "flush never released"
        self._inner.flush()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestDrainAccounting:
    def test_request_counted_until_response_flushed(
        self, trained_memhd, tiny_dataset, monkeypatch
    ):
        """A response still in the handler's write buffer is in flight.

        The handler buffers its response (``wbufsize = -1``).  If the
        request left the in-flight count before that buffer was flushed,
        ``drain`` could see the server idle and the worker exit with the
        answer unsent.
        """
        model, _ = trained_memhd
        entered, release = threading.Event(), threading.Event()
        setup = _RequestHandler.setup

        def held_setup(handler):
            setup(handler)
            handler.wfile = _HeldFlush(handler.wfile, entered, release)

        monkeypatch.setattr(_RequestHandler, "setup", held_setup)
        features = tiny_dataset.test_features[:3]
        results = []
        daemon = ModelServer(model, engine="packed", port=0).start()
        client = threading.Thread(
            target=lambda: results.append(
                _post(daemon.url + "/predict", {"features": features.tolist()})
            )
        )
        try:
            client.start()
            assert entered.wait(timeout=30.0), "response was never flushed"
            assert daemon.wait_idle(0.2) is False
            release.set()
            client.join(timeout=30.0)
            assert daemon.wait_idle(5.0) is True
        finally:
            release.set()
            daemon.shutdown()
        ((status, payload),) = results
        assert status == 200
        assert payload["labels"] == [
            int(label) for label in model.predict(features, engine="packed")
        ]
