"""The ``repro loadtest`` generator against stub servers.

Stubs answer every GET, ``/predict`` and ``/feedback`` with fixed JSON
(404 for a model named ``ghost``), so each test
isolates one client behaviour:

* open-loop latency runs from the due time, so a stalled request shows
  in p99 through the arrivals queued behind it;
* a ``Connection: close`` response (what a draining ``ModelServer``
  sends) makes the client reconnect instead of failing the next request;
* every ``/models/<name>/<verb>`` path is URL-quoted.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.runtime.loadtest import (
    MODES,
    fetch_server_stats,
    prediction_digest,
    run_load,
    server_num_features,
    stream_feedback,
)

NUM_FEATURES = 3

#: Seconds the stalling stub holds its one slow request.
STALL_S = 0.5


class _StubHandler(BaseHTTPRequestHandler):
    # Keep-alive, and each response sent as one segment (ModelServer's
    # settings): an unbuffered writer would stall every response ~40 ms
    # on delayed ACKs.
    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, payload, status: int = 200) -> None:
        stub = self.server
        stub.paths.append(self.path)
        if stub.close_every_response:
            # The draining ModelServer's answer: serve, then end the
            # keep-alive connection.
            self.close_connection = True
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if "ghost" in self.path:
            self._reply({"error": "unknown model"}, status=404)
        else:
            self._reply({"num_features": NUM_FEATURES, "queries": 0})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        stub = self.server
        with stub.lock:
            stub.posts += 1
            stall = stub.posts == stub.stall_post
        if stall:
            time.sleep(STALL_S)
        rows = len(request["features"])
        if "labels" in request:
            self._reply({"accepted": rows})
        else:
            self._reply({"labels": [0] * rows})


@pytest.fixture
def stub():
    """Start a stub server; yields a factory taking its behaviour knobs."""
    servers = []

    def start(stall_post: int = 0, close_every_response: bool = False):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        server.daemon_threads = True
        server.lock = threading.Lock()
        server.posts = 0
        server.paths = []
        server.stall_post = stall_post
        server.close_every_response = close_every_response
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server, f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def test_open_loop_p99_counts_the_wait_behind_a_stall(stub):
    """Arrivals queued behind a 0.5 s stall are late, and p99 says so."""
    _, url = stub(stall_post=10)
    report = run_load(
        url, mode="open", rate=100.0, concurrency=1, total_requests=200
    )
    assert report.requests == 200 and report.errors == 0
    # ~50 arrivals were due while the stalled request held the only
    # worker; timed from their due times, the top percent waited >= 0.25 s.
    assert report.latency_percentile(0.99) >= STALL_S / 2


def test_closed_loop_times_from_the_send(stub):
    """Closed loop has no schedule: only the stalled request is slow."""
    _, url = stub(stall_post=10)
    report = run_load(url, mode="closed", concurrency=1, total_requests=50)
    assert report.requests == 50 and report.errors == 0
    latencies = sorted(report.latencies_seconds)
    assert latencies[-1] >= STALL_S
    assert latencies[-2] < STALL_S / 2


@pytest.mark.parametrize("mode", MODES)
def test_every_arrival_lands_in_its_own_slot(stub, mode):
    """More workers than cores and a tiny switch interval lose no result."""
    _, url = stub()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = run_load(
            url, mode=mode, rate=2000.0, concurrency=8, batch_size=2, total_requests=400
        )
    finally:
        sys.setswitchinterval(interval)
    assert report.errors == 0, report.errors_by_status
    assert report.requests == len(report.latencies_seconds) == 400
    assert report.queries == 800


@pytest.mark.parametrize("mode", MODES)
def test_connection_close_responses_are_honoured(stub, mode):
    """A server that closes after every response costs reconnects, not errors."""
    _, url = stub(close_every_response=True)
    report = run_load(
        url, mode=mode, rate=200.0, concurrency=1, total_requests=20
    )
    assert report.errors == 0, report.errors_by_status
    assert report.requests == 20 and report.queries == 20


def test_stream_feedback_and_digest_survive_connection_close(stub):
    _, url = stub(close_every_response=True)
    result = stream_feedback(url, [[0.0] * NUM_FEATURES] * 10, [1] * 10, batch_size=3)
    assert result == {"requests": 4, "acked": 10, "errors": 0, "errors_by_status": {}}
    assert len(prediction_digest(url, NUM_FEATURES, count=3)) == 16


def test_every_model_path_is_quoted(stub):
    server, url = stub()
    model = "a b/c"
    assert server_num_features(url, model=model) == NUM_FEATURES
    run_load(url, model=model, concurrency=1, total_requests=1)
    prediction_digest(url, NUM_FEATURES, count=1, model=model)
    stream_feedback(url, [[0.0] * NUM_FEATURES], [0], model=model)
    assert fetch_server_stats(url) == {"num_features": NUM_FEATURES, "queries": 0}
    assert server.paths == [
        "/models/a%20b%2Fc/manifest",
        "/models/a%20b%2Fc/manifest",
        "/models/a%20b%2Fc/predict",
        "/models/a%20b%2Fc/predict",
        "/models/a%20b%2Fc/feedback",
        "/stats",
    ]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"mode": "bursty"}, "mode must be one of"),
        ({"concurrency": 0}, "concurrency must be positive"),
        ({"batch_size": 0}, "batch_size must be positive"),
        ({"total_requests": 0}, "total_requests must be positive"),
        ({"duration_seconds": 0}, "duration_seconds must be positive"),
        ({"mode": "open"}, "requires a positive rate"),
    ],
)
def test_invalid_arguments_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_load("http://127.0.0.1:1", num_features=NUM_FEATURES, **kwargs)


def test_unusable_server_answers_raise(stub):
    _, url = stub()
    with pytest.raises(ValueError, match="http://host:port"):
        run_load(url.replace("http", "https"), num_features=NUM_FEATURES)
    with pytest.raises(OSError):
        server_num_features("http://127.0.0.1:1")
    with pytest.raises(OSError, match="status 404"):
        server_num_features(url, model="ghost")
