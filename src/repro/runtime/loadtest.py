"""HTTP load generation for the serving daemon (``repro loadtest``).

A serving runtime is only as good as its measured tail latency, so this
module ships the measurement tool next to the server: a stdlib-only
(``urllib`` + threads) load generator that drives any
:class:`repro.runtime.server.ModelServer`-compatible endpoint and reports
the numbers capacity planning actually needs -- achieved QPS and the
p50/p95/p99 latency quantiles, plus per-status error counts.

Two standard modes:

* **closed loop** (default) -- ``concurrency`` workers each keep exactly
  one request in flight, back to back.  Measures the server's saturation
  throughput; latency is response time under full load.
* **open loop** -- request ``k`` is due at ``k / rate`` seconds on a
  shared arrival clock, and ``concurrency`` workers take the arrivals
  round robin.  A worker sends each of its arrivals when it is due, or
  at once if it is late.  Each latency is timed from the actual send, not
  from the due time.  A worker held up by a slow response therefore sends
  its next arrivals late, and that wait is not counted: this loop still
  has coordinated omission.  It shows server-side queueing delay and
  429 shedding under the offered load, but its percentiles understate
  the delay a client on the schedule would see.

Feature payloads are synthesized once from the server's own
``/healthz``/``/manifest`` metadata (``num_features``), so the client
needs no dataset -- pointing ``repro loadtest`` at any live server just
works.  Results come back as a :class:`LoadReport`;
``benchmarks/bench_serving_load.py`` uses the same class in-process to
gate the batched-vs-unbatched speedup.
"""

from __future__ import annotations

import hashlib
import json
import math
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.runtime.pipeline import MIN_MEASURABLE_SECONDS

#: Loop modes accepted by :func:`run_load`.
MODES = ("closed", "open")

#: Per-request socket timeout (seconds).
REQUEST_TIMEOUT_S = 30.0


@dataclass
class LoadReport:
    """Aggregated result of one load-generation run.

    Latencies are wall-clock seconds per request (submit to decoded
    response).  ``errors_by_status`` counts non-200 responses (429/503
    shed work, 4xx/5xx failures); transport-level failures count under
    status ``0``.
    """

    mode: str
    concurrency: int
    batch_size: int
    duration_seconds: float
    requests: int = 0
    queries: int = 0
    errors: int = 0
    errors_by_status: Dict[int, int] = field(default_factory=dict)
    latencies_seconds: List[float] = field(default_factory=list)

    @property
    def successes(self) -> int:
        return self.requests - self.errors

    @property
    def qps(self) -> float:
        """Successfully served queries per wall-clock second.

        The elapsed time is clamped to the same 1 ns floor as
        :class:`repro.runtime.pipeline.PipelineStats`, so a
        sub-clock-resolution window (tiny ``--smoke`` runs) reports a
        huge-but-finite rate instead of ``inf``.
        """
        if self.duration_seconds <= 0:
            return 0.0
        return self.queries / max(self.duration_seconds, MIN_MEASURABLE_SECONDS)

    @property
    def request_rate(self) -> float:
        """Successful requests per wall-clock second (same 1 ns clamp)."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.successes / max(self.duration_seconds, MIN_MEASURABLE_SECONDS)

    def latency_percentile(self, fraction: float) -> float:
        """Nearest-rank latency percentile in seconds (0 when empty)."""
        if not self.latencies_seconds:
            return 0.0
        ordered = sorted(self.latencies_seconds)
        rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
        return ordered[rank]

    def as_dict(self) -> Dict[str, Any]:
        """Flat summary row (the CLI table / benchmark record)."""
        return {
            "mode": self.mode,
            "concurrency": self.concurrency,
            "batch": self.batch_size,
            "duration_s": self.duration_seconds,
            "requests": self.requests,
            "queries": self.queries,
            "errors": self.errors,
            "errors_by_status": {
                str(status): count
                for status, count in sorted(self.errors_by_status.items())
            },
            "qps": self.qps,
            "requests_per_s": self.request_rate,
            "p50_ms": 1000.0 * self.latency_percentile(0.50),
            "p95_ms": 1000.0 * self.latency_percentile(0.95),
            "p99_ms": 1000.0 * self.latency_percentile(0.99),
        }


class _Collector:
    """Thread-safe accumulation of per-request outcomes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.queries = 0
        self.errors = 0
        self.errors_by_status: Dict[int, int] = {}
        self.latencies: List[float] = []

    def success(self, queries: int, seconds: float) -> None:
        with self._lock:
            self.requests += 1
            self.queries += int(queries)
            self.latencies.append(float(seconds))

    def failure(self, status: int) -> None:
        with self._lock:
            self.requests += 1
            self.errors += 1
            self.errors_by_status[int(status)] = (
                self.errors_by_status.get(int(status), 0) + 1
            )


def _get_json(url: str, timeout: float = REQUEST_TIMEOUT_S) -> Dict[str, Any]:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def fetch_server_stats(url: str) -> Dict[str, Any]:
    """``GET /stats`` of a live server, decoded.

    Single-process servers return their own counters; a prefork pool
    (``repro serve --workers N``) returns the cluster-merged view with
    per-worker payloads under ``"workers"`` -- which is how
    ``repro loadtest`` prints per-worker attribution after a run.
    """
    return _get_json(f"{url.rstrip('/')}/stats")


def server_num_features(url: str, model: Optional[str] = None) -> int:
    """Discover the feature width a live server expects.

    Uses ``/models/<model>/manifest`` for a named model, ``/healthz`` for
    the default one.
    """
    if model is not None:
        manifest = _get_json(f"{url}/models/{model}/manifest")
        value = manifest.get("num_features")
    else:
        value = _get_json(f"{url}/healthz").get("num_features")
    if not value:
        raise RuntimeError(
            f"server at {url} does not advertise num_features; pass the "
            "feature width explicitly"
        )
    return int(value)


def synthesize_features(
    num_features: int, batch_size: int, pool: int = 64, seed: int = 0
) -> List[List[List[float]]]:
    """Pre-serialize a pool of random feature batches to send.

    Generating payloads up front keeps numpy work out of the timed loop,
    so measured latency is the server's, not the client's.
    """
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(batch_size, num_features)).round(4).tolist()
        for _ in range(pool)
    ]


def prediction_digest(
    url: str,
    num_features: int,
    batch_size: int = 1,
    count: int = 8,
    model: Optional[str] = None,
    seed: int = 0,
    timeout: float = REQUEST_TIMEOUT_S,
) -> str:
    """Truncated SHA-256 over the labels a server predicts for a fixed pool.

    Sends the first ``count`` payloads of :func:`synthesize_features`
    (same ``seed`` => same payloads on every call and every host) through
    ``POST /predict`` and hashes the returned label lists in order.  Two
    servers hosting bit-identical models therefore produce the same
    digest -- the "bit-exact predictions" check the serving-load sweep
    cell and its differential test share.  Raises on any non-200.
    """
    endpoint = (
        f"{url.rstrip('/')}/models/{urllib.parse.quote(model)}/predict"
        if model is not None
        else f"{url.rstrip('/')}/predict"
    )
    payloads = synthesize_features(num_features, batch_size, pool=count, seed=seed)
    labels: List[List[int]] = []
    for features in payloads:
        request = urllib.request.Request(
            endpoint,
            data=json.dumps({"features": features}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=timeout) as response:
            reply = json.loads(response.read().decode("utf-8"))
        labels.append([int(label) for label in reply["labels"]])
    canonical = json.dumps(labels, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:16]


def stream_feedback(
    url: str,
    features,
    labels,
    batch_size: int = 64,
    model: Optional[str] = None,
    retries: int = 0,
    timeout: float = REQUEST_TIMEOUT_S,
) -> Dict[str, Any]:
    """Stream labelled samples into a server's ``POST /feedback``.

    The client half of the continual-learning loop
    (:mod:`repro.runtime.online`): slices ``features`` / ``labels`` into
    ``batch_size``-row requests and POSTs them in order.  A sample only
    counts as ``acked`` when its batch got a 200 (the server's
    durably-buffered acknowledgement); non-200 responses count under
    their status and transport-level failures (e.g. the connection dying
    into a SIGKILLed prefork worker) under status ``0``.  ``retries``
    re-sends a failed batch -- safe against double-counting worries for
    accuracy (folding a batch twice is idempotent-enough for HDC
    updates) and exactly what a chaos-tolerant client should do, since a
    failed batch was never acknowledged.

    Returns
    -------
    dict
        ``{"requests", "acked", "errors", "errors_by_status"}`` --
        ``acked`` in samples, the rest per request.
    """
    batch = np.asarray(features, dtype=np.float64)
    targets = np.asarray(labels)
    if batch.ndim != 2 or batch.shape[0] != targets.shape[0]:
        raise ValueError("features must be (n, f) with one label per row")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    endpoint = (
        f"{url.rstrip('/')}/models/{urllib.parse.quote(model)}/feedback"
        if model is not None
        else f"{url.rstrip('/')}/feedback"
    )
    requests = acked = errors = 0
    errors_by_status: Dict[int, int] = {}
    for start in range(0, batch.shape[0], batch_size):
        body = json.dumps(
            {
                "features": batch[start : start + batch_size].tolist(),
                "labels": [int(label) for label in targets[start : start + batch_size]],
            }
        ).encode("utf-8")
        for attempt in range(retries + 1):
            request = urllib.request.Request(
                endpoint, data=body, headers={"Content-Type": "application/json"}
            )
            requests += 1
            try:
                with urllib.request.urlopen(request, timeout=timeout) as response:
                    reply = json.loads(response.read().decode("utf-8"))
                acked += int(reply.get("accepted", 0))
                break
            except urllib.error.HTTPError as error:
                status = int(error.code)
                error.read()
            except (urllib.error.URLError, OSError, socket.timeout):
                status = 0
            errors += 1
            errors_by_status[status] = errors_by_status.get(status, 0) + 1
            if attempt < retries:
                time.sleep(0.05 * (attempt + 1))
    return {
        "requests": requests,
        "acked": acked,
        "errors": errors,
        "errors_by_status": errors_by_status,
    }


def run_load(
    url: str,
    num_features: Optional[int] = None,
    model: Optional[str] = None,
    mode: str = "closed",
    concurrency: int = 8,
    duration_seconds: float = 5.0,
    batch_size: int = 1,
    rate: Optional[float] = None,
    deadline_ms: Optional[float] = None,
    seed: int = 0,
    total_requests: Optional[int] = None,
) -> LoadReport:
    """Drive a live server and measure throughput + latency quantiles.

    Parameters
    ----------
    url:
        Server base URL (e.g. ``http://127.0.0.1:8000``).
    num_features:
        Feature width of the payloads; discovered from the server when
        omitted.
    model:
        Optional routing key -- requests go to ``/models/<model>/predict``.
    mode:
        ``"closed"`` (back-to-back per worker) or ``"open"`` (fixed
        arrival schedule of ``rate`` requests/second across workers).
    concurrency:
        Worker thread count (the closed-loop in-flight bound).
    duration_seconds:
        Wall-clock measurement window.
    batch_size:
        Rows per request.
    rate:
        Offered requests/second (open loop only; required there).
    deadline_ms:
        Optional per-request deadline forwarded to the server.
    seed:
        Payload-synthesis seed.
    total_requests:
        When set, fire exactly this many requests (split over the workers
        by arrival index) instead of running for ``duration_seconds`` --
        the deterministic mode serving-load sweep cells use, so request
        and error *counts* are reproducible even though latencies are
        not.  ``duration_seconds`` is ignored in this mode; each request
        is still bounded by the per-request socket timeout.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if concurrency <= 0:
        raise ValueError(f"concurrency must be positive, got {concurrency}")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if total_requests is not None and total_requests <= 0:
        raise ValueError(f"total_requests must be positive, got {total_requests}")
    if duration_seconds <= 0:
        raise ValueError(f"duration_seconds must be positive, got {duration_seconds}")
    if mode == "open":
        if rate is None or rate <= 0:
            raise ValueError("open-loop mode requires a positive rate")
    url = url.rstrip("/")
    if num_features is None:
        num_features = server_num_features(url, model=model)
    payload_pool = synthesize_features(num_features, batch_size, seed=seed)
    bodies = []
    for features in payload_pool:
        body: Dict[str, Any] = {"features": features}
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        bodies.append(json.dumps(body).encode("utf-8"))
    parsed = urllib.parse.urlsplit(url)
    if parsed.scheme != "http" or not parsed.hostname:
        raise ValueError(f"expected an http://host:port URL, got {url!r}")
    netloc = (parsed.hostname, parsed.port or 80)
    target = f"/models/{model}/predict" if model is not None else "/predict"
    # Pre-serialize the *entire* HTTP request (headers + JSON body) per
    # payload, the way serious load generators do: the timed loop is one
    # sendall() plus a minimal response read, so the measurement bills
    # the server, not a client-side HTTP stack.
    requests_bytes = [
        (
            f"POST {target} HTTP/1.1\r\n"
            f"Host: {parsed.hostname}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        + body
        for body in bodies
    ]

    collector = _Collector()
    start_barrier = threading.Barrier(concurrency + 1)
    # Open loop: one shared arrival counter; worker i serves arrivals
    # i, i+concurrency, i+2*concurrency, ... at their scheduled times.
    interval = (1.0 / rate) if mode == "open" and rate else 0.0

    class _Client:
        """One worker's persistent raw keep-alive connection.

        Reconnects transparently when the server closes the socket, so
        measured latency reflects request service, not per-request TCP
        handshakes and server thread spawns.
        """

        def __init__(self) -> None:
            self.sock: Optional[socket.socket] = None
            self.buffer = b""

        def _connect(self) -> socket.socket:
            if self.sock is None:
                self.sock = socket.create_connection(netloc, timeout=REQUEST_TIMEOUT_S)
                # Request writes must not queue behind delayed ACKs.
                self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.buffer = b""
            return self.sock

        def drop(self) -> None:
            if self.sock is not None:
                self.sock.close()
                self.sock = None
            self.buffer = b""

        def _read_response(self, sock: socket.socket) -> int:
            """Read one response off the wire; returns the status code.

            Minimal HTTP/1.1 parsing: status line + Content-Length, then
            drain exactly that many body bytes (the server always sends
            an exact Content-Length; responses are never chunked).
            """
            while b"\r\n\r\n" not in self.buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed mid-response")
                self.buffer += chunk
            head, _, rest = self.buffer.partition(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value.strip())
                    break
            while len(rest) < length:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed mid-body")
                rest += chunk
            self.buffer = rest[length:]
            return status

        def fire(self, request: bytes) -> None:
            started = time.perf_counter()
            try:
                sock = self._connect()
                sock.sendall(request)
                status = self._read_response(sock)
                if status == 200:
                    collector.success(batch_size, time.perf_counter() - started)
                else:
                    collector.failure(status)
            except (OSError, TimeoutError, ValueError, IndexError):
                collector.failure(0)
                self.drop()

    def closed_worker(index: int) -> None:
        client = _Client()
        start_barrier.wait()
        try:
            step = index
            while True:
                if total_requests is not None:
                    if step >= total_requests:
                        return
                elif time.monotonic() >= stop_monotonic:
                    return
                client.fire(requests_bytes[step % len(requests_bytes)])
                step += concurrency
        finally:
            client.drop()

    def open_worker(index: int) -> None:
        client = _Client()
        start_barrier.wait()
        try:
            arrival = index
            while True:
                if total_requests is not None and arrival >= total_requests:
                    return
                due = open_start + arrival * interval
                now = time.monotonic()
                if total_requests is None and due >= stop_monotonic:
                    return
                if due > now:
                    time.sleep(due - now)
                client.fire(requests_bytes[arrival % len(requests_bytes)])
                arrival += concurrency
        finally:
            client.drop()

    worker = closed_worker if mode == "closed" else open_worker
    threads = [
        threading.Thread(target=worker, args=(index,), daemon=True)
        for index in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    # The clocks are set immediately before the barrier releases the
    # workers, so slow thread startup never eats into the window.
    open_start = time.monotonic()
    stop_monotonic = open_start + duration_seconds
    measure_start = time.perf_counter()
    start_barrier.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - measure_start

    return LoadReport(
        mode=mode,
        concurrency=concurrency,
        batch_size=batch_size,
        duration_seconds=elapsed,
        requests=collector.requests,
        queries=collector.queries,
        errors=collector.errors,
        errors_by_status=dict(collector.errors_by_status),
        latencies_seconds=collector.latencies,
    )
