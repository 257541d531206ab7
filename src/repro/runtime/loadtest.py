"""HTTP load generation for the serving daemon (``repro loadtest``).

A serving runtime is only as good as its measured tail latency, so this
module ships the measurement tool next to the server: a stdlib-only
(sockets + threads) load generator that drives any
:class:`repro.runtime.server.ModelServer`-compatible endpoint and reports
the numbers capacity planning actually needs -- achieved QPS and the
p50/p95/p99 latency quantiles, plus per-status error counts.

One worker loop serves both standard modes.  The calling thread is the
only arrival source: it queues arrival indices, and each of
``concurrency`` workers takes the next one, sends it on its own
keep-alive connection and writes the outcome to that arrival's slot.

* **closed loop** (default) -- arrivals are queued as fast as workers
  take them, so each worker keeps one request in flight, back to back.
  Measures the server's saturation throughput; latency runs from the
  send.
* **open loop** -- arrival ``k`` is queued at its due time
  ``t0 + k / rate`` whatever happened to earlier arrivals, and any idle
  worker takes it.  Latency runs from the due time, not from the send,
  so an arrival that waited behind a slow response shows that wait (no
  coordinated omission): the percentiles are the delay a client on the
  schedule would see, server-side queueing and 429 shedding included.

Feature payloads are synthesized once from the server's own
``/healthz``/``/manifest`` metadata (``num_features``), so the client
needs no dataset -- pointing ``repro loadtest`` at any live server just
works.  Results come back as a :class:`LoadReport`;
``benchmarks/bench_serving_load.py`` uses the same class in-process to
gate the batched-vs-unbatched speedup.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import queue
import socket
import threading
import time
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote, urlsplit

import numpy as np

from repro.runtime.pipeline import MIN_MEASURABLE_SECONDS

#: Loop modes accepted by :func:`run_load`.
MODES = ("closed", "open")

#: Per-request socket timeout (seconds).
REQUEST_TIMEOUT_S = 30.0


@dataclass
class LoadReport:
    """Aggregated result of one load-generation run.

    Latencies are wall-clock seconds per successful request, up to its
    fully read response: from the due time in open mode (waiting for a
    free worker counts), from the send in closed mode.
    ``errors_by_status`` counts non-200 responses (429/503 shed work,
    4xx/5xx failures); transport-level failures count under status ``0``.
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
        by_status = sorted(self.errors_by_status.items())
        return {
            "mode": self.mode,
            "concurrency": self.concurrency,
            "batch": self.batch_size,
            "duration_s": self.duration_seconds,
            "requests": self.requests,
            "queries": self.queries,
            "errors": self.errors,
            "errors_by_status": {str(status): count for status, count in by_status},
            "qps": self.qps,
            "requests_per_s": self.request_rate,
            "p50_ms": 1000.0 * self.latency_percentile(0.50),
            "p95_ms": 1000.0 * self.latency_percentile(0.95),
            "p99_ms": 1000.0 * self.latency_percentile(0.99),
        }


def _path(verb: str, model: Optional[str] = None) -> str:
    """``/<verb>`` on the default model, ``/models/<model>/<verb>`` on a named one."""
    return f"/{verb}" if model is None else f"/models/{quote(model, safe='')}/{verb}"


class _Connection:
    """One raw keep-alive HTTP/1.1 client connection.

    Requests are serialized up front (:meth:`request`), so a timed send
    is one ``sendall`` plus a minimal response read: the measurement
    bills the server, not a client-side HTTP stack.  The socket opens on
    first use and is dropped after a transport failure or a response
    that says ``Connection: close`` (a draining server); the next send
    reconnects.
    """

    def __init__(self, url: str, timeout: float = REQUEST_TIMEOUT_S) -> None:
        parsed = urlsplit(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(f"expected an http://host:port URL, got {url!r}")
        self.address = (parsed.hostname, parsed.port or 80)
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None

    def request(self, path: str, payload: Any = None) -> bytes:
        """The whole request as bytes: a GET, or a POST of ``payload`` as JSON."""
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{'POST' if body else 'GET'} {path} HTTP/1.1\r\nHost: {self.address[0]}"
            f"\r\nContent-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        return head.encode("ascii") + body

    def send(self, request: bytes) -> Tuple[int, bytes]:
        """Send one serialized request; ``(status, body)`` of the response.

        Minimal HTTP/1.1 parsing: status line and headers, then exactly
        Content-Length body bytes (the server never chunks; requests are
        not pipelined, so nothing follows the body).  A transport failure
        or a malformed response drops the socket and comes back as status
        ``0`` with the error text as its body.
        """
        try:
            if self.sock is None:
                self.sock = socket.create_connection(self.address, self.timeout)
                # Request writes must not queue behind delayed ACKs.
                self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock.sendall(request)
            data = found = b""
            while not found or len(body) < int(fields.get(b"content-length", 0)):
                if not (chunk := self.sock.recv(65536)):
                    raise ConnectionError("server closed the connection mid-response")
                data += chunk
                head, found, body = data.partition(b"\r\n\r\n")
                lines = head.lower().split(b"\r\n")
                fields = dict(line.split(b":", 1) for line in lines[1:] if b":" in line)
            status = int(lines[0][9:12])
        except (OSError, ValueError) as error:
            status, body, fields = 0, str(error).encode(), {b"connection": b"close"}
        if fields.get(b"connection", b"").strip() == b"close":
            self.close()
        return status, body

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def _call(url: str, path: str, timeout: float, payload: Any = None) -> Dict[str, Any]:
    """One request on its own connection, decoded; ``OSError`` unless 200."""
    with closing(_Connection(url, timeout)) as connection:
        status, reply = connection.send(connection.request(path, payload))
    if status != 200:
        raise OSError(f"{path} answered status {status}: {reply[:200]!r}")
    return json.loads(reply)


def fetch_server_stats(url: str) -> Dict[str, Any]:
    """``GET /stats`` of a live server, decoded.

    Single-process servers return their own counters; a prefork pool
    (``repro serve --workers N``) returns the cluster-merged view with
    per-worker payloads under ``"workers"`` -- which is how
    ``repro loadtest`` prints per-worker attribution after a run.
    """
    return _call(url, "/stats", REQUEST_TIMEOUT_S)


def server_num_features(url: str, model: Optional[str] = None) -> int:
    """Discover the feature width a live server expects.

    Uses ``/models/<model>/manifest`` for a named model, ``/healthz`` for
    the default one.
    """
    verb = "healthz" if model is None else "manifest"
    value = _call(url, _path(verb, model), REQUEST_TIMEOUT_S).get("num_features")
    if not value:
        raise RuntimeError(f"{url} does not advertise num_features; pass it explicitly")
    return int(value)


def synthesize_features(
    num_features: int, batch_size: int, pool: int = 64, seed: int = 0
) -> List[List[List[float]]]:
    """Pre-serialize a pool of random feature batches to send.

    Generating payloads up front keeps numpy work out of the timed loop,
    so measured latency is the server's, not the client's.
    """
    rng = np.random.default_rng(seed)
    return rng.normal(size=(pool, batch_size, num_features)).round(4).tolist()


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
    path = _path("predict", model)
    payloads = synthesize_features(num_features, batch_size, pool=count, seed=seed)
    replies = [_call(url, path, timeout, {"features": rows}) for rows in payloads]
    labels = [[int(label) for label in reply["labels"]] for reply in replies]
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
    ``batch_size``-row requests and POSTs them in order over one
    keep-alive connection.  A sample only counts as ``acked`` when its
    batch got a 200 (the server's durably-buffered acknowledgement);
    non-200 responses count under their status and transport-level
    failures (e.g. the connection dying into a SIGKILLed prefork worker)
    under status ``0``.  ``retries`` re-sends a failed batch -- safe
    against double-counting worries for accuracy (folding a batch twice
    is idempotent-enough for HDC updates) and exactly what a
    chaos-tolerant client should do, since a failed batch was never
    acknowledged.

    Returns
    -------
    dict
        ``{"requests", "acked", "errors", "errors_by_status"}`` --
        ``acked`` in samples, the rest per request.
    """
    batch = np.asarray(features, dtype=np.float64)
    targets = np.asarray(labels).astype(int)
    if batch.ndim != 2 or batch.shape[0] != targets.shape[0]:
        raise ValueError("features must be (n, f) with one label per row")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    requests = acked = 0
    failed: Dict[int, int] = {}
    with closing(_Connection(url, timeout)) as connection:
        for start in range(0, batch.shape[0], batch_size):
            rows = slice(start, start + batch_size)
            body = {"features": batch[rows].tolist(), "labels": targets[rows].tolist()}
            request = connection.request(_path("feedback", model), body)
            for attempt in range(retries + 1):
                requests += 1
                status, reply = connection.send(request)
                if status == 200:
                    acked += int(json.loads(reply).get("accepted", 0))
                    break
                failed[status] = failed.get(status, 0) + 1
                if attempt < retries:
                    time.sleep(0.05 * (attempt + 1))
    errors = sum(failed.values())
    return dict(requests=requests, acked=acked, errors=errors, errors_by_status=failed)


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
        Worker thread count: the bound on requests in flight.
    duration_seconds:
        Wall-clock window: arrivals are due (open) or queued (closed)
        only inside it; closed mode still sends the at most
        ``concurrency`` arrivals queued when it ends.
    batch_size:
        Rows per request.
    rate:
        Offered requests/second (open loop only; required there).
    deadline_ms:
        Optional per-request deadline forwarded to the server.
    seed:
        Payload-synthesis seed.
    total_requests:
        When set, fire exactly this many requests (arrival indices
        ``0 .. total_requests - 1``) instead of running for
        ``duration_seconds`` -- the deterministic mode serving-load sweep
        cells use, so request and error *counts* are reproducible even
        though latencies are not.  ``duration_seconds`` is ignored in
        this mode; each request is still bounded by the per-request
        socket timeout.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    for name, value in (("concurrency", concurrency), ("batch_size", batch_size)):
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    if total_requests is not None and total_requests <= 0:
        raise ValueError(f"total_requests must be positive, got {total_requests}")
    if duration_seconds <= 0:
        raise ValueError(f"duration_seconds must be positive, got {duration_seconds}")
    if mode == "open" and (rate is None or rate <= 0):
        raise ValueError("open-loop mode requires a positive rate")
    # Serializes the requests, and rejects a bad URL before any worker starts.
    serializer = _Connection(url)
    if num_features is None:
        num_features = server_num_features(url, model=model)
    extra = {} if deadline_ms is None else {"deadline_ms": deadline_ms}
    requests = [
        serializer.request(_path("predict", model), {"features": rows, **extra})
        for rows in synthesize_features(num_features, batch_size, seed=seed)
    ]

    # The calling thread is the one arrival source.  Closed mode keeps at
    # most one arrival per worker queued, so the window's end stops the
    # sends within one round of requests.
    arrivals: queue.Queue = queue.Queue(0 if mode == "open" else concurrency)
    # Arrival index -> (status, latency seconds), one writer per slot.
    slots: Dict[int, Tuple[int, float]] = {}

    def worker() -> None:
        with closing(_Connection(url)) as connection:
            for index, due in iter(arrivals.get, None):
                started = time.perf_counter() if due is None else due
                status, _ = connection.send(requests[index % len(requests)])
                slots[index] = (status, time.perf_counter() - started)
        arrivals.put(None)  # pass the stop marker on to the next worker

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(concurrency)]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    for index in itertools.count() if total_requests is None else range(total_requests):
        due = start + index / rate if mode == "open" else time.perf_counter()
        if total_requests is None and due - start >= duration_seconds:
            break
        if due > (now := time.perf_counter()):
            time.sleep(due - now)
        arrivals.put((index, due if mode == "open" else None))
    arrivals.put(None)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    report = LoadReport(mode, concurrency, batch_size, elapsed, requests=len(slots))
    report.latencies_seconds = [t for s, t in slots.values() if s == 200]
    report.errors_by_status = dict(Counter(s for s, _ in slots.values() if s != 200))
    report.errors = report.requests - len(report.latencies_seconds)
    report.queries = batch_size * report.successes
    return report
