"""Multi-model micro-batching serving daemon (``repro serve``, runtime v2).

The PR 2 daemon kept one warm model behind a threaded HTTP loop and ran
one unbatched ``pipeline.predict`` per request.  Runtime v2 keeps the
stdlib-only transport but rebuilds everything behind it around two new
pieces:

* :class:`repro.runtime.pool.ModelPool` -- any number of
  registry-addressed models served concurrently, routed by URL path
  (``POST /models/<name>/predict``) or JSON ``model`` field, each
  hot-swappable via ``POST /reload`` with zero downtime and no torn
  responses;
* :class:`repro.runtime.scheduler.BatchScheduler` -- requests that queue
  while a batch is running are coalesced into the next micro-batch (up
  to ``max_batch_size`` rows) and served by **one** pipeline call, with
  results fanned back out per request.  An idle server dispatches a lone
  request at once; ``max_wait_ms > 0`` opts into holding it open for
  stragglers.  Batching never changes predictions (row-wise
  independence, pinned by the tests).

Admission control maps scheduler failures to HTTP status codes:

=====================================  ======  =========================
Condition                              Status  Notes
=====================================  ======  =========================
unknown model key                      404     lists the served keys
bounded queue full                     429     ``Retry-After`` header
request deadline lapsed while queued   503     set ``deadline_ms`` in body
scheduler closed / dispatch timeout    503     server shutting down
malformed body / features / reload     400
=====================================  ======  =========================

Endpoints (all JSON):

``GET /healthz``
    Liveness: default model + engine, per-model routing table, uptime.
``GET /stats``
    Server-level counters (errors broken down by status; error responses
    never contribute to ``queries_per_second``), total queue depth, and
    per-model counters including the scheduler's batch-size histogram.
    Under ``repro serve --workers N`` this is the **cluster** view: the
    worker forwards to the parent supervisor, which merges every worker's
    local counters and nests them under a ``workers`` key (see
    :mod:`repro.runtime.workers`).
``GET /stats/local``
    Always this process's own counters, never aggregated -- the payload
    ``GET /stats`` returns in single-process mode.
``GET /manifest`` / ``GET /models/<name>/manifest``
    The checkpoint manifest of the default / named model.
``GET /models``
    The routing table (one row per served model version).
``POST /predict`` / ``POST /models/<name>/predict``
    Body ``{"features": [[...], ...]}`` plus optional ``"model"`` and
    ``"deadline_ms"`` fields; responds with labels, count, timing and the
    exact model version that served the request.
``POST /reload``
    Body ``{"model": name?, "spec": "name[:tag]"?}``; atomically hot-swaps
    one model from the artifact registry.
``POST /feedback`` / ``POST /models/<name>/feedback``
    Body ``{"features": [[...], ...], "labels": [...]}`` -- labelled
    ground truth for the continual-learning loop (``repro serve
    --online``; see :mod:`repro.runtime.online`).  The 200 ack means the
    batch is durably buffered for the shadow trainer; a full buffer sheds
    load with 429 + ``Retry-After``, and servers without ``--online``
    answer 503.  Under prefork, workers forward to the supervisor (which
    owns the single learner) before acknowledging.

Typical single-model use (unchanged from PR 2)::

    server = ModelServer(model, engine="packed", port=0)
    server.start()
    ... requests against server.url ...
    server.shutdown()

Multi-model use (what ``repro serve --models a b:v3`` does)::

    ModelServer(models=["a", "b:v3"], registry=registry, port=8000).serve_forever()
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.online import (
    FeedbackError,
    OnlineConfig,
    OnlineLearner,
    feedback_error_status,
)
from repro.runtime.pool import (
    IN_PROCESS_SPEC,
    ModelPool,
    ModelStats,
    PoolError,
    ServedModel,
    UnknownModelError,
)
from repro.runtime.scheduler import (
    DeadlineExceededError,
    QueueFullError,
    SchedulerClosedError,
)

#: Largest accepted ``/predict`` request body.  Generous for feature
#: batches (a 1024 x 784 float batch serializes to ~20 MB of JSON) while
#: bounding what one request can make a handler thread buffer.
MAX_REQUEST_BYTES = 256 * 1024 * 1024

#: Upper bound on how long a handler thread waits for its future before
#: giving up with a 503; keeps a wedged dispatcher from hanging clients
#: (and the test suite) forever.
DISPATCH_TIMEOUT_S = 120.0

#: How long a graceful drain waits for in-flight requests (``repro serve
#: --drain-timeout``, :class:`~repro.runtime.workers.WorkerSupervisor`).
DRAIN_TIMEOUT_S = 30.0


class ServerStats(ModelStats):
    """Server-level counters exposed on ``GET /stats``.

    Extends the per-model :class:`~repro.runtime.pool.ModelStats` with
    uptime.  Error responses are counted per status code and contribute
    neither queries nor predict seconds, so ``queries_per_second`` always
    measures successfully served work -- the PR 2 stats let an error-heavy
    workload report the same throughput as a healthy one, which the
    schema regression test now pins against.
    """

    def __init__(self) -> None:
        super().__init__()
        self.started_unix = time.time()

    def as_dict(self) -> Dict[str, Any]:
        payload = super().as_dict()
        payload["uptime_s"] = time.time() - self.started_unix
        return payload


class ServerError(Exception):
    """A request failed with a definite HTTP status (raised by the service
    layer, mapped to a response by the handler)."""

    def __init__(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.headers = dict(headers or {})


class _ServingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for many concurrent keep-alive clients.

    The stdlib default listen backlog of 5 overflows the accept queue the
    moment a few dozen loadtest workers connect at once, surfacing as
    ~1 s SYN-retransmit latency spikes and reset connections; a deeper
    backlog absorbs the connection storm.
    """

    daemon_threads = True
    request_queue_size = 128


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning :class:`ModelServer`."""

    # HTTP/1.1 enables keep-alive: one handler thread per *connection*
    # instead of per request, so a closed-loop client pays connection
    # setup (TCP handshake + server thread spawn) once, not per query.
    # Safe because every response carries an exact Content-Length.
    protocol_version = "HTTP/1.1"

    # The stdlib handler defaults to an unbuffered writer, turning the
    # status line and every header into its own send() syscall and tiny
    # packet; with Nagle on those interact with the peer's delayed ACK
    # into ~40 ms response stalls on keep-alive connections.  A buffered
    # writer (flushed once per response by handle_one_request) plus
    # TCP_NODELAY sends each response as one segment immediately.
    wbufsize = -1
    disable_nagle_algorithm = True

    # Keep per-request chatter out of stderr; stats carry the signal.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def _service(self) -> "ModelServer":
        return self.server.service  # type: ignore[attr-defined]

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if self._service.draining:
            # A draining worker answers the in-flight request, then ends
            # the keep-alive connection so the client reconnects (and the
            # kernel routes it to a live worker).
            self.close_connection = True
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Error paths that leave the request body unread set
            # close_connection; advertise it so clients don't reuse a
            # connection the server is about to drop.
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _fail(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._service.stats.record_error(status)
        self._send_json(status, {"error": message}, headers=headers)

    @staticmethod
    def _model_route(path: str) -> Tuple[Optional[str], str]:
        """Split ``/models/<key>/<action>`` into ``(key, "/<action>")``.

        Any other path is returned unchanged as ``(None, path)``.
        """
        parts = path.split("/")
        if len(parts) == 4 and parts[0] == "" and parts[1] == "models" and parts[2]:
            return parts[2], "/" + parts[3]
        return None, path

    def _counted(self, route) -> None:
        """Run ``route`` as one in-flight request, response flush included.

        ``handle_one_request`` flushes the buffered response only after
        ``do_*`` returns.  Uncounted, that flush could still be pending
        when :meth:`ModelServer.drain` sees the count reach zero and the
        worker exits with the answer in its buffer.  A client that hung
        up makes the flush raise; the ``finally`` still uncounts it.
        """
        service = self._service
        service._request_started()
        try:
            route(service)
            self.wfile.flush()
        finally:
            service._request_finished()

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._counted(self._route_get)

    def _route_get(self, service: "ModelServer") -> None:
        key, path = self._model_route(self.path)
        if path == "/healthz" and key is None:
            self._send_json(200, service.health())
        elif path == "/stats" and key is None:
            self._send_json(200, service.cluster_stats_dict())
        elif self.path == "/stats/local":
            self._send_json(200, service.stats_dict())
        elif self.path == "/models":
            self._send_json(200, {"models": service.pool.describe()})
        elif path == "/manifest":
            try:
                entry = service.pool.get(key)
            except UnknownModelError as error:
                self._fail(404, str(error))
                return
            self._send_json(200, entry.manifest_dict())
        elif path == "/predict":
            self._fail(405, "use POST for /predict")
        else:
            self._fail(404, f"unknown path {self.path!r}")

    def _read_json_body(self) -> Optional[Dict[str, Any]]:
        """Read and decode the request body; ``None`` after a sent error.

        Every error path that leaves body bytes unread must also drop the
        keep-alive connection (``close_connection``): otherwise the next
        ``handle_one_request`` would parse the leftover body as a request
        line and poison every subsequent request on the connection.
        A body framed by ``Transfer-Encoding`` (chunked) or not framed at
        all gets 411: the handler reads exactly ``Content-Length`` bytes.
        """
        raw_length = self.headers.get("Content-Length")
        if raw_length is None or "Transfer-Encoding" in self.headers:
            self.close_connection = True
            self._fail(411, "POST needs a Content-Length and no Transfer-Encoding")
            return None
        try:
            length = int(raw_length)
        except ValueError:
            self.close_connection = True
            self._fail(400, "invalid Content-Length")
            return None
        if length < 0:
            # rfile.read(-1) would block until client EOF, hanging the
            # handler thread on a silent keep-alive connection.
            self.close_connection = True
            self._fail(400, "invalid Content-Length")
            return None
        if length > MAX_REQUEST_BYTES:
            self.close_connection = True
            self._fail(413, f"request body exceeds {MAX_REQUEST_BYTES} bytes")
            return None
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self._fail(400, f"request body is not valid JSON: {error}")
            return None
        if not isinstance(payload, dict):
            self._fail(400, "request body must be a JSON object")
            return None
        return payload

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._counted(self._route_post)

    def _route_post(self, service: "ModelServer") -> None:
        key, path = self._model_route(self.path)
        if path not in ("/predict", "/reload", "/feedback") or (
            path == "/reload" and key
        ):
            # The body was never read; keeping the connection alive would
            # desync the next request against the leftover bytes.
            self.close_connection = True
            self._fail(404, f"unknown path {self.path!r}")
            return
        payload = self._read_json_body()
        if payload is None:
            return
        try:
            if path == "/reload":
                response = service.cluster_reload_payload(payload)
            elif path == "/feedback":
                response = service.feedback_request(payload, key=key)
            else:
                response = service.predict_request(payload, key=key)
        except ServerError as error:
            self._fail(error.status, str(error), headers=error.headers)
            return
        self._send_json(200, response)


class ModelServer:
    """A pool of warm models behind a threaded JSON-over-HTTP daemon.

    The PR 2 single-model construction still works unchanged::

        ModelServer(model, engine="packed", port=0)

    and additionally the pool can be populated from the artifact registry
    (``models=["a", "b:v3"]``) with micro-batching, admission control and
    hot-swap on top.

    Parameters
    ----------
    model:
        Optional fitted classifier hosted in-process (the PR 2 path).
    manifest:
        Manifest for the in-process ``model`` (shown on ``/manifest``).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port.
    models:
        Registry specs (``name[:tag]``) to serve, routed by name.
    registry:
        :class:`repro.io.registry.ArtifactRegistry` backing ``models`` and
        ``POST /reload``.
    model_key:
        Routing key for the in-process ``model`` (default ``"default"``).
    listen_socket:
        Adopt an already-bound, already-listening socket instead of
        binding one (the prefork **inherited-FD** mode: the supervisor
        binds once before forking and every worker accepts on the same
        kernel queue).  Mutually exclusive with ``reuse_port``.
    reuse_port:
        Bind with ``SO_REUSEPORT``, letting N processes bind the same
        ``host:port`` and the kernel load-balance accepts between them
        (the prefork fast path on Linux/BSD).
    worker_id:
        Identity of this server as one replica of a prefork pool, stamped
        into ``/healthz`` and ``/stats/local``.  A replica loads registry
        specs through the zero-copy :func:`repro.io.checkpoint.load_mapped`
        path, so co-resident workers share one physical copy of each
        model's arrays; a standalone server loads them eagerly.
    online:
        :class:`~repro.runtime.online.OnlineConfig` enabling the
        continual-learning loop (registry-backed models only).
    **settings:
        The :class:`~repro.runtime.config.ServeConfig` of every hosted
        model: ``engine``, ``prune_topk``, ``batching`` and the
        micro-batching bounds ``max_batch_size`` / ``max_wait_ms`` /
        ``queue_depth``.  The default ``max_wait_ms = 0`` serves an idle
        request at once and batches only what queued during a dispatch.

    The constructor fully warms every pipeline, so the first request pays
    no lazy-initialization cost.
    """

    def __init__(
        self,
        model=None,
        manifest=None,
        host: str = "127.0.0.1",
        port: int = 0,
        models: Optional[Sequence[str]] = None,
        registry=None,
        model_key: str = "default",
        listen_socket: Optional[socket.socket] = None,
        reuse_port: bool = False,
        worker_id: Optional[int] = None,
        online: Optional[OnlineConfig] = None,
        **settings,
    ) -> None:
        if model is None and not models:
            raise ValueError("provide an in-process model and/or registry specs")
        if models and registry is None:
            raise ValueError("serving registry specs requires a registry")
        if online is not None and registry is None:
            raise ValueError(
                "online learning requires a registry-backed model "
                "(checkpoints must round-trip through the artifact registry)"
            )
        if listen_socket is not None and reuse_port:
            raise ValueError("listen_socket and reuse_port are mutually exclusive")
        self.pool = ModelPool(registry=registry, **settings)
        self.pool.mapped = worker_id is not None
        if model is not None:
            self.pool.add_model(model_key, model, manifest=manifest)
        for spec in models or ():
            self.pool.add_spec(spec)
        self.stats = ServerStats()
        self.worker_id = worker_id
        #: Control-plane hook installed by :mod:`repro.runtime.workers`:
        #: an object with ``stats()``, ``reload(payload)`` and
        #: ``feedback(payload)`` methods that execute against the whole
        #: worker pool.  ``None`` in single-process mode.
        self.cluster = None
        #: The single-process continual-learning loop; ``None`` when
        #: ``--online`` is off or this server is a prefork worker (the
        #: supervisor owns the learner there).
        self.online: Optional[OnlineLearner] = None
        if online is not None:
            target = self.pool.get()
            if target.resolved_spec == IN_PROCESS_SPEC:
                for pool_key in self.pool.keys():
                    candidate = self.pool.get(pool_key)
                    if candidate.resolved_spec != IN_PROCESS_SPEC:
                        target = candidate
                        break
                else:
                    raise ValueError(
                        "online learning requires a registry-backed model; "
                        "an in-process model has no checkpoint lineage"
                    )
            self.online = OnlineLearner(
                registry,
                target.resolved_spec,
                online,
                promote=self.reload_payload,
                model_key=target.key,
            )
        self._draining = False
        self._active_requests = 0
        self._active_cond = threading.Condition()
        self._httpd = _ServingHTTPServer(
            (host, port), _RequestHandler, bind_and_activate=False
        )
        try:
            if listen_socket is not None:
                # Adopt the supervisor's socket: replace the unused one the
                # constructor made, skip bind, go straight to serving.
                # Non-blocking accept, because sibling processes share the
                # same accept queue: after the selector reports readiness a
                # sibling may win the connection, and a blocking accept()
                # would then stall this worker's whole serve loop
                # (socketserver treats the resulting BlockingIOError as a
                # no-op and keeps polling).
                listen_socket.setblocking(False)
                self._httpd.socket.close()
                self._httpd.socket = listen_socket
                address = listen_socket.getsockname()
                self._httpd.server_address = (address[0], address[1])
                self._httpd.server_name = address[0]
                self._httpd.server_port = int(address[1])
            else:
                if reuse_port:
                    if not hasattr(socket, "SO_REUSEPORT"):
                        raise ValueError(
                            "SO_REUSEPORT is not available on this platform"
                        )
                    self._httpd.socket.setsockopt(
                        socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
                    )
                self._httpd.server_bind()
                self._httpd.server_activate()
        except BaseException:
            self._httpd.server_close()
            self.pool.close(drain=False)
            raise
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    # ---------------------------------------------------------- compat props
    @property
    def model(self):
        """The default entry's model (PR 2 single-model compatibility)."""
        return self.pool.get().model

    @property
    def pipeline(self):
        """The default entry's pipeline (PR 2 single-model compatibility)."""
        return self.pool.get().pipeline

    @property
    def manifest(self):
        return self.pool.get().manifest

    # ----------------------------------------------------------- addressing
    @property
    def host(self) -> str:
        """Bound host address."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (the ephemeral one when constructed with ``port=0``)."""
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the daemon (e.g. ``http://127.0.0.1:8000``)."""
        return f"http://{self.host}:{self.port}"

    # ----------------------------------------------------- request accounting
    @property
    def draining(self) -> bool:
        """True once a graceful drain began (keep-alives are being shed)."""
        return self._draining

    def _request_started(self) -> None:
        with self._active_cond:
            self._active_requests += 1

    def _request_finished(self) -> None:
        with self._active_cond:
            self._active_requests -= 1
            if self._active_requests == 0:
                self._active_cond.notify_all()

    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until no request is in flight; ``False`` on timeout."""
        with self._active_cond:
            return self._active_cond.wait_for(
                lambda: self._active_requests == 0, timeout=timeout
            )

    # ------------------------------------------------------------- lifecycle
    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (blocking)."""
        if self.online is not None:
            self.online.start()
        self._serving = True
        try:
            self._httpd.serve_forever()
        finally:
            self._serving = False

    def start(self) -> "ModelServer":
        """Serve on a daemon background thread; returns ``self``.

        Idempotent; used by tests and notebooks that need the calling
        thread back.
        """
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=self.serve_forever, daemon=True)
            self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving, drain the schedulers, release the socket.

        Safe to call twice.  ``BaseServer.shutdown`` blocks until
        ``serve_forever`` acknowledges, which would deadlock when the loop
        never ran, so it is only issued while a serving thread is (or may
        be about to start) running.  The pool drains *after* the HTTP loop
        stops accepting, so every admitted request still gets its answer
        (no hung futures) while new connections are refused.
        """
        if self._serving or (self._thread is not None and self._thread.is_alive()):
            self._httpd.shutdown()
        self._httpd.server_close()
        if self.online is not None:
            # Fold + persist the feedback backlog while the pool can
            # still hot-swap (a final gated promotion may fire here).
            self.online.stop(drain=True)
        self.pool.close(drain=True)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def drain(self, timeout: float = DRAIN_TIMEOUT_S) -> bool:
        """Gracefully retire this server: finish everything, answer it all.

        The SIGTERM path of a prefork worker.  In order:

        1. mark the server draining, so every response from now on carries
           ``Connection: close`` (keep-alive clients re-connect elsewhere);
        2. stop the accept loop and close the listening socket (under
           ``SO_REUSEPORT`` the kernel immediately stops routing new
           connections here; an inherited FD stays open in the parent);
        3. wait until no request is inside a handler;
        4. drain + close every scheduler, so queued work is answered.

        Returns ``True`` when in-flight requests finished inside
        ``timeout``; ``False`` means the drain gave up waiting (schedulers
        are still closed, queued work still answered).
        """
        self._draining = True
        if self._serving or (self._thread is not None and self._thread.is_alive()):
            self._httpd.shutdown()
        self._httpd.server_close()
        completed = self.wait_idle(timeout)
        if self.online is not None:
            self.online.stop(drain=True)
        self.pool.close(drain=True)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return completed

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -------------------------------------------------------------- handlers
    def health(self) -> Dict[str, Any]:
        """Payload of ``GET /healthz``."""
        entry = self.pool.get()
        return {
            "status": "ok",
            "model": getattr(entry.model, "name", type(entry.model).__name__),
            "engine": entry.pipeline.engine,
            "num_features": entry.num_features,
            "batching": self.pool.config.batching,
            "models": self.pool.describe(),
            "uptime_s": time.time() - self.stats.started_unix,
            **({"worker": int(self.worker_id)} if self.worker_id is not None else {}),
        }

    def stats_dict(self) -> Dict[str, Any]:
        """Payload of ``GET /stats/local``: this process's counters only."""
        payload = self.stats.as_dict()
        payload["queue_depth"] = self.pool.total_queue_size()
        payload["batching"] = self.pool.config.batching
        payload["models"] = self.pool.stats_dict()
        payload["online"] = (
            self.online.stats()
            if self.online is not None
            else OnlineLearner.disabled_stats()
        )
        if self.worker_id is not None:
            payload["worker"] = int(self.worker_id)
        return payload

    def cluster_stats_dict(self) -> Dict[str, Any]:
        """Payload of ``GET /stats``: cluster-merged when preforked.

        Single-process servers answer locally.  A prefork worker forwards
        to the supervisor (which polls every worker and merges); if the
        control channel fails mid-flight the worker degrades to its local
        view rather than 500-ing the scrape.
        """
        if self.cluster is None:
            return self.stats_dict()
        try:
            return self.cluster.stats()
        except Exception:
            return self.stats_dict()

    def cluster_reload_payload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Payload of ``POST /reload``: fanned out when preforked.

        Each worker performs its own atomic swap-then-drain, so responses
        remain wholly one version *per worker*; the supervisor serializes
        fan-outs so two concurrent reloads cannot interleave.
        """
        if self.cluster is None:
            return self.reload_payload(payload)
        try:
            return self.cluster.reload(payload)
        except ServerError:
            raise
        except Exception as error:
            raise ServerError(503, f"cluster reload failed: {error}") from error

    def manifest_dict(self) -> Dict[str, Any]:
        """Payload of ``GET /manifest`` (default model)."""
        return self.pool.get().manifest_dict()

    # -------------------------------------------------------------- feedback
    def feedback_request(
        self, payload: Dict[str, Any], key: Optional[str] = None
    ) -> Dict[str, Any]:
        """Serve one decoded ``POST /feedback`` body.

        Single-process servers submit straight into their own
        :class:`~repro.runtime.online.OnlineLearner`; prefork workers
        forward over the escalation channel to the supervisor (which owns
        the pool's single learner), so the 200 ack is only sent once the
        *parent* has the batch -- a worker SIGKILLed right after
        answering cannot lose acknowledged feedback.
        """
        body_key = payload.get("model")
        if body_key is not None and not isinstance(body_key, str):
            raise ServerError(400, '"model" must be a string routing key')
        effective_key = key if key is not None else body_key
        if "features" not in payload or "labels" not in payload:
            raise ServerError(
                400, 'request body must be {"features": [[...], ...], "labels": [...]}'
            )
        if self.cluster is not None:
            message = {"features": payload["features"], "labels": payload["labels"]}
            if effective_key is not None:
                message["model"] = effective_key
            try:
                return self.cluster.feedback(message)
            except ServerError:
                raise
            except Exception as error:
                raise ServerError(503, f"cluster feedback failed: {error}") from error
        if self.online is None:
            raise ServerError(
                503,
                "online learning is not enabled; restart with repro serve --online",
            )
        if effective_key is not None and effective_key != self.online.model_key:
            raise ServerError(
                404,
                f"feedback routes to model {self.online.model_key!r}; "
                f"unknown model {effective_key!r}",
            )
        try:
            return self.online.submit(payload["features"], payload["labels"])
        except (FeedbackError, ValueError) as error:
            status = feedback_error_status(error)
            headers = {"Retry-After": "1"} if status == 429 else None
            raise ServerError(status, str(error), headers=headers) from error

    # ------------------------------------------------------------ predicting
    @staticmethod
    def _as_feature_batch(features) -> np.ndarray:
        try:
            batch = np.asarray(features, dtype=np.float64)
        except (TypeError, ValueError) as error:
            raise ValueError(f"features are not a numeric array: {error}") from error
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.ndim != 2 or batch.shape[0] == 0 or batch.shape[1] == 0:
            raise ValueError(
                f"features must be a non-empty (n, f) batch, got shape "
                f"{batch.shape}"
            )
        if not np.isfinite(batch).all():
            raise ValueError("features must be finite (no NaN or Infinity)")
        return batch

    def predict_request(
        self, payload: Dict[str, Any], key: Optional[str] = None
    ) -> Dict[str, Any]:
        """Serve one decoded ``/predict`` body, mapping failures to HTTP.

        ``key`` (from the URL path) outranks the body's ``model`` field.

        Raises
        ------
        ServerError
            With the definite status code and headers for the response.
        """
        if "features" not in payload:
            raise ServerError(400, 'request body must be {"features": [[...], ...]}')
        body_key = payload.get("model")
        if body_key is not None and not isinstance(body_key, str):
            raise ServerError(400, '"model" must be a string routing key')
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0
        ):
            raise ServerError(400, '"deadline_ms" must be a positive number')
        try:
            entry = self.pool.get(key if key is not None else body_key)
        except UnknownModelError as error:
            raise ServerError(404, str(error)) from error
        try:
            return self.predict_payload(
                payload["features"], entry=entry, deadline_ms=deadline_ms
            )
        except QueueFullError as error:
            retry_after = str(max(1, math.ceil(error.retry_after_s)))
            entry.stats.record_error(429)
            raise ServerError(
                429, str(error), headers={"Retry-After": retry_after}
            ) from error
        except DeadlineExceededError as error:
            entry.stats.record_error(503)
            raise ServerError(503, str(error)) from error
        except (SchedulerClosedError, FutureTimeoutError) as error:
            entry.stats.record_error(503)
            raise ServerError(503, f"server is shutting down: {error}") from error
        except ValueError as error:
            entry.stats.record_error(400)
            raise ServerError(400, str(error)) from error
        except Exception as error:  # dispatch failure: report, don't crash
            entry.stats.record_error(500)
            raise ServerError(500, f"prediction failed: {error}") from error

    def predict_payload(
        self,
        features,
        entry: Optional[ServedModel] = None,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Serve one feature payload against one resolved model version.

        The ``entry`` snapshot is resolved once (default model when
        omitted) and used for the whole request, so the response is
        wholly produced by a single version even across a concurrent
        ``/reload``.  Successful calls are the **only** thing recorded
        into ``queries_per_second`` -- failures raise before any
        accounting happens (the PR 2 version's error/latency skew fix).

        Raises
        ------
        ValueError
            When ``features`` is not a non-empty ``(n, f)`` numeric batch.
        repro.runtime.scheduler.SchedulerError
            Queue-full / deadline / closed admission failures.
        """
        if entry is None:
            entry = self.pool.get()
        batch = self._as_feature_batch(features)
        expected_width = entry.num_features
        if expected_width is not None and batch.shape[1] != expected_width:
            # Reject at admission: coalesced into a micro-batch, a
            # wrong-width request would fail its batchmates too.
            raise ValueError(
                f"features have {batch.shape[1]} columns but model "
                f"{entry.key!r} expects {expected_width}"
            )
        start = time.perf_counter()
        labels = entry.predict(
            batch, deadline_ms=deadline_ms, timeout=DISPATCH_TIMEOUT_S
        )
        elapsed = time.perf_counter() - start
        self.stats.record_predict(batch.shape[0], elapsed)
        entry.stats.record_predict(batch.shape[0], elapsed)
        return {
            "labels": [int(label) for label in labels],
            "count": int(batch.shape[0]),
            "elapsed_ms": 1000.0 * elapsed,
            "model": entry.key,
            "artifact": entry.resolved_spec,
            "version": entry.version,
        }

    # -------------------------------------------------------------- reloading
    def reload_payload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one decoded ``POST /reload`` body.

        Body fields: ``model`` (routing key; default model when omitted)
        and ``spec`` (registry ``name[:tag]``; the entry's original spec
        when omitted, so ``latest`` entries re-resolve to the newest tag).
        """
        key = payload.get("model")
        spec = payload.get("spec")
        if key is not None and not isinstance(key, str):
            raise ServerError(400, '"model" must be a string routing key')
        if spec is not None and not isinstance(spec, str):
            raise ServerError(400, '"spec" must be a registry name[:tag] string')
        try:
            entry = self.pool.reload(key, spec=spec)
        except UnknownModelError as error:
            raise ServerError(404, str(error)) from error
        except PoolError as error:
            raise ServerError(400, str(error)) from error
        except Exception as error:  # registry/checkpoint failures
            raise ServerError(400, f"reload failed: {error}") from error
        response = entry.describe()
        response["status"] = "reloaded"
        return response

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelServer(models={self.pool.keys()}, "
            f"engine={self.pool.config.engine!r}, url={self.url!r})"
        )
