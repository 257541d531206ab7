"""Prefork scale-out serving: one supervisor, N worker processes, one port.

Runtime v2 (:mod:`repro.runtime.server`) coalesces concurrent requests
into micro-batches, but the whole daemon is still one GIL-bound process:
its ceiling is a single core's popcount throughput.  This module removes
that ceiling with the classic prefork design -- a parent **supervisor**
forks N **workers**, each running the full ``BatchScheduler`` /
``ModelPool`` / HTTP stack of :class:`~repro.runtime.server.ModelServer`
against the *same* ``host:port``:

* **shared listening socket** -- with ``SO_REUSEPORT`` (Linux/BSD, the
  default where available) every worker binds its own socket to the one
  port and the kernel load-balances incoming connections between them;
  otherwise the supervisor binds + listens **once** before forking and
  every worker accepts on the inherited file descriptor, so the kernel
  accept queue -- and therefore the listener -- survives any worker's
  death;
* **shared model memory** -- workers load checkpoints through
  :func:`repro.io.checkpoint.load_mapped`, so the packed AM arrays are
  memory-mapped out of one on-disk extraction and every replica reads the
  same physical pages (N workers cost ~1x model RAM, not Nx);
* **lifecycle** -- the supervisor detects worker exits and respawns with
  exponential backoff, forwards SIGTERM as a graceful drain (stop
  accepting -> finish in-flight requests -> drain schedulers -> exit),
  and reaps everything on shutdown;
* **control plane** -- two :func:`multiprocessing.Pipe` pairs per worker.
  On the *control* channel the parent issues requests (``stats``,
  ``reload``, ``drain``) answered by a dedicated worker thread; on the
  *escalation* channel a worker's HTTP handler asks the parent to run a
  cluster-wide operation.  ``GET /stats`` on any worker therefore returns
  the **merged** view of every worker (nested per-worker under a
  ``workers`` key), and ``POST /reload`` fans out so each worker performs
  its own atomic swap-first-drain-second hot-swap;
* **continual learning** -- with ``WorkerConfig.online`` set, the
  supervisor owns the pool's single
  :class:`~repro.runtime.online.OnlineLearner`; workers forward
  ``POST /feedback`` over the escalation channel (the 200 ack means the
  *parent* buffered the batch, so a SIGKILLed worker loses nothing
  acknowledged) and gated promotions ride the ``/reload`` fan-out, with
  recorded reloads replayed onto respawned workers so the pool converges
  to one version.

The channels are distinct and independently locked, so the circular call
(worker HTTP handler -> parent -> that same worker's control thread)
cannot deadlock.

Typical use (what ``repro serve --workers N`` runs)::

    config = WorkerConfig(models=("demo:v1",), store=store_dir,
                          engine="packed")
    with WorkerSupervisor(config, port=8000, workers=4) as supervisor:
        ... traffic against supervisor.url ...

Requires the ``fork`` start method (POSIX); :class:`WorkerSupervisor`
raises ``RuntimeError`` elsewhere -- single-process ``ModelServer``
remains the portable path.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import socket
import threading
import time
import warnings
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.online import (
    FeedbackError,
    OnlineConfig,
    OnlineLearner,
    feedback_error_status,
)
from repro.runtime.server import ModelServer, ServerError

#: Parent-side timeout for one worker's answer on its control channel.
CONTROL_TIMEOUT_S = 30.0

#: Worker-side timeout for the parent's answer to an escalation.  Longer
#: than the control timeout: one escalation may fan out N control calls.
ESCALATION_TIMEOUT_S = 120.0

#: First respawn delay after a worker crash; doubles per consecutive
#: crash up to :data:`BACKOFF_CAP_S`.
BACKOFF_BASE_S = 0.25

#: Upper bound on the crash-respawn delay.
BACKOFF_CAP_S = 5.0

#: A worker that stayed alive this long resets its crash-backoff streak.
HEALTHY_UPTIME_S = 10.0


def fork_available() -> bool:
    """Whether this platform can run the prefork supervisor."""
    return "fork" in multiprocessing.get_all_start_methods()


def reuseport_available() -> bool:
    """Whether the kernel offers ``SO_REUSEPORT`` load balancing."""
    return hasattr(socket, "SO_REUSEPORT")


@dataclasses.dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker needs to build its :class:`ModelServer`.

    Plain data (plus, optionally, an in-process model object inherited
    through ``fork``), so one instance describes every replica.

    Attributes
    ----------
    models / store:
        Registry specs (``name[:tag]``) served by every worker, loaded
        from the artifact store at ``store``.
    model / model_key / manifest:
        Alternative to specs: serve this in-process model object (the
        child inherits it copy-on-write through ``fork``).
    engine:
        Inference engine for every pipeline (``float`` / ``packed`` /
        ``pruned``).
    prune_topk:
        Shortlist width of the pruned engine (``None`` = per-model
        heuristic); only meaningful with ``engine="pruned"``.
    chunk_size / pipeline_threads:
        :class:`~repro.runtime.pipeline.InferencePipeline` settings
        (``pipeline_threads`` shards chunks *within* one micro-batch; the
        process-level parallelism comes from the worker count).
    batching / max_batch_size / max_wait_ms / queue_depth:
        Micro-batching and admission-control knobs, identical per worker.
    mapped:
        Load specs zero-copy via :func:`repro.io.checkpoint.load_mapped`
        (default: on -- the point of prefork is sharing those pages).
    drain_timeout:
        How long a draining worker waits for in-flight requests.
    online:
        :class:`~repro.runtime.online.OnlineConfig` enabling the
        continual-learning loop.  The **supervisor** owns the single
        :class:`~repro.runtime.online.OnlineLearner`; workers forward
        ``POST /feedback`` over their escalation channel and only ack
        once the parent has buffered the batch (so a SIGKILLed worker
        cannot lose acknowledged feedback), and promotions fan out
        through the ordinary cluster ``/reload`` path.
    """

    models: Tuple[str, ...] = ()
    store: Optional[str] = None
    model: Any = None
    model_key: str = "default"
    manifest: Any = None
    engine: str = "float"
    prune_topk: Optional[int] = None
    chunk_size: int = 1024
    pipeline_threads: int = 1
    batching: bool = True
    max_batch_size: int = 64
    max_wait_ms: float = 2.0
    queue_depth: int = 128
    mapped: bool = True
    drain_timeout: float = 30.0
    online: Optional[OnlineConfig] = None


# --------------------------------------------------------------- worker side
class _SupervisorClient:
    """Worker-side proxy for cluster-wide operations (installed as
    ``ModelServer.cluster``).

    Every call is one request/response exchange on the escalation
    channel, serialized by a lock so concurrent HTTP handlers cannot
    interleave frames.
    """

    def __init__(self, conn) -> None:
        self._conn = conn
        self._lock = threading.Lock()
        self._seq = 0

    def notify_ready(self) -> None:
        """One-way readiness signal (no reply expected)."""
        with self._lock:
            self._conn.send({"op": "ready", "pid": os.getpid()})

    def _call(self, message: Dict[str, Any]) -> Any:
        with self._lock:
            self._seq += 1
            seq = self._seq
            self._conn.send({**message, "seq": seq})
            deadline = time.monotonic() + ESCALATION_TIMEOUT_S
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._conn.poll(remaining):
                    raise TimeoutError("supervisor did not answer the escalation")
                reply = self._conn.recv()
                if reply.get("seq") == seq:
                    break
        if reply.get("ok"):
            return reply.get("value")
        raise ServerError(
            int(reply.get("status", 503)),
            str(reply.get("error", "cluster operation failed")),
        )

    def stats(self) -> Dict[str, Any]:
        return self._call({"op": "cluster_stats"})

    def reload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._call({"op": "cluster_reload", "payload": payload})

    def feedback(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Forward one ``/feedback`` batch to the supervisor's learner.

        Blocking request/response: the worker's 200 ack is only written
        after this returns, i.e. after the *parent* durably buffered the
        batch.
        """
        return self._call({"op": "online_feedback", "payload": payload})


def _serve_control(conn, server: ModelServer, stop, drain_requested) -> None:
    """Worker thread answering the parent's control requests.

    Runs on its own thread, so it stays responsive while HTTP handler
    threads block on an escalation (the two channels are what makes the
    parent<->worker call cycle deadlock-free).
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # Parent went away; the orphan watchdog in _worker_main also
            # catches this, but reacting here is faster.
            drain_requested.set()
            stop.set()
            return
        op = message.get("op")
        try:
            if op == "ping":
                reply: Dict[str, Any] = {"ok": True, "pid": os.getpid()}
            elif op == "stats":
                reply = {"ok": True, "value": server.stats_dict()}
            elif op == "reload":
                try:
                    reply = {
                        "ok": True,
                        "value": server.reload_payload(message.get("payload") or {}),
                    }
                except ServerError as error:
                    reply = {"ok": False, "status": error.status, "error": str(error)}
            elif op == "drain":
                reply = {"ok": True}
            else:
                reply = {
                    "ok": False,
                    "status": 400,
                    "error": f"unknown control op {op!r}",
                }
        except Exception as error:  # never kill the control loop
            reply = {"ok": False, "status": 500, "error": str(error)}
        # Echo the request's sequence number so the parent can discard a
        # reply whose request it already timed out on (protocol stays in
        # sync even when one operation, e.g. a big reload, runs long).
        reply["seq"] = message.get("seq")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            drain_requested.set()
            stop.set()
            return
        if op == "drain":
            drain_requested.set()
            stop.set()
            return


def _worker_main(
    worker_id: int,
    config: WorkerConfig,
    host: str,
    port: int,
    listen_socket,
    reuse_port: bool,
    control_conn,
    escalation_conn,
    close_on_start,
) -> None:
    """Entry point of one forked worker process."""
    # Fork copies every open descriptor; drop the ones that belong to the
    # parent (other workers' pipe ends, the reuseport placeholder) so a
    # sibling's death is visible as EOF where it should be.
    for resource in close_on_start:
        try:
            resource.close()
        except OSError:
            pass

    stop = threading.Event()
    drain_requested = threading.Event()

    def _on_sigterm(signum, frame):
        drain_requested.set()
        stop.set()

    signal.signal(signal.SIGTERM, _on_sigterm)
    # Ctrl-C lands on the whole foreground process group; the parent
    # coordinates the drain, workers must not race it with their own exit.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    registry = None
    if config.store is not None:
        from repro.io.registry import ArtifactRegistry

        registry = ArtifactRegistry(config.store)

    server = ModelServer(
        model=config.model,
        models=list(config.models) or None,
        registry=registry,
        engine=config.engine,
        prune_topk=config.prune_topk,
        chunk_size=config.chunk_size,
        workers=config.pipeline_threads,
        manifest=config.manifest,
        host=host,
        port=port,
        listen_socket=listen_socket,
        reuse_port=reuse_port,
        batching=config.batching,
        max_batch_size=config.max_batch_size,
        max_wait_ms=config.max_wait_ms,
        queue_depth=config.queue_depth,
        model_key=config.model_key,
        mapped=config.mapped,
        worker_id=worker_id,
    )
    client = _SupervisorClient(escalation_conn)
    server.cluster = client
    threading.Thread(
        target=_serve_control,
        args=(control_conn, server, stop, drain_requested),
        daemon=True,
        name=f"worker-{worker_id}-control",
    ).start()
    server.start()
    client.notify_ready()

    # Main thread: wait for a stop signal, watching for orphaning (a
    # crashed parent re-parents us; drain and leave instead of serving a
    # half-dead cluster forever).
    parent_pid = os.getppid()
    while not stop.wait(0.5):
        if os.getppid() != parent_pid:
            drain_requested.set()
            stop.set()
    if drain_requested.is_set():
        server.drain(config.drain_timeout)
    else:
        server.shutdown()


# --------------------------------------------------------------- parent side
class _WorkerSlot:
    """Parent-side bookkeeping for one worker position (0..N-1)."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.control_conn = None
        self.escalation_conn = None
        self.control_lock = threading.Lock()
        self.ready = threading.Event()
        self.failures = 0
        self.started_at = 0.0
        self.control_seq = 0

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def close_conns(self) -> None:
        for conn in (self.control_conn, self.escalation_conn):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self.control_conn = None
        self.escalation_conn = None


class WorkerSupervisor:
    """Parent of a prefork worker pool serving one ``host:port``.

    Parameters
    ----------
    config:
        The :class:`WorkerConfig` every worker builds its server from.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port, resolved before
        the first fork so every worker (and :attr:`url`) agrees on it.
    workers:
        Number of worker processes (>= 1).
    socket_mode:
        ``"reuseport"`` (each worker binds its own ``SO_REUSEPORT``
        socket), ``"inherit"`` (the supervisor binds + listens once,
        workers accept on the inherited descriptor -- the listener then
        survives even a SIGKILLed worker), or ``"auto"`` (default):
        reuseport where available, inherit otherwise.
    respawn:
        Replace crashed workers (exponential backoff,
        :data:`BACKOFF_BASE_S` .. :data:`BACKOFF_CAP_S`).  Disable for
        tests that assert on death.
    start_timeout:
        Seconds to wait in :meth:`start` for every worker to come up.
    drain_timeout:
        Seconds :meth:`shutdown` waits for graceful worker exits before
        escalating to SIGKILL.

    The supervisor serves no HTTP itself; it owns the port, the worker
    lifecycle, the merged ``/stats`` view and the ``/reload`` fan-out.
    """

    def __init__(
        self,
        config: WorkerConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        socket_mode: str = "auto",
        respawn: bool = True,
        start_timeout: float = 60.0,
        drain_timeout: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if config.model is None and not config.models:
            raise ValueError("WorkerConfig needs registry specs or a model object")
        if config.models and config.store is None:
            raise ValueError("WorkerConfig with registry specs needs a store path")
        if config.online is not None and not config.models:
            raise ValueError(
                "online learning requires registry specs (checkpoints must "
                "round-trip through the artifact registry)"
            )
        if socket_mode not in ("auto", "reuseport", "inherit"):
            raise ValueError(f"unknown socket_mode {socket_mode!r}")
        if not fork_available():
            raise RuntimeError(
                "prefork serving requires the 'fork' start method; use a "
                "single-process ModelServer on this platform"
            )
        if socket_mode == "reuseport" and not reuseport_available():
            raise ValueError("SO_REUSEPORT is not available on this platform")
        if socket_mode == "auto":
            socket_mode = "reuseport" if reuseport_available() else "inherit"
        self.config = config
        self.host = host
        self.workers = int(workers)
        self.socket_mode = socket_mode
        self.respawn = bool(respawn)
        self.start_timeout = float(start_timeout)
        self.drain_timeout = float(drain_timeout)
        self._requested_port = int(port)
        self._ctx = multiprocessing.get_context("fork")
        self._listener: Optional[socket.socket] = None
        self._slots: Dict[int, _WorkerSlot] = {}
        self._slots_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None
        self._started = False
        self._respawns = 0
        self.port = 0
        #: The pool's single continual-learning loop (``config.online``).
        self._online: Optional[OnlineLearner] = None
        #: Last successful ``/reload`` payload per routing key, replayed
        #: to respawned workers so they converge to the promoted (or
        #: rolled-back) version instead of re-resolving from scratch.
        self._last_reload: Dict[Optional[str], Dict[str, Any]] = {}

    # ------------------------------------------------------------ addressing
    @property
    def url(self) -> str:
        """Base URL of the worker pool (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "WorkerSupervisor":
        """Bind the port, fork every worker, wait until all are serving.

        Raises
        ------
        RuntimeError
            When a worker dies before becoming ready (e.g. its model
            failed to load) or readiness times out; everything spawned so
            far is torn down first.
        """
        if self._started:
            return self
        self._bind()
        try:
            for worker_id in range(self.workers):
                self._slots[worker_id] = self._spawn(worker_id)
            self._await_ready()
            if self.config.online is not None:
                # The learner is created after the workers are serving so
                # its very first promotion already has a pool to fan out
                # to.  It lives in the parent: one shadow model for the
                # whole pool, and feedback acked only once it is here.
                from repro.io.registry import ArtifactRegistry

                spec = self.config.models[0]
                self._online = OnlineLearner(
                    ArtifactRegistry(self.config.store),
                    spec,
                    self.config.online,
                    promote=self.reload,
                    model_key=spec.split(":", 1)[0],
                )
                self._online.start()
        except BaseException:
            self._stop.set()
            self._kill_all()
            self._close_listener()
            raise
        self._monitor_thread = threading.Thread(
            target=self._monitor, daemon=True, name="worker-supervisor"
        )
        self._monitor_thread.start()
        self._started = True
        return self

    def _bind(self) -> None:
        """Resolve the port and create the shared socket for our mode.

        * ``inherit``: one listening socket, inherited by every fork; the
          kernel accept queue outlives any single worker.
        * ``reuseport``: a bound (never listening) placeholder that pins
          the ephemeral port for the supervisor's lifetime, so respawned
          workers can always rebind it; only *listening* sockets receive
          connections, so the placeholder never swallows traffic.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if self.socket_mode == "reuseport":
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            listener.bind((self.host, self._requested_port))
            if self.socket_mode == "inherit":
                listener.listen(128)
        except BaseException:
            listener.close()
            raise
        self._listener = listener
        self.port = int(listener.getsockname()[1])

    def _spawn(self, worker_id: int) -> _WorkerSlot:
        slot = self._slots.get(worker_id) or _WorkerSlot(worker_id)
        slot.ready = threading.Event()
        control_parent, control_child = self._ctx.Pipe()
        escalation_parent, escalation_child = self._ctx.Pipe()
        # The child inherits every parent-held descriptor; tell it which
        # ones to close (all parent pipe ends + the reuseport placeholder)
        # so each worker holds only its own channel ends.
        close_on_start: List[Any] = [control_parent, escalation_parent]
        with self._slots_lock:
            for other in self._slots.values():
                for conn in (other.control_conn, other.escalation_conn):
                    if conn is not None:
                        close_on_start.append(conn)
        inherited = self._listener if self.socket_mode == "inherit" else None
        if self.socket_mode == "reuseport" and self._listener is not None:
            close_on_start.append(self._listener)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.config,
                self.host,
                self.port,
                inherited,
                self.socket_mode == "reuseport",
                control_child,
                escalation_child,
                close_on_start,
            ),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        with warnings.catch_warnings():
            # Respawns fork from the monitor thread; CPython >= 3.12
            # warns about fork()+threads, which is exactly the contained
            # trade-off prefork makes (children only run our code).
            warnings.simplefilter("ignore", DeprecationWarning)
            process.start()
        control_child.close()
        escalation_child.close()
        slot.process = process
        slot.control_conn = control_parent
        slot.escalation_conn = escalation_parent
        slot.started_at = time.monotonic()
        threading.Thread(
            target=self._serve_escalations,
            args=(slot, escalation_parent),
            daemon=True,
            name=f"worker-{worker_id}-escalations",
        ).start()
        return slot

    def _await_ready(self) -> None:
        deadline = time.monotonic() + self.start_timeout
        for slot in self._slots.values():
            while not slot.ready.wait(timeout=0.05):
                if not slot.alive():
                    code = slot.process.exitcode
                    raise RuntimeError(
                        f"worker {slot.worker_id} exited with code {code} "
                        "before becoming ready (bad model spec or store?)"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"worker {slot.worker_id} not ready after "
                        f"{self.start_timeout:.0f}s"
                    )

    def _monitor(self) -> None:
        """Reap dead workers and respawn them with exponential backoff."""
        while not self._stop.is_set():
            with self._slots_lock:
                sentinels = {
                    slot.process.sentinel: slot
                    for slot in self._slots.values()
                    if slot.process is not None and slot.process.is_alive()
                }
            if not sentinels:
                if self._stop.wait(0.25):
                    return
                continue
            for obj in _connection_wait(list(sentinels), timeout=0.25):
                if self._stop.is_set():
                    return
                self._handle_exit(sentinels[obj])

    def _handle_exit(self, slot: _WorkerSlot) -> None:
        process = slot.process
        if process is None:
            return
        process.join(timeout=1.0)
        uptime = time.monotonic() - slot.started_at
        slot.ready.clear()
        slot.close_conns()
        if not self.respawn or self._stop.is_set():
            return
        slot.failures = 1 if uptime >= HEALTHY_UPTIME_S else slot.failures + 1
        delay = min(BACKOFF_BASE_S * (2 ** (slot.failures - 1)), BACKOFF_CAP_S)
        if self._stop.wait(delay):
            return
        self._respawns += 1
        with self._slots_lock:
            self._slots[slot.worker_id] = slot
        self._spawn(slot.worker_id)
        if self._stop.is_set():
            # Shutdown raced the respawn; don't leak the replacement.
            self._kill_all()
            return
        if self._last_reload:
            # The replacement re-resolved its specs from the config; any
            # reload that happened since (an online promotion, a manual
            # rollback to a pinned tag) must be replayed so the pool
            # converges back to one version.
            threading.Thread(
                target=self._resync_worker,
                args=(slot,),
                daemon=True,
                name=f"worker-{slot.worker_id}-resync",
            ).start()

    def _resync_worker(self, slot: _WorkerSlot) -> None:
        """Replay recorded reloads onto a freshly respawned worker."""
        if not slot.ready.wait(timeout=self.start_timeout):
            return
        # Serialized with fan-outs, so an older payload never lands last.
        with self._reload_lock:
            for payload in list(self._last_reload.values()):
                try:
                    self._control_request(
                        slot,
                        {"op": "reload", "payload": dict(payload)},
                        timeout=CONTROL_TIMEOUT_S,
                    )
                except (OSError, EOFError, TimeoutError, BrokenPipeError):
                    return

    def shutdown(self, drain: bool = True) -> None:
        """Stop the pool: drain (or kill) workers, release the port.

        ``drain=True`` sends SIGTERM and gives each worker
        ``drain_timeout`` seconds to finish in-flight requests and empty
        its schedulers; stragglers are SIGKILLed.  Idempotent.
        """
        if self._online is not None:
            # Fold + persist the feedback backlog while the workers are
            # still up -- a final gated promotion can still fan out, and
            # the drain-flush checkpoint makes acked feedback durable.
            self._online.stop(drain=drain)
        self._stop.set()
        with self._slots_lock:
            slots = list(self._slots.values())
        if drain:
            for slot in slots:
                if slot.alive():
                    slot.process.terminate()  # SIGTERM -> graceful drain
            deadline = time.monotonic() + self.drain_timeout + 5.0
            for slot in slots:
                if slot.process is not None:
                    slot.process.join(timeout=max(0.1, deadline - time.monotonic()))
        self._kill_all()
        self._close_listener()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
            self._monitor_thread = None
        self._started = False

    def _kill_all(self) -> None:
        with self._slots_lock:
            slots = list(self._slots.values())
        for slot in slots:
            if slot.alive():
                slot.process.kill()
            if slot.process is not None:
                slot.process.join(timeout=5.0)
            slot.close_conns()

    def _close_listener(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None

    def wait(self) -> None:
        """Block until :meth:`request_shutdown` / :meth:`shutdown`.

        The CLI parks its main thread here; a signal handler only has to
        call :meth:`request_shutdown` (async-signal-safe: sets an event).
        """
        self._stop.wait()

    def request_shutdown(self) -> None:
        """Unblock :meth:`wait` without doing any teardown work yet."""
        self._stop.set()

    def __enter__(self) -> "WorkerSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ---------------------------------------------------------- introspection
    def worker_pids(self) -> Dict[int, int]:
        """Live worker PIDs by worker id (tests, diagnostics)."""
        with self._slots_lock:
            return {
                slot.worker_id: slot.process.pid
                for slot in self._slots.values()
                if slot.alive()
            }

    def alive_count(self) -> int:
        with self._slots_lock:
            return sum(1 for slot in self._slots.values() if slot.alive())

    @property
    def respawns(self) -> int:
        """How many crashed workers have been replaced so far."""
        return self._respawns

    # ---------------------------------------------------------- control plane
    def _live_slots(self) -> List[_WorkerSlot]:
        with self._slots_lock:
            return [
                slot
                for slot in sorted(self._slots.values(), key=lambda s: s.worker_id)
                if slot.alive() and slot.control_conn is not None
            ]

    def _control_request(
        self, slot: _WorkerSlot, message: Dict[str, Any], timeout: float
    ) -> Dict[str, Any]:
        with slot.control_lock:
            conn = slot.control_conn
            if conn is None:
                raise BrokenPipeError(f"worker {slot.worker_id} has no control link")
            slot.control_seq += 1
            seq = slot.control_seq
            conn.send({**message, "seq": seq})
            deadline = time.monotonic() + timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not conn.poll(remaining):
                    raise TimeoutError(
                        f"worker {slot.worker_id} control request timed out"
                    )
                reply = conn.recv()
                # Replies to requests we previously timed out on are
                # drained and dropped here, keeping the channel in sync.
                if reply.get("seq") == seq:
                    return reply

    def _serve_escalations(self, slot: _WorkerSlot, conn) -> None:
        """Parent thread answering one worker's cluster-wide requests."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            op = message.get("op")
            if op == "ready":
                slot.ready.set()
                continue
            try:
                if op == "cluster_stats":
                    reply: Dict[str, Any] = {"ok": True, "value": self.stats()}
                elif op == "cluster_reload":
                    reply = {
                        "ok": True,
                        "value": self.reload(message.get("payload") or {}),
                    }
                elif op == "online_feedback":
                    reply = {
                        "ok": True,
                        "value": self.submit_feedback(message.get("payload") or {}),
                    }
                else:
                    reply = {
                        "ok": False,
                        "status": 400,
                        "error": f"unknown escalation op {op!r}",
                    }
            except ServerError as error:
                reply = {"ok": False, "status": error.status, "error": str(error)}
            except Exception as error:
                reply = {"ok": False, "status": 500, "error": str(error)}
            reply["seq"] = message.get("seq")
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return

    def stats(self) -> Dict[str, Any]:
        """The merged cluster view served on any worker's ``GET /stats``.

        Polls every live worker's local counters over its control channel
        and merges them: summed server/model counters, per-status error
        breakdowns, total queue depth, recomputed ``queries_per_second``,
        plus the raw per-worker payloads under ``workers`` and pool
        health (``workers_alive`` / ``workers_total`` / ``respawns``).
        Workers dying mid-scrape are skipped, not fatal.
        """
        snapshots: Dict[int, Dict[str, Any]] = {}
        for slot in self._live_slots():
            try:
                reply = self._control_request(
                    slot, {"op": "stats"}, timeout=CONTROL_TIMEOUT_S
                )
            except (OSError, EOFError, TimeoutError, BrokenPipeError):
                continue
            if reply.get("ok"):
                snapshots[slot.worker_id] = reply["value"]
        if not snapshots:
            raise ServerError(503, "no live workers to report stats")
        return _merge_worker_stats(
            snapshots,
            workers_total=self.workers,
            respawns=self._respawns,
            online=self._online.stats() if self._online is not None else None,
        )

    def submit_feedback(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Buffer one ``/feedback`` batch into the pool's learner.

        The escalation handler of the workers' forwarded requests; maps
        learner failures to the same statuses the single-process server
        uses.
        """
        if self._online is None:
            raise ServerError(
                503,
                "online learning is not enabled; restart with repro serve --online",
            )
        key = payload.get("model")
        if key is not None and key != self._online.model_key:
            raise ServerError(
                404,
                f"feedback routes to model {self._online.model_key!r}; "
                f"unknown model {key!r}",
            )
        try:
            return self._online.submit(
                payload.get("features"), payload.get("labels")
            )
        except (FeedbackError, ValueError) as error:
            raise ServerError(feedback_error_status(error), str(error)) from error

    def reload(self, payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Fan ``POST /reload`` out to every live worker.

        Each worker performs its own atomic swap-first-drain-second
        reload, so its responses stay wholly one version throughout.
        Fan-outs are serialized (one cluster reload at a time).  The
        response is the reloaded entry (as in single-process mode) plus a
        ``workers`` map of per-worker results; if only some workers
        failed, ``status`` is ``"partial"`` and ``failed_workers`` names
        them -- if all failed, the first failure's status code is raised.
        """
        payload = dict(payload or {})
        results: Dict[int, Dict[str, Any]] = {}
        failures: Dict[int, Dict[str, Any]] = {}
        with self._reload_lock:
            slots = self._live_slots()
            if not slots:
                raise ServerError(503, "no live workers to reload")
            for slot in slots:
                try:
                    reply = self._control_request(
                        slot,
                        {"op": "reload", "payload": payload},
                        timeout=CONTROL_TIMEOUT_S,
                    )
                except (OSError, EOFError, TimeoutError, BrokenPipeError) as error:
                    failures[slot.worker_id] = {"status": 503, "error": str(error)}
                    continue
                if reply.get("ok"):
                    results[slot.worker_id] = reply["value"]
                else:
                    failures[slot.worker_id] = {
                        "status": int(reply.get("status", 500)),
                        "error": str(reply.get("error", "reload failed")),
                    }
            if not results:
                first = next(iter(failures.values()))
                raise ServerError(int(first["status"]), str(first["error"]))
            # Remember the winning payload (keyed by routing key) so a
            # worker respawned later converges to this same version
            # (promotion and rollback both land here).
            self._last_reload[payload.get("model")] = dict(payload)
        response = dict(next(iter(sorted(results.items())))[1])
        response["status"] = "reloaded" if not failures else "partial"
        response["workers"] = {
            str(worker_id): result for worker_id, result in sorted(results.items())
        }
        if failures:
            response["failed_workers"] = {
                str(worker_id): failure
                for worker_id, failure in sorted(failures.items())
            }
        return response

    def drain_worker(self, worker_id: int) -> bool:
        """Ask one worker to drain and exit (tests, rolling restarts)."""
        with self._slots_lock:
            slot = self._slots.get(worker_id)
        if slot is None or not slot.alive():
            return False
        try:
            reply = self._control_request(
                slot, {"op": "drain"}, timeout=CONTROL_TIMEOUT_S
            )
        except (OSError, EOFError, TimeoutError, BrokenPipeError):
            return False
        return bool(reply.get("ok"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerSupervisor(workers={self.workers}, url={self.url!r}, "
            f"mode={self.socket_mode!r}, alive={self.alive_count()})"
        )


# ------------------------------------------------------------------- merging
def _merge_worker_stats(
    snapshots: Dict[int, Dict[str, Any]],
    workers_total: int,
    respawns: int,
    online: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Merge per-worker ``stats_dict`` payloads into the cluster view."""
    merged: Dict[str, Any] = {
        "requests": 0,
        "queries": 0,
        "errors": 0,
        "errors_by_status": {},
        "predict_s": 0.0,
        "uptime_s": 0.0,
        "queue_depth": 0,
        "batching": False,
    }
    models: Dict[str, Dict[str, Any]] = {}
    for _, snapshot in sorted(snapshots.items()):
        for counter in ("requests", "queries", "errors"):
            merged[counter] += int(snapshot.get(counter, 0))
        merged["predict_s"] += float(snapshot.get("predict_s", 0.0))
        merged["queue_depth"] += int(snapshot.get("queue_depth", 0))
        merged["uptime_s"] = max(
            merged["uptime_s"], float(snapshot.get("uptime_s", 0.0))
        )
        merged["batching"] = bool(snapshot.get("batching", merged["batching"]))
        for status, count in (snapshot.get("errors_by_status") or {}).items():
            merged["errors_by_status"][status] = merged["errors_by_status"].get(
                status, 0
            ) + int(count)
        for key, entry in (snapshot.get("models") or {}).items():
            into = models.get(key)
            if into is None:
                into = {
                    "key": entry.get("key", key),
                    "spec": entry.get("spec"),
                    "artifact": entry.get("artifact"),
                    "engine": entry.get("engine"),
                    "num_features": entry.get("num_features"),
                    "version": 0,
                    "versions": set(),
                    "requests": 0,
                    "queries": 0,
                    "errors": 0,
                    "errors_by_status": {},
                    "predict_s": 0.0,
                    "queue_depth": 0,
                    "pruned": None,
                }
                models[key] = into
            for counter in ("requests", "queries", "errors"):
                into[counter] += int(entry.get(counter, 0))
            into["predict_s"] += float(entry.get("predict_s", 0.0))
            into["queue_depth"] += int(entry.get("queue_depth", 0))
            for status, count in (entry.get("errors_by_status") or {}).items():
                into["errors_by_status"][status] = into["errors_by_status"].get(
                    status, 0
                ) + int(count)
            prune_entry = entry.get("pruned")
            if prune_entry:
                into_pruned = into["pruned"]
                if into_pruned is None:
                    # Counters sum across workers; the configuration
                    # fields (prune_topk) are identical per replica.
                    into_pruned = {k: 0 for k in prune_entry}
                    into_pruned["prune_topk"] = prune_entry.get("prune_topk")
                    into["pruned"] = into_pruned
                for field, value in prune_entry.items():
                    if field == "prune_topk":
                        continue
                    if field == "prune_ratio":
                        continue  # recomputed from the summed counters
                    into_pruned[field] = into_pruned.get(field, 0) + value
            version = int(entry.get("version", 0))
            into["versions"].add(version)
            if version > into["version"]:
                into["version"] = version
                into["artifact"] = entry.get("artifact", into["artifact"])
    for entry in models.values():
        entry["versions"] = sorted(entry["versions"])
        entry["queries_per_second"] = (
            entry["queries"] / entry["predict_s"] if entry["predict_s"] > 0 else 0.0
        )
        if entry["pruned"] is not None:
            full = entry["pruned"].get("rows_full_scan", 0)
            entry["pruned"]["prune_ratio"] = (
                1.0 - entry["pruned"].get("rows_scored", 0) / full if full else 0.0
            )
    merged["queries_per_second"] = (
        merged["queries"] / merged["predict_s"] if merged["predict_s"] > 0 else 0.0
    )
    merged["models"] = models
    # The supervisor owns the pool's one learner; workers report a
    # disabled block locally, the cluster view carries the real one.
    merged["online"] = online if online is not None else {"enabled": False}
    merged["workers"] = {
        str(worker_id): snapshot for worker_id, snapshot in sorted(snapshots.items())
    }
    merged["workers_alive"] = len(snapshots)
    merged["workers_total"] = int(workers_total)
    merged["respawns"] = int(respawns)
    return merged
