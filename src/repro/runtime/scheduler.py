"""Micro-batching request scheduler for the serving runtime (v2).

The PR 2 server answered every HTTP request with its own unbatched
``pipeline.predict`` call, so 32 concurrent single-query clients paid the
fixed per-call cost (JSON decode aside: array staging, encoder dispatch,
engine warm-state lookup, argmax) 32 times.  The batched popcount engine
is fastest when it sees wide batches, and classification is row-wise
independent, so coalescing concurrent requests is pure profit:
**predictions are bit-identical whether a row is served alone or glued to
63 strangers** (pinned by ``tests/test_runtime_scheduler.py``).

:class:`BatchScheduler` implements the standard dynamic-batching loop of
production inference servers:

* callers :meth:`submit` a feature batch and get a
  :class:`concurrent.futures.Future` back immediately;
* a single dispatcher thread pops the oldest request and glues every
  request queued behind it into one micro-batch, up to ``max_batch_size``
  rows;
* the micro-batch runs through the warm
  :class:`repro.runtime.pipeline.InferencePipeline` **once**, and the label
  slices are fanned back out to the per-request futures.

Batches size themselves from load (adaptive batching, as in Clipper,
Crankshaw et al., NSDI 2017).  With the default ``max_wait_ms = 0`` an
idle dispatcher serves a lone request at once, with no timed wait.
Under load, requests pile up while each batch runs through the
pipeline, and the next collection takes them all as one batch.  A
positive ``max_wait_ms`` is an opt-in upper bound on how long the
oldest request may additionally wait for stragglers: it trades latency
for wider batches, and only pays when clients arrive just too far apart
to overlap a dispatch.

Admission control is explicit so the HTTP layer can map it to status
codes:

* a full queue (``queue_depth`` pending requests) raises
  :class:`QueueFullError` from :meth:`submit` -- HTTP 429 with a
  ``Retry-After`` hint derived from the observed batch service time;
* a request whose deadline lapses while queued is failed with
  :class:`DeadlineExceededError` instead of being served -- HTTP 503 --
  so a backed-up server sheds work the client has already given up on;
* a closed scheduler raises :class:`SchedulerClosedError`.

Shutdown is drain-by-default: :meth:`close` stops admissions, serves
everything already queued, then joins the dispatcher -- no future is ever
left pending (also pinned by the tests).
"""

from __future__ import annotations

import collections
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

import numpy as np

from repro.runtime.config import ServeConfig

#: Retry-After fallback (seconds) before any batch has been timed.
_DEFAULT_RETRY_AFTER_S = 1.0


class SchedulerError(Exception):
    """Base class for scheduler admission/lifecycle failures."""


class QueueFullError(SchedulerError):
    """The bounded request queue is at capacity (HTTP 429).

    Attributes
    ----------
    retry_after_s:
        Suggested client back-off, estimated from the queue depth and the
        scheduler's recent batch service time.
    """

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class DeadlineExceededError(SchedulerError):
    """The request's deadline lapsed before it was dispatched (HTTP 503)."""


class SchedulerClosedError(SchedulerError):
    """The scheduler no longer accepts work (server shutting down)."""


@dataclass
class _PendingRequest:
    """One queued prediction request awaiting dispatch."""

    features: np.ndarray
    future: "Future[np.ndarray]"
    rows: int
    enqueued_monotonic: float
    deadline_monotonic: Optional[float]

    def expired(self, now: float) -> bool:
        return self.deadline_monotonic is not None and now >= self.deadline_monotonic


class SchedulerStats:
    """Thread-safe counters for one scheduler (exposed on ``GET /stats``).

    Beyond raw counts, the **batch-size histogram** is the serving-quality
    signal: a histogram massed at 1 means no request arrived while another
    batch was running (a lightly loaded server, where waiting would only
    add latency), mass at ``max_batch_size`` means the scheduler saturates
    and the queue bound is doing the work.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.batches = 0
        self.queries = 0
        self.coalesced_requests = 0
        self.rejected_full = 0
        self.expired_deadlines = 0
        self.dispatch_seconds = 0.0
        self.batch_size_histogram: Dict[int, int] = {}
        # EWMA of per-batch service time, feeding the Retry-After hint.
        self._ewma_batch_seconds: Optional[float] = None

    def record_batch(self, requests: int, rows: int, seconds: float) -> None:
        with self._lock:
            self.batches += 1
            self.queries += int(rows)
            self.coalesced_requests += int(requests)
            self.dispatch_seconds += float(seconds)
            self.batch_size_histogram[int(rows)] = (
                self.batch_size_histogram.get(int(rows), 0) + 1
            )
            if self._ewma_batch_seconds is None:
                self._ewma_batch_seconds = float(seconds)
            else:
                self._ewma_batch_seconds += 0.2 * (
                    float(seconds) - self._ewma_batch_seconds
                )

    def record_rejected_full(self) -> None:
        with self._lock:
            self.rejected_full += 1

    def record_expired(self, count: int = 1) -> None:
        with self._lock:
            self.expired_deadlines += int(count)

    def ewma_batch_seconds(self) -> Optional[float]:
        with self._lock:
            return self._ewma_batch_seconds

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            histogram = {
                str(size): count
                for size, count in sorted(self.batch_size_histogram.items())
            }
            batches = self.batches
            return {
                "batches": batches,
                "queries": self.queries,
                "coalesced_requests": self.coalesced_requests,
                "rejected_full": self.rejected_full,
                "expired_deadlines": self.expired_deadlines,
                "dispatch_s": self.dispatch_seconds,
                "mean_batch_rows": (self.queries / batches) if batches else 0.0,
                "batch_size_histogram": histogram,
            }


class BatchScheduler:
    """Coalesces concurrent predict requests into pipeline micro-batches.

    Parameters
    ----------
    pipeline:
        A warm :class:`repro.runtime.pipeline.InferencePipeline` (or any
        object with ``predict(features) -> labels``); every dispatched
        micro-batch is one call to it.
    max_batch_size:
        Micro-batch row bound.  Requests wider than this are dispatched
        alone (the pipeline chunks them internally); smaller requests are
        glued together while their combined rows fit.
    max_wait_ms:
        Upper bound on how long the dispatcher holds the oldest admitted
        request open for stragglers.  ``0`` (the default) dispatches
        whatever is queued at once; batches then form only from requests
        that queued while the previous batch ran.
    queue_depth:
        Bound on *queued* requests; :meth:`submit` beyond it raises
        :class:`QueueFullError`.

    Defaults and validation are :class:`~repro.runtime.config.ServeConfig`'s.
    """

    def __init__(
        self,
        pipeline,
        max_batch_size: int = ServeConfig.max_batch_size,
        max_wait_ms: float = ServeConfig.max_wait_ms,
        queue_depth: int = ServeConfig.queue_depth,
    ) -> None:
        # Validated where the settings are declared.
        ServeConfig(
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            queue_depth=queue_depth,
        )
        self.pipeline = pipeline
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.queue_depth = int(queue_depth)
        self.stats = SchedulerStats()
        self._queue: Deque[_PendingRequest] = collections.deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-batch-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------ API
    def submit(
        self,
        features: np.ndarray,
        deadline_ms: Optional[float] = None,
    ) -> "Future[np.ndarray]":
        """Queue one request; returns a future resolving to its labels.

        Parameters
        ----------
        features:
            ``(n, f)`` feature batch (already validated by the caller).
        deadline_ms:
            Optional time budget.  If the request is still queued when it
            lapses, the future fails with :class:`DeadlineExceededError`
            instead of being served.

        Raises
        ------
        QueueFullError
            When ``queue_depth`` requests are already waiting.
        SchedulerClosedError
            After :meth:`close`.
        ValueError
            On a non-positive ``deadline_ms``.
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
        batch = np.asarray(features)
        if batch.ndim != 2 or batch.shape[0] == 0:
            raise ValueError(
                f"features must be a non-empty (n, f) batch, got shape {batch.shape}"
            )
        now = time.monotonic()
        request = _PendingRequest(
            features=batch,
            future=Future(),
            rows=int(batch.shape[0]),
            enqueued_monotonic=now,
            deadline_monotonic=(now + deadline_ms / 1000.0) if deadline_ms else None,
        )
        with self._not_empty:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            if len(self._queue) >= self.queue_depth:
                self.stats.record_rejected_full()
                raise QueueFullError(
                    f"request queue is full ({self.queue_depth} pending)",
                    retry_after_s=self._retry_after_estimate(),
                )
            self._queue.append(request)
            self._not_empty.notify()
        return request.future

    def predict(
        self,
        features: np.ndarray,
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Blocking convenience wrapper: :meth:`submit` + ``Future.result``."""
        return self.submit(features, deadline_ms=deadline_ms).result(timeout=timeout)

    def queue_size(self) -> int:
        """Number of requests queued but not yet dispatched."""
        with self._lock:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop admissions and shut the dispatcher down (idempotent).

        With ``drain=True`` (the default) everything already queued is
        served before the dispatcher exits; with ``drain=False`` pending
        futures fail with :class:`SchedulerClosedError`.  Either way no
        future is left unresolved.
        """
        with self._not_empty:
            if self._closed:
                pending: List[_PendingRequest] = []
            else:
                self._closed = True
                pending = [] if drain else list(self._queue)
                if not drain:
                    self._queue.clear()
                self._not_empty.notify_all()
        for request in pending:
            request.future.set_exception(
                SchedulerClosedError("scheduler closed before dispatch")
            )
        if self._dispatcher.is_alive():
            self._dispatcher.join(timeout=timeout)

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ internals
    def _retry_after_estimate(self) -> float:
        """Retry-After hint: time to churn through the current backlog."""
        batch_seconds = self.stats.ewma_batch_seconds()
        if batch_seconds is None:
            return _DEFAULT_RETRY_AFTER_S
        backlog_batches = max(1.0, self.queue_depth / float(self.max_batch_size))
        return max(0.1, backlog_batches * batch_seconds)

    def _collect_batch(self) -> Optional[List[_PendingRequest]]:
        """Block until a micro-batch is ready (or ``None`` on shutdown).

        The coalescing rule: admit the oldest request unconditionally,
        then keep appending queued requests while the combined row count
        stays within ``max_batch_size``.  Whatever is queued arrived
        while the previous batch ran, so no wait is needed to batch
        under load.  Only a positive ``max_wait_ms`` makes the
        dispatcher wait out the rest of the oldest request's window for
        stragglers.
        """
        with self._not_empty:
            while not self._queue and not self._closed:
                self._not_empty.wait()
            if not self._queue:
                return None  # closed and drained
            batch = [self._queue.popleft()]
            rows = batch[0].rows
            window_end = batch[0].enqueued_monotonic + self.max_wait_ms / 1000.0
            while rows < self.max_batch_size:
                if self._queue:
                    if rows + self._queue[0].rows > self.max_batch_size:
                        break
                    request = self._queue.popleft()
                    batch.append(request)
                    rows += request.rows
                    continue
                remaining = window_end - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._not_empty.wait(timeout=remaining)
                if not self._queue:
                    break
            return batch

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            self._dispatch(batch)

    def _dispatch(self, batch: List[_PendingRequest]) -> None:
        # Shed requests whose deadline lapsed while they queued; the
        # client has (by its own declaration) stopped waiting.
        now = time.monotonic()
        live: List[_PendingRequest] = []
        for request in batch:
            if request.expired(now):
                self.stats.record_expired()
                request.future.set_exception(
                    DeadlineExceededError(
                        "deadline exceeded before dispatch "
                        f"(queued {now - request.enqueued_monotonic:.3f}s)"
                    )
                )
            else:
                live.append(request)
        if not live:
            return
        start = time.perf_counter()
        try:
            # Batch assembly stays inside the try: a request whose width
            # disagrees with its batchmates makes np.concatenate raise,
            # and that must fail the batch's futures, not kill the
            # dispatcher thread (which would wedge the scheduler).
            features = (
                live[0].features
                if len(live) == 1
                else np.concatenate([request.features for request in live], axis=0)
            )
            labels = np.asarray(self.pipeline.predict(features))
        except BaseException as error:  # fan the failure out, keep dispatching
            for request in live:
                request.future.set_exception(error)
            return
        elapsed = time.perf_counter() - start
        self.stats.record_batch(len(live), int(features.shape[0]), elapsed)
        offset = 0
        for request in live:
            request.future.set_result(labels[offset : offset + request.rows])
            offset += request.rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchScheduler(max_batch_size={self.max_batch_size}, "
            f"max_wait_ms={self.max_wait_ms}, queue_depth={self.queue_depth}, "
            f"queued={self.queue_size()}, closed={self.closed})"
        )
