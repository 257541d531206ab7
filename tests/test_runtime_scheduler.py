"""Unit and concurrency tests for the micro-batching BatchScheduler.

The scheduler is the correctness-critical piece of serving v2: it must
coalesce freely without ever changing a prediction, losing a request,
duplicating one, or leaving a future unresolved.  These tests pin all
four properties, including under a 16+ thread hammer and across clean and
abrupt shutdowns.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.runtime.config import ServeConfig
from repro.runtime.pipeline import InferencePipeline
from repro.runtime.scheduler import (
    BatchScheduler,
    DeadlineExceededError,
    QueueFullError,
    SchedulerClosedError,
)


class EchoPipeline:
    """Stub pipeline whose 'label' for a row is the row's first feature.

    Makes request-to-result routing trivially checkable: if request i
    sends rows filled with the value i, its future must resolve to all-i
    labels no matter how requests were glued into micro-batches.
    """

    def __init__(self):
        self.batch_rows = []
        self._lock = threading.Lock()

    def predict(self, features):
        with self._lock:
            self.batch_rows.append(int(np.asarray(features).shape[0]))
        return np.asarray(features)[:, 0].astype(np.int64)


class GatedPipeline(EchoPipeline):
    """EchoPipeline that blocks each dispatch until released."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()

    def predict(self, features):
        self.entered.set()
        assert self.release.wait(timeout=10.0), "gate never released"
        return super().predict(features)


class FailingPipeline:
    def predict(self, features):
        raise RuntimeError("engine exploded")


def _request(value: int, rows: int, width: int = 4) -> np.ndarray:
    return np.full((rows, width), float(value))


def _wait_until(condition, timeout: float = 10.0) -> None:
    """Poll ``condition`` until it holds; fail after ``timeout`` seconds."""
    give_up = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < give_up, "condition never held"
        time.sleep(0.001)


def _hammer(scheduler: BatchScheduler, pipeline: EchoPipeline) -> None:
    """16 threads x 10 mixed-width requests: every row comes back exactly
    once, to its own requester, and the dispatched rows add up."""
    results = {}
    errors = []

    def client(worker: int) -> None:
        try:
            for step in range(10):
                value = worker * 100 + step
                rows = 1 + (value % 4)
                labels = scheduler.predict(_request(value, rows), timeout=30.0)
                results[value] = labels.tolist()
        except Exception as error:  # pragma: no cover - fail loudly
            errors.append(error)

    threads = [threading.Thread(target=client, args=(w,)) for w in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not errors
    assert len(results) == 160
    for value, labels in results.items():
        assert labels == [value] * (1 + (value % 4))
    # Conservation: dispatched rows == submitted rows (no dup/loss).
    assert sum(pipeline.batch_rows) == sum(
        1 + (w * 100 + s) % 4 for w in range(16) for s in range(10)
    )
    assert max(pipeline.batch_rows) <= scheduler.max_batch_size


class TestValidation:
    def test_rejects_bad_knobs(self):
        pipeline = EchoPipeline()
        with pytest.raises(ValueError):
            BatchScheduler(pipeline, max_batch_size=0)
        with pytest.raises(ValueError):
            BatchScheduler(pipeline, max_wait_ms=-1)
        with pytest.raises(ValueError):
            BatchScheduler(pipeline, queue_depth=0)
        # An infinite window used to kill the dispatcher thread with an
        # OverflowError, timing out every later request.
        for wait_ms in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="max_wait_ms"):
                BatchScheduler(pipeline, max_wait_ms=wait_ms)

    @pytest.mark.parametrize(
        "settings",
        [
            {"engine": "quantum"},
            {"prune_topk": 0},
            {"max_batch_size": 0},
            {"max_batch_size": -4},
            {"queue_depth": 0},
            {"max_wait_ms": -1.0},
            {"max_wait_ms": float("nan")},
            {"max_wait_ms": float("inf")},
            {"max_wait_ms": float("-inf")},
        ],
    )
    def test_serve_config_rejects_bad_settings(self, settings):
        (field,) = settings
        with pytest.raises(ValueError, match=field):
            ServeConfig(**settings)

    def test_scheduler_defaults_are_serve_config_defaults(self):
        with BatchScheduler(EchoPipeline()) as scheduler:
            defaults = ServeConfig()
            assert scheduler.max_batch_size == defaults.max_batch_size
            assert scheduler.max_wait_ms == defaults.max_wait_ms
            assert scheduler.queue_depth == defaults.queue_depth

    def test_rejects_bad_submissions(self):
        with BatchScheduler(EchoPipeline()) as scheduler:
            with pytest.raises(ValueError):
                scheduler.submit(np.zeros((0, 4)))
            with pytest.raises(ValueError):
                scheduler.submit(np.zeros(4)[None, :], deadline_ms=0)
            with pytest.raises(ValueError):
                scheduler.submit(np.zeros((2, 2, 2)))


class TestCoalescing:
    def test_single_request_round_trip(self):
        with BatchScheduler(EchoPipeline(), max_wait_ms=0.0) as scheduler:
            labels = scheduler.predict(_request(7, rows=3))
            assert labels.tolist() == [7, 7, 7]

    def test_results_routed_to_the_right_request(self):
        """Coalesced or not, request i gets exactly its own rows back."""
        pipeline = EchoPipeline()
        with BatchScheduler(pipeline, max_batch_size=16, max_wait_ms=20.0) as sched:
            futures = {
                value: sched.submit(_request(value, rows=1 + value % 3))
                for value in range(12)
            }
            for value, future in futures.items():
                labels = future.result(timeout=10.0)
                assert labels.tolist() == [value] * (1 + value % 3)
        # With a 20 ms window and instant submissions, at least one
        # dispatch must have glued several requests together.
        assert max(pipeline.batch_rows) > 3

    def test_max_batch_size_is_never_exceeded(self):
        pipeline = EchoPipeline()
        with BatchScheduler(pipeline, max_batch_size=8, max_wait_ms=50.0) as sched:
            futures = [sched.submit(_request(i, rows=3)) for i in range(20)]
            wait(futures, timeout=10.0)
        assert pipeline.batch_rows, "nothing was dispatched"
        assert max(pipeline.batch_rows) <= 8

    def test_oversized_request_is_dispatched_alone(self):
        pipeline = EchoPipeline()
        with BatchScheduler(pipeline, max_batch_size=4, max_wait_ms=0.0) as sched:
            labels = sched.predict(_request(5, rows=10))
            assert labels.tolist() == [5] * 10
        assert 10 in pipeline.batch_rows

    def test_hammer_no_request_lost_or_duplicated(self):
        """>=16 threads, mixed batch sizes, an opt-in 2 ms window."""
        pipeline = EchoPipeline()
        with BatchScheduler(pipeline, max_batch_size=32, max_wait_ms=2.0) as sched:
            _hammer(sched, pipeline)


class TestAdaptiveBatching:
    """The default window is zero: an idle dispatcher serves a request at
    once, and whatever queued while a batch ran forms the next batch."""

    def test_serve_config_default_window_is_zero(self):
        assert ServeConfig().max_wait_ms == 0.0

    @pytest.mark.parametrize("queued", [1, 7, ServeConfig.max_batch_size])
    def test_requests_queued_during_a_dispatch_form_the_next_batch(self, queued):
        pipeline = GatedPipeline()
        scheduler = BatchScheduler(pipeline)
        try:
            first = scheduler.submit(_request(0, 1))
            # Dispatch 1 took the lone request without waiting for company.
            assert pipeline.entered.wait(timeout=5.0)
            futures = {}

            def client(value: int) -> None:
                futures[value] = scheduler.submit(_request(value, 1))

            clients = [
                threading.Thread(target=client, args=(value,))
                for value in range(1, queued + 1)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=10.0)
            _wait_until(lambda: scheduler.queue_size() == queued)
        finally:
            pipeline.release.set()
            scheduler.close()
        assert pipeline.batch_rows == [1, queued]
        assert first.result(timeout=5.0).tolist() == [0]
        for value, future in futures.items():
            assert future.result(timeout=5.0).tolist() == [value]

    def test_backlog_wider_than_max_batch_splits_in_order(self):
        pipeline = GatedPipeline()
        scheduler = BatchScheduler(pipeline, max_batch_size=4)
        try:
            scheduler.submit(_request(0, 1))
            assert pipeline.entered.wait(timeout=5.0)
            futures = [scheduler.submit(_request(value, 1)) for value in range(1, 11)]
            _wait_until(lambda: scheduler.queue_size() == 10)
        finally:
            pipeline.release.set()
            scheduler.close()
        assert pipeline.batch_rows == [1, 4, 4, 2]
        assert [f.result(timeout=5.0).tolist() for f in futures] == [
            [value] for value in range(1, 11)
        ]

    def test_hammer_default_window_conserves_rows(self):
        """No timed wait to hide a lost wake-up: 16 threads on a short
        interpreter switch interval must still conserve every row."""
        pipeline = EchoPipeline()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BatchScheduler(pipeline) as sched:
                assert sched.max_wait_ms == 0.0
                _hammer(sched, pipeline)
        finally:
            sys.setswitchinterval(interval)


class TestBitExactness:
    def test_batched_predictions_match_direct_model(self, trained_memhd, tiny_dataset):
        """Coalesced serving through a real pipeline is bit-identical to
        direct model.predict, per request, from 16 concurrent threads."""
        model, _ = trained_memhd
        pipeline = InferencePipeline(model, engine="packed", chunk_size=16)
        pipeline.warmup()
        features = tiny_dataset.test_features
        mismatches = []
        with BatchScheduler(pipeline, max_batch_size=24, max_wait_ms=2.0) as sched:

            def client(worker: int) -> None:
                rng = np.random.default_rng(worker)
                for _ in range(6):
                    size = int(rng.integers(1, 9))
                    start = int(rng.integers(0, len(features) - size))
                    batch = features[start : start + size]
                    served = sched.predict(batch, timeout=30.0)
                    expected = model.predict(batch, engine="packed")
                    if not np.array_equal(served, expected):
                        mismatches.append((worker, start, size))

            threads = [threading.Thread(target=client, args=(w,)) for w in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert not mismatches


class TestAdmissionControl:
    def test_queue_full_raises_with_retry_hint(self):
        pipeline = GatedPipeline()
        scheduler = BatchScheduler(
            pipeline, max_batch_size=1, max_wait_ms=0.0, queue_depth=2
        )
        try:
            first = scheduler.submit(_request(1, 1))
            assert pipeline.entered.wait(timeout=5.0)
            queued = [scheduler.submit(_request(value, 1)) for value in (2, 3)]
            with pytest.raises(QueueFullError) as excinfo:
                scheduler.submit(_request(4, 1))
            assert excinfo.value.retry_after_s > 0
            assert scheduler.stats.rejected_full == 1
        finally:
            pipeline.release.set()
            scheduler.close()
        assert first.result(timeout=5.0).tolist() == [1]
        assert [f.result(timeout=5.0).tolist() for f in queued] == [[2], [3]]

    def test_expired_deadline_fails_instead_of_serving(self):
        pipeline = GatedPipeline()
        scheduler = BatchScheduler(pipeline, max_batch_size=1, max_wait_ms=0.0)
        try:
            blocker = scheduler.submit(_request(1, 1))
            assert pipeline.entered.wait(timeout=5.0)
            doomed = scheduler.submit(_request(2, 1), deadline_ms=20)
            # The deadline was stamped inside submit, so it has passed
            # once 20 ms have passed since submit returned.
            lapsed = time.monotonic() + 0.020
            _wait_until(lambda: time.monotonic() > lapsed)
        finally:
            pipeline.release.set()
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=5.0)
        assert blocker.result(timeout=5.0).tolist() == [1]
        assert scheduler.stats.expired_deadlines == 1
        scheduler.close()
        # The doomed request's rows were never dispatched.
        assert sum(pipeline.batch_rows) == 1

    def test_mismatched_widths_fail_batch_not_dispatcher(self):
        """A request whose width disagrees with its batchmates must fail
        its own batch cleanly; the dispatcher survives (regression: the
        concatenate used to run outside the try and killed the thread)."""
        pipeline = GatedPipeline()
        scheduler = BatchScheduler(pipeline, max_batch_size=8, max_wait_ms=50.0)
        try:
            blocker = scheduler.submit(_request(0, 1))
            assert pipeline.entered.wait(timeout=5.0)
            narrow = scheduler.submit(np.zeros((1, 4)))
            wide = scheduler.submit(np.zeros((1, 7)))
            pipeline.release.set()
            assert blocker.result(timeout=5.0).tolist() == [0]
            for future in (narrow, wide):
                with pytest.raises(ValueError):
                    future.result(timeout=5.0)
            # The dispatcher is still alive and serving.
            assert scheduler.predict(_request(9, 2), timeout=5.0).tolist() == [9, 9]
        finally:
            scheduler.close()

    def test_pipeline_failure_fans_out_without_killing_dispatcher(self):
        with BatchScheduler(FailingPipeline(), max_wait_ms=0.0) as scheduler:
            future = scheduler.submit(_request(1, 2))
            with pytest.raises(RuntimeError, match="engine exploded"):
                future.result(timeout=5.0)
            # The dispatcher survives to fail the next request too.
            with pytest.raises(RuntimeError, match="engine exploded"):
                scheduler.predict(_request(2, 1), timeout=5.0)


class TestShutdown:
    def test_close_drains_queued_requests(self):
        """A draining close serves everything queued -- no hung futures."""
        pipeline = GatedPipeline()
        scheduler = BatchScheduler(pipeline, max_batch_size=1, max_wait_ms=0.0)
        first = scheduler.submit(_request(0, 1))
        assert pipeline.entered.wait(timeout=5.0)
        queued = [scheduler.submit(_request(value, 1)) for value in (1, 2, 3)]
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        pipeline.release.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert first.result(timeout=1.0).tolist() == [0]
        for value, future in enumerate(queued, start=1):
            assert future.result(timeout=1.0).tolist() == [value]

    def test_abrupt_close_fails_pending_futures(self):
        pipeline = GatedPipeline()
        scheduler = BatchScheduler(pipeline, max_batch_size=1, max_wait_ms=0.0)
        scheduler.submit(_request(0, 1))
        assert pipeline.entered.wait(timeout=5.0)
        pending = scheduler.submit(_request(1, 1))
        pipeline.release.set()
        scheduler.close(drain=False)
        # Either served before the close popped it, or failed cleanly --
        # never left unresolved.
        assert pending.done()
        try:
            assert pending.result().tolist() == [1]
        except SchedulerClosedError:
            pass

    def test_submit_after_close_raises(self):
        scheduler = BatchScheduler(EchoPipeline())
        scheduler.close()
        with pytest.raises(SchedulerClosedError):
            scheduler.submit(_request(1, 1))

    def test_close_is_idempotent(self):
        scheduler = BatchScheduler(EchoPipeline())
        scheduler.close()
        scheduler.close()
        assert scheduler.closed


class TestStats:
    def test_histogram_and_counters_account_known_traffic(self):
        pipeline = EchoPipeline()
        with BatchScheduler(pipeline, max_batch_size=64, max_wait_ms=0.0) as sched:
            for value in range(5):
                sched.predict(_request(value, rows=2))
        stats = sched.stats.as_dict()
        assert stats["queries"] == 10
        assert stats["coalesced_requests"] == 5
        assert stats["batches"] == sum(stats["batch_size_histogram"].values())
        total_rows = sum(
            int(rows) * count
            for rows, count in stats["batch_size_histogram"].items()
        )
        assert total_rows == 10
        assert stats["rejected_full"] == 0
        assert stats["expired_deadlines"] == 0
        assert stats["mean_batch_rows"] == pytest.approx(10 / stats["batches"])
