"""Batched inference pipeline with engine selection and throughput stats.

:class:`InferencePipeline` wraps any fitted classifier from this library
(anything exposing ``predict``; see :class:`repro.baselines.base.HDCClassifier`)
and serves large query batches the way a deployment would:

* **chunking** -- arbitrarily large feature batches are split into
  fixed-size chunks so peak memory stays bounded regardless of batch size;
* **engine selection** -- ``engine="packed"`` routes every chunk through
  the bit-packed popcount engine when the model supports it (MEMHD,
  BasicHDC, QuantHD), ``engine="float"`` keeps the reference matmul path;
* **state warm-up** -- encoder and packed-AM state is built once up front
  (``prepare_engine``) instead of lazily inside the first timed chunk;
* **sharding** -- chunks can be fanned out across a
  :class:`concurrent.futures.ThreadPoolExecutor`; the heavy numpy and
  popcount kernels release the GIL, so multi-core hosts scale;
* **stats** -- every run reports chunk counts, wall time and
  queries/second (:class:`PipelineStats`).

The pipeline never changes predictions: for any engine and any chunk size
the labels are bit-identical to a single ``model.predict`` call, an
invariant pinned by ``tests/test_runtime_pipeline.py``.
"""

from __future__ import annotations

import inspect
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hdc.engine import ENGINES, check_engine

#: Floor applied to elapsed wall times before computing rates.  Tiny
#: batches can finish between two clock ticks, making the raw elapsed time
#: 0.0; reporting an infinite throughput for them would poison downstream
#: aggregations (means, JSON stores), so rates are computed against at
#: least one nanosecond -- well below any measurable run.
MIN_MEASURABLE_SECONDS = 1e-9


@dataclass(frozen=True)
class PipelineStats:
    """Throughput accounting for one :meth:`InferencePipeline.run` call.

    Attributes
    ----------
    engine:
        Similarity engine used (``"float"`` or ``"packed"``).
    total_queries:
        Number of query rows served.
    num_chunks:
        Number of chunks the batch was split into.
    chunk_size:
        Configured chunk size (the last chunk may be smaller).
    workers:
        Thread-pool width used to shard chunks (1 = serial).
    elapsed_seconds:
        Wall-clock time of the full run (warm-up excluded).
    chunk_seconds:
        Per-chunk wall times; under sharding these overlap, so their sum
        can exceed ``elapsed_seconds``.
    """

    engine: str
    total_queries: int
    num_chunks: int
    chunk_size: int
    workers: int
    elapsed_seconds: float
    chunk_seconds: List[float] = field(default_factory=list)

    @property
    def queries_per_second(self) -> float:
        """End-to-end serving throughput.

        Always finite: sub-resolution elapsed times are clamped to
        :data:`MIN_MEASURABLE_SECONDS` so a timer reading of exactly zero
        (possible for tiny batches on coarse clocks) yields a huge but
        finite -- and JSON-serializable -- rate instead of ``inf``.
        """
        return self.total_queries / max(self.elapsed_seconds, MIN_MEASURABLE_SECONDS)

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "total_queries": self.total_queries,
            "num_chunks": self.num_chunks,
            "chunk_size": self.chunk_size,
            "workers": self.workers,
            "elapsed_s": self.elapsed_seconds,
            "queries_per_s": self.queries_per_second,
        }


@dataclass(frozen=True)
class PipelineResult:
    """Labels plus throughput stats returned by :meth:`InferencePipeline.run`."""

    labels: np.ndarray
    stats: PipelineStats


def _accepts_engine(predict: Callable) -> bool:
    """Whether ``predict`` declares an explicit ``engine`` parameter.

    A bare ``**kwargs`` does not count: a model that merely swallows the
    keyword would be silently served on its default path while the stats
    claim the packed engine ran.
    """
    try:
        parameters = inspect.signature(predict).parameters
    except (TypeError, ValueError):  # builtins / extension callables
        return False
    return "engine" in parameters


class InferencePipeline:
    """Chunked (optionally sharded) batch-serving wrapper around a model.

    Parameters
    ----------
    model:
        A fitted classifier exposing ``predict(features)``.  Models whose
        ``predict`` accepts an ``engine`` keyword (MEMHD and the wired
        baselines) can be served with ``engine="packed"``.
    engine:
        ``"float"`` (reference matmul path), ``"packed"`` (bit-packed
        popcount path) or ``"pruned"`` (centroid-pruned shortlist search
        over the packed kernels).  Requesting ``"packed"`` or
        ``"pruned"`` from a model that does not support it raises
        :class:`ValueError`.
    chunk_size:
        Maximum number of query rows per chunk.
    workers:
        Thread-pool width for sharding chunks; 1 runs chunks serially.
    prune_topk:
        Shortlist width for the pruned engine (classes exactly re-ranked
        per query); ``None`` keeps the model's heuristic default.  Only
        meaningful with ``engine="pruned"``.
    """

    def __init__(
        self,
        model,
        engine: str = "float",
        chunk_size: int = 1024,
        workers: int = 1,
        prune_topk: Optional[int] = None,
    ) -> None:
        check_engine(engine)
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if prune_topk is not None and prune_topk < 1:
            raise ValueError(f"prune_topk must be >= 1, got {prune_topk}")
        if not callable(getattr(model, "predict", None)):
            raise TypeError("model must expose a callable predict(features)")
        self.model = model
        self.engine = engine
        self.chunk_size = int(chunk_size)
        self.workers = int(workers)
        self.prune_topk = None if prune_topk is None else int(prune_topk)
        self._takes_engine = _accepts_engine(model.predict)
        if engine in ("packed", "pruned") and not self._takes_engine:
            raise ValueError(
                f"{type(model).__name__}.predict does not accept an engine "
                f"keyword; the {engine} engine is unavailable for this model"
            )
        self._warm = False
        self._warmup_lock = threading.Lock()

    # ------------------------------------------------------------------ API
    def warmup(self) -> None:
        """Build engine state (packed AM, encoder caches) ahead of serving.

        Called automatically by :meth:`run` / :meth:`predict`; idempotent
        and thread-safe (the serving runtime's scheduler and handler
        threads may race to warm a freshly loaded model, and
        ``prepare_engine`` must not run twice concurrently while it
        builds packed state).  Models without a ``prepare_engine`` hook
        are warmed implicitly by their first chunk instead.
        """
        if self._warm:
            return
        with self._warmup_lock:
            if self._warm:
                return
            if self.engine == "pruned" and self.prune_topk is not None:
                configure = getattr(self.model, "configure_pruning", None)
                if callable(configure):
                    configure(self.prune_topk)
            prepare = getattr(self.model, "prepare_engine", None)
            if callable(prepare):
                prepare(self.engine)
            self._warm = True

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Chunked prediction; labels identical to ``model.predict``."""
        return self.run(features).labels

    def prune_stats(self) -> Optional[dict]:
        """The model's prune counters (None when not exposed / not built)."""
        hook = getattr(self.model, "prune_stats", None)
        if callable(hook):
            return hook()
        return None

    def run(self, features: np.ndarray) -> PipelineResult:
        """Serve a full batch and return labels plus throughput stats."""
        arr = np.asarray(features)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise ValueError(f"expected 1-D or 2-D features, got ndim={arr.ndim}")
        self.warmup()

        chunks = self._chunk_bounds(arr.shape[0])
        chunk_seconds = [0.0] * len(chunks)

        def serve(index_bounds) -> np.ndarray:
            index, (start, stop) = index_bounds
            chunk_start = time.perf_counter()
            labels = self._predict_chunk(arr[start:stop])
            chunk_seconds[index] = time.perf_counter() - chunk_start
            return labels

        run_start = time.perf_counter()
        if self.workers > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                parts = list(pool.map(serve, enumerate(chunks)))
        else:
            parts = [serve(item) for item in enumerate(chunks)]
        elapsed = time.perf_counter() - run_start

        labels = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        stats = PipelineStats(
            engine=self.engine,
            total_queries=int(arr.shape[0]),
            num_chunks=len(chunks),
            chunk_size=self.chunk_size,
            workers=self.workers,
            elapsed_seconds=elapsed,
            chunk_seconds=chunk_seconds,
        )
        return PipelineResult(labels=labels, stats=stats)

    # ------------------------------------------------------------ internals
    def _chunk_bounds(self, total: int) -> Sequence[tuple]:
        return [
            (start, min(start + self.chunk_size, total))
            for start in range(0, total, self.chunk_size)
        ]

    def _predict_chunk(self, chunk: np.ndarray) -> np.ndarray:
        if self._takes_engine:
            return np.asarray(self.model.predict(chunk, engine=self.engine))
        return np.asarray(self.model.predict(chunk))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InferencePipeline(model={type(self.model).__name__}, "
            f"engine={self.engine!r}, chunk_size={self.chunk_size}, "
            f"workers={self.workers})"
        )


def throughput_comparison(
    model,
    features: np.ndarray,
    engines: Sequence[str] = ENGINES,
    chunk_size: int = 1024,
    workers: int = 1,
    repeats: int = 1,
) -> Tuple[np.ndarray, List[PipelineStats]]:
    """Serve the same batch under several engines and collect their stats.

    Used by the CLI and the packed-similarity benchmark to report
    float-vs-packed speedups on identical inputs.  Returns the predicted
    labels (identical across engines -- checked) together with the best
    (fastest) of ``repeats`` runs per engine, so callers do not need an
    extra inference pass to use the predictions.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if not engines:
        raise ValueError("engines must name at least one engine")
    results: List[PipelineStats] = []
    reference: Optional[np.ndarray] = None
    for engine in engines:
        pipeline = InferencePipeline(
            model, engine=engine, chunk_size=chunk_size, workers=workers
        )
        pipeline.warmup()
        best: Optional[PipelineResult] = None
        for _ in range(repeats):
            result = pipeline.run(features)
            if best is None or (
                result.stats.elapsed_seconds < best.stats.elapsed_seconds
            ):
                best = result
        assert best is not None
        if reference is None:
            reference = best.labels
        elif not np.array_equal(reference, best.labels):
            raise AssertionError(
                f"engine {engine!r} changed predictions; engines must be "
                "bit-exact"
            )
        results.append(best.stats)
    assert reference is not None
    return reference, results
