"""Serving runtime: batched pipelines, micro-batching daemon, load testing.

The :mod:`repro.runtime` package turns the trained models of
:mod:`repro.core` and :mod:`repro.baselines` into a deployable serving
path, layered bottom-up:

* :class:`ServeConfig` -- the one declaration (defaults and validation)
  of how a serving run serves its models: engine, pruning and the
  micro-batching bounds.  ``repro serve``, :class:`WorkerConfig`,
  :class:`ModelServer`, :class:`ModelPool` and :class:`BatchScheduler`
  all forward into it instead of restating its defaults;
* :class:`InferencePipeline` -- chunks arbitrarily large query batches,
  keeps encoder/AM state warm, optionally shards chunks across a thread
  pool (``repro predict``; serving runs the pipeline defaults), and
  reports throughput statistics;
* :class:`BatchScheduler` -- coalesces concurrent requests into
  micro-batches behind a bounded queue with deadline/backpressure
  admission control, fanning results back out through futures;
* :class:`ModelPool` / :class:`ServedModel` -- hosts multiple
  registry-addressed models concurrently with per-model stats and atomic
  zero-downtime hot-swap;
* :class:`ModelServer` -- the ``repro serve`` stdlib-HTTP daemon over a
  pool (``/predict``, ``/models/<name>/predict``, ``/reload``,
  ``/healthz``, ``/stats``, ``/manifest``);
* :class:`WorkerSupervisor` / :class:`WorkerConfig` -- the
  ``repro serve --workers N`` prefork scale-out layer: N worker processes
  over one shared listening socket and memory-mapped checkpoints (a
  replica always loads mapped, a standalone server eagerly), with
  crash respawn, graceful drain, aggregated ``/stats`` and fanned-out
  ``/reload``;
* :func:`run_load` / :class:`LoadReport` -- the ``repro loadtest``
  open/closed-loop load generator reporting QPS and p50/p95/p99 latency.

Combined with the bit-packed similarity engine (:mod:`repro.hdc.packed`)
this is the "serves heavy traffic, as fast as the hardware allows"
deployment story of the roadmap -- and every layer preserves predictions
bit-exactly.
"""

from repro.runtime.config import ServeConfig
from repro.runtime.loadtest import LoadReport, run_load
from repro.runtime.pipeline import (
    InferencePipeline,
    PipelineResult,
    PipelineStats,
)
from repro.runtime.pool import (
    ModelPool,
    ModelStats,
    PoolError,
    ServedModel,
    UnknownModelError,
)
from repro.runtime.scheduler import (
    BatchScheduler,
    DeadlineExceededError,
    QueueFullError,
    SchedulerClosedError,
    SchedulerError,
    SchedulerStats,
)
from repro.runtime.server import ModelServer, ServerStats
from repro.runtime.workers import (
    WorkerConfig,
    WorkerSupervisor,
    fork_available,
    reuseport_available,
)

__all__ = [
    "BatchScheduler",
    "DeadlineExceededError",
    "InferencePipeline",
    "LoadReport",
    "ModelPool",
    "ModelServer",
    "ModelStats",
    "PipelineResult",
    "PipelineStats",
    "PoolError",
    "QueueFullError",
    "run_load",
    "SchedulerClosedError",
    "SchedulerError",
    "SchedulerStats",
    "ServeConfig",
    "ServedModel",
    "ServerStats",
    "UnknownModelError",
    "WorkerConfig",
    "WorkerSupervisor",
    "fork_available",
    "reuseport_available",
]
