"""Multi-model hosting with routing, per-model stats and hot-swap.

The PR 2 server hosted exactly one model for its whole lifetime; pointing
traffic at a new checkpoint meant restarting the daemon.  A
:class:`ModelPool` instead hosts any number of **served models**, each a
self-contained unit of (model, warm pipeline, micro-batch scheduler,
manifest, counters), addressed by a routing key -- the artifact-registry
name by convention.  The HTTP layer routes by URL path
(``/models/<key>/predict``) or JSON ``model`` field and the pool supplies:

* **atomic hot-swap** -- :meth:`ModelPool.reload` builds and warms the
  replacement *completely* before swapping it into the routing table
  under the pool lock, then drains the old scheduler.  A request resolves
  its :class:`ServedModel` snapshot exactly once, so every response is
  served wholly by one model version -- in-flight requests finish on the
  version they were admitted to, new requests route to the new one, and
  ``GET /manifest`` can never observe a half-swapped entry;
* **per-model accounting** -- request/query/error counters and the
  scheduler's batch-size histogram, nested under the server-level
  ``GET /stats``;
* **registry integration** -- pool entries loaded by ``name[:tag]`` spec
  remember the spec they were asked for, so reloading an entry pinned to
  ``name:latest`` picks up tags saved after the server started (the
  zero-downtime deploy story), while ``name:v3`` stays pinned.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.runtime.config import ServeConfig
from repro.runtime.pipeline import InferencePipeline
from repro.runtime.scheduler import BatchScheduler

#: Spec recorded for models handed to the pool as live objects.
IN_PROCESS_SPEC = "<in-process>"


class PoolError(Exception):
    """Base class for model-pool failures."""


class UnknownModelError(PoolError):
    """No served model under the requested routing key (HTTP 404)."""


class ModelStats:
    """Thread-safe per-model serving counters.

    Unlike the PR 2 :class:`~repro.runtime.server.ServerStats`, error
    responses are tracked **separately per status code** and contribute
    neither queries nor wall time, so ``queries_per_second`` measures only
    successfully served work (the regression the stats-schema test pins).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.queries = 0
        self.errors = 0
        self.predict_seconds = 0.0
        self.errors_by_status: Dict[int, int] = {}

    def record_predict(self, queries: int, seconds: float) -> None:
        with self._lock:
            self.requests += 1
            self.queries += int(queries)
            self.predict_seconds += float(seconds)

    def record_error(self, status: int = 0) -> None:
        """Account one failed request (status 0 = unclassified)."""
        with self._lock:
            self.requests += 1
            self.errors += 1
            self.errors_by_status[int(status)] = (
                self.errors_by_status.get(int(status), 0) + 1
            )

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            predict_seconds = self.predict_seconds
            queries = self.queries
            return {
                "requests": self.requests,
                "queries": queries,
                "errors": self.errors,
                "errors_by_status": {
                    str(status): count
                    for status, count in sorted(self.errors_by_status.items())
                },
                "predict_s": predict_seconds,
                "queries_per_second": (
                    queries / predict_seconds if predict_seconds > 0 else 0.0
                ),
            }


class ServedModel:
    """One hosted model version: warm pipeline + scheduler + bookkeeping.

    Instances are immutable routing snapshots: a request that resolved
    this object keeps using it even if the pool swaps in a successor, so
    the response is wholly produced by one version.
    """

    def __init__(
        self,
        key: str,
        model,
        pipeline: InferencePipeline,
        scheduler: Optional[BatchScheduler],
        manifest=None,
        spec: str = IN_PROCESS_SPEC,
        resolved_spec: Optional[str] = None,
        version: int = 1,
    ) -> None:
        self.key = key
        self.model = model
        self.pipeline = pipeline
        self.scheduler = scheduler
        self.manifest = manifest
        self.spec = spec
        self.resolved_spec = resolved_spec or spec
        self.version = int(version)
        self.stats = ModelStats()
        self.loaded_unix = time.time()

    @property
    def num_features(self) -> Optional[int]:
        """Input width served by this model (``None`` when unknown)."""
        value = getattr(self.model, "num_features", None)
        return int(value) if value is not None else None

    def predict(
        self,
        features: np.ndarray,
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Serve one request through the scheduler (or directly when
        batching is disabled; direct mode has no queue, so deadlines do
        not apply)."""
        if self.scheduler is not None:
            return self.scheduler.predict(
                features, deadline_ms=deadline_ms, timeout=timeout
            )
        return np.asarray(self.pipeline.predict(features))

    def manifest_dict(self) -> Dict[str, Any]:
        """The entry's checkpoint manifest as a JSON-compatible dict."""
        if self.manifest is None:
            return {}
        if isinstance(self.manifest, dict):
            return self.manifest
        return json.loads(self.manifest.to_json())

    def describe(self) -> Dict[str, Any]:
        """Routing-table row used by ``/healthz`` and ``/stats``."""
        return {
            "key": self.key,
            "spec": self.spec,
            "artifact": self.resolved_spec,
            "version": self.version,
            "engine": self.pipeline.engine,
            "num_features": self.num_features,
            "loaded_unix": self.loaded_unix,
        }

    def stats_dict(self) -> Dict[str, Any]:
        payload = self.describe()
        payload.update(self.stats.as_dict())
        payload["scheduler"] = (
            self.scheduler.stats.as_dict() if self.scheduler is not None else None
        )
        payload["queue_depth"] = (
            self.scheduler.queue_size() if self.scheduler is not None else 0
        )
        payload["pruned"] = self.pipeline.prune_stats()
        return payload

    def close(self, drain: bool = True) -> None:
        if self.scheduler is not None:
            self.scheduler.close(drain=drain)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServedModel(key={self.key!r}, artifact={self.resolved_spec!r}, "
            f"version={self.version}, engine={self.pipeline.engine!r})"
        )


class ModelPool:
    """Routing table of :class:`ServedModel` entries with hot-swap.

    Parameters
    ----------
    registry:
        Optional :class:`repro.io.registry.ArtifactRegistry` used by
        :meth:`add_spec` and :meth:`reload`.  Pools built purely around
        in-process model objects work without one (reload then requires
        nothing, and attempting it raises :class:`PoolError`).
    **settings:
        The :class:`~repro.runtime.config.ServeConfig` every entry is
        built from (engine and pruning for its pipeline; ``batching`` and
        the micro-batching bounds for its scheduler).  With
        ``batching=False`` entries get no scheduler and requests run
        directly on the handler thread.

    Registry specs load eagerly unless :attr:`mapped` is set.
    """

    #: Load registry specs through the zero-copy
    #: :func:`repro.io.checkpoint.load_mapped` path.  ``ModelServer`` sets
    #: it on prefork replicas, so every worker process serving the same
    #: checkpoint shares one physical copy of its arrays.
    mapped = False

    def __init__(self, registry=None, **settings) -> None:
        self.registry = registry
        self.config = ServeConfig(**settings)
        self._lock = threading.Lock()
        # Serializes reload's get -> build -> install sequence; without
        # it two concurrent reloads of one key could both claim the same
        # successor version number.
        self._reload_lock = threading.Lock()
        self._entries: Dict[str, ServedModel] = {}
        self._default_key: Optional[str] = None
        self._closed = False

    # ------------------------------------------------------------- building
    def _build_entry(
        self,
        key: str,
        model,
        manifest,
        spec: str,
        resolved_spec: Optional[str],
        version: int,
    ) -> ServedModel:
        config = self.config
        pipeline = InferencePipeline(
            model, engine=config.engine, prune_topk=config.prune_topk
        )
        pipeline.warmup()
        scheduler = (
            BatchScheduler(
                pipeline,
                max_batch_size=config.max_batch_size,
                max_wait_ms=config.max_wait_ms,
                queue_depth=config.queue_depth,
            )
            if config.batching
            else None
        )
        return ServedModel(
            key=key,
            model=model,
            pipeline=pipeline,
            scheduler=scheduler,
            manifest=manifest,
            spec=spec,
            resolved_spec=resolved_spec,
            version=version,
        )

    def _install(self, entry: ServedModel) -> ServedModel:
        with self._lock:
            if self._closed:
                entry.close(drain=False)
                raise PoolError("model pool is closed")
            previous = self._entries.get(entry.key)
            self._entries[entry.key] = entry
            if self._default_key is None:
                self._default_key = entry.key
        if previous is not None:
            # Swap first, drain second: in-flight requests finish on the
            # version that admitted them while new traffic already routes
            # to the replacement -- zero downtime, no torn responses.
            previous.close(drain=True)
        return entry

    def add_model(self, key: str, model, manifest=None) -> ServedModel:
        """Host an in-process model object under ``key``."""
        if not key:
            raise PoolError("model key must be non-empty")
        return self._install(
            self._build_entry(
                key, model, manifest, IN_PROCESS_SPEC, IN_PROCESS_SPEC, version=1
            )
        )

    def add_spec(self, spec: str, key: Optional[str] = None) -> ServedModel:
        """Load ``name[:tag]`` from the registry and host it.

        The routing key defaults to the artifact *name*, so
        ``add_spec("mnist:v3")`` serves at ``/models/mnist/predict``.
        """
        model, manifest, resolved = self._load_spec(spec)
        name = resolved.partition(":")[0]
        return self._install(
            self._build_entry(key or name, model, manifest, spec, resolved, version=1)
        )

    def _load_spec(self, spec: str):
        if self.registry is None:
            raise PoolError("pool has no artifact registry to load specs from")
        return self.registry.load_with_manifest(spec, mapped=self.mapped)

    # -------------------------------------------------------------- routing
    @property
    def default_key(self) -> Optional[str]:
        with self._lock:
            return self._default_key

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def get(self, key: Optional[str] = None) -> ServedModel:
        """Resolve a routing key (default model when ``key`` is ``None``).

        The returned snapshot stays valid for the whole request even if a
        reload swaps the key meanwhile.
        """
        with self._lock:
            resolved = key if key is not None else self._default_key
            if resolved is None or resolved not in self._entries:
                raise UnknownModelError(
                    f"unknown model {resolved!r}; serving {sorted(self._entries)}"
                )
            return self._entries[resolved]

    # ------------------------------------------------------------- hot swap
    def reload(
        self, key: Optional[str] = None, spec: Optional[str] = None
    ) -> ServedModel:
        """Hot-swap one entry from the registry; returns the new version.

        ``spec`` defaults to the entry's original spec, so an entry added
        as ``name`` / ``name:latest`` re-resolves latest (picking up newly
        saved tags) while an entry pinned to an exact tag reloads that
        tag.  The replacement is fully built and warmed before the routing
        table changes; the old version drains its queue and retires.
        Concurrent reloads are serialized, so version numbers are strictly
        monotonic per key and every ``status: reloaded`` response names
        the entry that actually ended up serving.
        """
        with self._reload_lock:
            current = self.get(key)
            if spec is None and current.spec == IN_PROCESS_SPEC:
                raise PoolError(
                    f"model {current.key!r} was provided in-process; pass a "
                    "registry spec to reload it from a checkpoint"
                )
            model, manifest, resolved = self._load_spec(spec or current.spec)
            entry = self._build_entry(
                current.key,
                model,
                manifest,
                spec or current.spec,
                resolved,
                version=current.version + 1,
            )
            return self._install(entry)

    # ----------------------------------------------------------- inspection
    def stats_dict(self) -> Dict[str, Any]:
        """Per-model stats keyed by routing key (for ``GET /stats``)."""
        with self._lock:
            entries = list(self._entries.values())
        return {entry.key: entry.stats_dict() for entry in entries}

    def describe(self) -> List[Dict[str, Any]]:
        with self._lock:
            entries = list(self._entries.values())
        return [entry.describe() for entry in entries]

    def total_queue_size(self) -> int:
        with self._lock:
            entries = list(self._entries.values())
        return sum(
            entry.scheduler.queue_size()
            for entry in entries
            if entry.scheduler is not None
        )

    # -------------------------------------------------------------- teardown
    def close(self, drain: bool = True) -> None:
        """Close every entry's scheduler (idempotent)."""
        with self._lock:
            self._closed = True
            entries = list(self._entries.values())
        for entry in entries:
            entry.close(drain=drain)

    def __enter__(self) -> "ModelPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelPool(models={self.keys()}, engine={self.config.engine!r}, "
            f"batching={self.config.batching})"
        )
