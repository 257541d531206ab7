"""The one declaration of every serving setting.

``repro serve``, :class:`~repro.runtime.workers.WorkerConfig`,
:class:`~repro.runtime.server.ModelServer`,
:class:`~repro.runtime.pool.ModelPool` and
:class:`~repro.runtime.scheduler.BatchScheduler` all describe a serving
run with the same six values.  :class:`ServeConfig` is the only place
their defaults are written and the only place they are validated; every
other layer forwards keywords into it or reads its fields.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro.hdc.engine import check_engine


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """How every model of one server (or prefork replica) is served.

    Attributes
    ----------
    engine:
        Similarity engine of every pipeline (``float`` / ``packed`` /
        ``pruned``).  ``repro serve`` defaults to ``packed``; the library
        keeps the dense reference path.
    prune_topk:
        Shortlist width of the pruned engine (``None`` = per-model
        heuristic); only meaningful with ``engine="pruned"``.
    batching:
        ``False`` serves one direct pipeline call per request, with no
        queue (the serving benchmark's baseline).
    max_batch_size:
        Micro-batch row bound.  Matched to the packed engine's sweet spot
        for small models; wider requests are dispatched alone.
    max_wait_ms:
        Upper bound on how long the dispatcher holds an admitted request
        open for coalescing.  The default ``0`` is adaptive batching: an
        idle dispatcher takes whatever is queued and dispatches it at
        once, so a lone request never waits for company, and under load
        every request that arrived during one dispatch forms the next
        batch.  Raise it only when requests arrive just too far apart to
        overlap a dispatch (the ``/stats`` batch-size histogram stays
        massed at 1 while throughput falls short) and wider batches are
        worth the added latency.
    queue_depth:
        Bound on queued requests per model; beyond it admission fails
        with HTTP 429.

    Raises
    ------
    ValueError
        On an unknown engine, ``prune_topk < 1``, a non-positive
        ``max_batch_size`` / ``queue_depth``, or a ``max_wait_ms`` that is
        negative, NaN or infinite.
    """

    engine: str = "float"
    prune_topk: Optional[int] = None
    batching: bool = True
    max_batch_size: int = 64
    max_wait_ms: float = 0.0
    queue_depth: int = 128

    def __post_init__(self) -> None:
        check_engine(self.engine)
        if self.prune_topk is not None and self.prune_topk < 1:
            raise ValueError(f"prune_topk must be >= 1, got {self.prune_topk}")
        if self.max_batch_size <= 0:
            raise ValueError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        # An infinite window overflows the dispatcher's condition wait and
        # kills its thread, so every later request would time out.
        if not math.isfinite(self.max_wait_ms) or self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be finite and non-negative, got {self.max_wait_ms}"
            )
        if self.queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {self.queue_depth}")
