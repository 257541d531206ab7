"""The continual-learning serving loop: feedback, shadow training, promotion.

``core/online.py`` gives MEMHD incremental updates and PR 4/6 gave the
runtime zero-downtime hot-swap; this module composes them into a service
lifecycle so a deployed model recovers from distribution drift without
ever taking bad weights to traffic:

1. **Feedback ingestion** -- ``POST /feedback`` bodies (feature rows +
   true labels) land in a bounded, thread-safe :class:`FeedbackBuffer`.
   A deterministic stride routes every Nth sample into a rolling
   **holdout reservoir** instead of the training buffer, so the gate is
   always scored on recent, never-trained-on data from the *current*
   distribution.
2. **Shadow training** -- a background thread folds buffered samples
   into a **shadow copy** of the served model via
   :meth:`repro.core.online.OnlineMEMHD.partial_fit`.  The served model
   is never touched in place (prefork workers keep reading their
   memory-mapped checkpoint pages untouched).
3. **Gated promotion** -- after each fold the shadow and the currently
   served model are both evaluated on the holdout reservoir (reusing
   :func:`repro.eval.metrics.accuracy`); every evaluation appends a
   drift record to a PR 3 :class:`repro.eval.store.ResultStore`.  Only a
   shadow that clears ``promote_threshold`` *and* beats the live model
   by ``promote_margin`` is saved to the artifact registry as a
   versioned **incremental checkpoint** (manifest ``lineage`` pointing
   at its parent ``name:tag``) and hot-swapped into traffic through the
   injected promote callback (``POST /reload`` fan-out).  A failed
   shadow eval therefore never reaches traffic, and any promotion can be
   rolled back with ``POST /reload {"spec": "name:old-tag"}``.
4. **Graceful drain** -- :meth:`OnlineLearner.stop` folds whatever is
   still buffered and, when any folded feedback is not yet persisted,
   writes a final (unpromoted) incremental checkpoint -- acknowledged
   feedback is never lost on graceful drain.

The learner is transport-agnostic: :class:`repro.runtime.server.ModelServer`
owns one directly in single-process mode, while the prefork
:class:`repro.runtime.workers.WorkerSupervisor` owns the single learner
for the whole pool and workers forward ``/feedback`` over their
escalation channel (the 200 ack is only sent once the supervisor has
buffered the samples, so a SIGKILLed worker cannot lose acknowledged
feedback).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

# NOTE: repro.core / repro.io / repro.eval are imported lazily inside the
# functions below -- repro.core.model imports repro.runtime.pipeline, so a
# module-level import here would be circular (runtime/__init__ pulls in
# the server, which pulls in this module).

#: Default name of the drift-record JSONL written next to the artifact.
DRIFT_STORE_FILENAME = "online-drift.jsonl"


class FeedbackError(Exception):
    """Base class of feedback-submission failures."""


class BufferFullError(FeedbackError):
    """The bounded update buffer cannot admit the batch (backpressure)."""


class LearnerClosedError(FeedbackError):
    """Feedback arrived after the learner began shutting down."""


def feedback_error_status(error: Exception) -> int:
    """HTTP status for a feedback-submission failure (shared by the
    single-process server and the prefork escalation handler)."""
    if isinstance(error, BufferFullError):
        return 429
    if isinstance(error, LearnerClosedError):
        return 503
    if isinstance(error, ValueError):
        return 400
    return 500


@dataclasses.dataclass(frozen=True)
class OnlineConfig:
    """Knobs of the continual-learning loop (``repro serve --online``).

    Attributes
    ----------
    promote_threshold:
        Minimum holdout accuracy the shadow must reach to be promoted.
    promote_margin:
        How much the shadow must beat the *live* model by on the same
        holdout slice.  ``0.0`` promotes on ties -- raise it to make
        promotions stickier under a noisy holdout.
    min_feedback:
        Buffered training samples that trigger a fold (a graceful drain
        folds whatever is left regardless).
    interval_s:
        Cadence of the background trainer's buffer checks.
    buffer_size:
        Bound of the update buffer; beyond it ``POST /feedback`` sheds
        load with HTTP 429.
    eval_fraction:
        Share of incoming feedback withheld from training into the
        holdout reservoir (deterministic stride: every ``round(1/f)``-th
        sample).  ``0`` disables the gate -- the shadow keeps folding but
        is never promoted.
    eval_window:
        Rolling bound of the holdout reservoir (old samples fall out, so
        the gate tracks the current distribution).
    fold_chunk:
        Rows per :meth:`~repro.core.online.OnlineMEMHD.partial_fit` call
        when folding a drained buffer.
    learning_rate:
        Step size of the streaming updates; defaults to the model
        config's training rate (often too timid for drift recovery --
        the drift tests use ``0.5``).
    checkpoint_name:
        Registry name for incremental checkpoints; defaults to the served
        artifact's name (new tags are auto-assigned ``v2``, ``v3``, ...).
    results_path:
        Drift-record JSONL path; defaults to ``online-drift.jsonl`` next
        to the artifact's checkpoints inside the store.
    seed:
        Seed of the learner's internal RNG (class-addition clustering).
    """

    promote_threshold: float = 0.0
    promote_margin: float = 0.0
    min_feedback: int = 32
    interval_s: float = 1.0
    buffer_size: int = 4096
    eval_fraction: float = 0.25
    eval_window: int = 256
    fold_chunk: int = 64
    learning_rate: Optional[float] = None
    checkpoint_name: Optional[str] = None
    results_path: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if self.min_feedback < 1:
            raise ValueError("min_feedback must be >= 1")
        if not 0.0 <= self.eval_fraction < 1.0:
            raise ValueError("eval_fraction must be in [0, 1)")
        if self.eval_window < 1:
            raise ValueError("eval_window must be >= 1")
        if self.fold_chunk < 1:
            raise ValueError("fold_chunk must be >= 1")


class FeedbackBuffer:
    """Bounded, thread-safe FIFO of labelled feedback samples.

    Admission is all-or-nothing per batch: either every row of a
    ``POST /feedback`` body fits, or the whole request is rejected with
    :class:`BufferFullError` -- a partially-buffered batch could never be
    honestly acknowledged.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._items: deque = deque()
        self._lock = threading.Lock()

    def add(self, rows: List[Tuple[np.ndarray, int]]) -> int:
        """Admit a batch of ``(feature_row, label)`` pairs; returns depth."""
        with self._lock:
            if len(self._items) + len(rows) > self.capacity:
                raise BufferFullError(
                    f"feedback buffer is full ({len(self._items)}/"
                    f"{self.capacity} buffered); retry after the trainer "
                    "folds the backlog"
                )
            self._items.extend(rows)
            return len(self._items)

    def drain(self) -> List[Tuple[np.ndarray, int]]:
        """Remove and return every buffered sample (FIFO order)."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            return items

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


def _clone_model(model: MEMHDModel) -> MEMHDModel:
    """Private copy of a fitted model's memory (checkpoint round-trip).

    Arrays are materialized with ``np.array``, so the clone is safe to
    update in place even when the source is a read-only memory-mapped
    checkpoint view.  The encoder is shared, not copied: online learning
    never trains the projection, and one encoder object means one float64
    widening of it for the live and shadow models together.
    """
    from repro.core.model import MEMHDModel
    from repro.io.checkpoint import _encoder_meta

    arrays = {
        name: np.array(value) for name, value in model.checkpoint_arrays().items()
    }
    clone = MEMHDModel.from_checkpoint(
        model.num_features,
        model.num_classes,
        model.config,
        arrays,
        encoder_meta=_encoder_meta(model),
    )
    clone.encoder = model.encoder
    return clone


class OnlineLearner:
    """Owns the feedback buffer, the shadow model and the promotion gate.

    Parameters
    ----------
    registry:
        :class:`repro.io.registry.ArtifactRegistry` the served artifact
        lives in (and incremental checkpoints are written to).
    spec:
        Resolved ``name:tag`` of the artifact currently in traffic.
    config:
        The :class:`OnlineConfig` knobs.
    promote:
        Callback invoked with a ``/reload`` payload
        (``{"model": key, "spec": "name:tag"}``) to take a promoted
        checkpoint to traffic -- ``ModelServer.reload_payload`` in
        single-process mode, ``WorkerSupervisor.reload`` under prefork.
        A raising callback counts as a failed promotion and the previous
        version stays in traffic.
    model_key:
        Routing key of the served model feedback must address.
    """

    def __init__(
        self,
        registry,
        spec: str,
        config: OnlineConfig,
        promote: Callable[[Dict[str, Any]], Any],
        model_key: str = "default",
    ) -> None:
        from repro.core.model import MEMHDModel
        from repro.core.online import OnlineMEMHD
        from repro.eval.store import ResultStore

        self.config = config
        self.registry = registry
        self.model_key = model_key
        self._promote_cb = promote
        model, manifest, resolved = registry.load_with_manifest(spec, mapped=False)
        if not isinstance(model, MEMHDModel):
            raise ValueError(
                f"online learning requires a MEMHD checkpoint; {resolved} "
                f"holds {type(model).__name__}"
            )
        self.current_spec = resolved
        self._parent_dataset = manifest.dataset
        self._live = _clone_model(model)
        self._shadow = _clone_model(model)
        self._online = OnlineMEMHD(
            self._shadow,
            learning_rate=config.learning_rate,
            rng=np.random.default_rng(config.seed),
        )
        self.checkpoint_name = config.checkpoint_name or resolved.split(":", 1)[0]
        results_path = config.results_path or str(
            registry.root / self.checkpoint_name / DRIFT_STORE_FILENAME
        )
        self.results = ResultStore(results_path)
        self.buffer = FeedbackBuffer(config.buffer_size)
        self._eval_reservoir: deque = deque(maxlen=config.eval_window)
        stride = round(1.0 / config.eval_fraction) if config.eval_fraction > 0 else 0
        self._eval_stride = int(stride)
        self._item_seq = 0
        self._submit_lock = threading.Lock()
        self._step_lock = threading.Lock()
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # Counters (all mutated under one of the two locks above).
        self._requests = 0
        self._accepted = 0
        self._rejected = 0
        self._eval_held = 0
        self._folded = 0
        self._updates = 0
        self._rounds = 0
        self._gate_passes = 0
        self._gate_failures = 0
        self._promotions = 0
        self._promote_failures = 0
        self._checkpoints = 0
        self._unpersisted = 0
        self._in_flight = 0  # drained rows whose round has not finished
        self._last_shadow_accuracy: Optional[float] = None
        self._last_live_accuracy: Optional[float] = None
        self._last_promoted_spec: Optional[str] = None
        self._last_promoted_unix: Optional[float] = None

    # ------------------------------------------------------------- ingestion
    @property
    def num_features(self) -> int:
        return int(self._live.num_features)

    @property
    def num_classes(self) -> int:
        return int(self._live.num_classes)

    def submit(self, features, labels) -> Dict[str, Any]:
        """Admit one feedback batch; the 200-ack payload on success.

        Validation failures raise ``ValueError`` (HTTP 400), a full
        buffer raises :class:`BufferFullError` (429), and submission
        after shutdown began raises :class:`LearnerClosedError` (503).
        Admission is atomic: once this returns, every row is either in
        the training buffer or the holdout reservoir, so acknowledged
        feedback survives anything short of killing the learner's own
        process.
        """
        batch = np.asarray(features, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.ndim != 2 or batch.shape[0] == 0:
            raise ValueError(
                f"features must be a non-empty (n, f) batch, got shape "
                f"{batch.shape}"
            )
        if batch.shape[1] != self.num_features:
            raise ValueError(
                f"features have {batch.shape[1]} columns but the online "
                f"model expects {self.num_features}"
            )
        if not np.isfinite(batch).all():
            raise ValueError("features must be finite (no NaN or Infinity)")
        try:
            y = np.asarray(labels, dtype=np.int64)
        except (TypeError, ValueError) as error:
            raise ValueError(f"labels are not an integer array: {error}") from error
        if y.ndim == 0:
            y = y[None]
        if y.ndim != 1 or y.shape[0] != batch.shape[0]:
            raise ValueError(
                f"labels must be 1-D with one entry per feature row "
                f"({batch.shape[0]}), got shape {y.shape}"
            )
        if np.any(y < 0) or np.any(y >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}); novel classes "
                "need an add_class() deployment, not /feedback"
            )
        with self._submit_lock:
            if self._closed:
                raise LearnerClosedError("online learner is shutting down")
            self._requests += 1
            train_rows: List[Tuple[np.ndarray, int]] = []
            eval_rows: List[Tuple[np.ndarray, int]] = []
            seq = self._item_seq
            for row, label in zip(batch, y):
                seq += 1
                if self._eval_stride and seq % self._eval_stride == 0:
                    eval_rows.append((row, int(label)))
                else:
                    train_rows.append((row, int(label)))
            try:
                depth = self.buffer.add(train_rows) if train_rows else len(self.buffer)
            except BufferFullError:
                self._rejected += int(batch.shape[0])
                raise
            # Only after the training rows are safely buffered does the
            # batch count as accepted (and its holdout share withheld).
            self._item_seq = seq
            self._eval_reservoir.extend(eval_rows)
            self._accepted += int(batch.shape[0])
            self._eval_held += len(eval_rows)
            return {
                "status": "buffered",
                "model": self.model_key,
                "accepted": int(batch.shape[0]),
                "held_out": len(eval_rows),
                "buffered": int(depth),
            }

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "OnlineLearner":
        """Start the background trainer thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, daemon=True, name="online-learner"
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.config.interval_s):
            try:
                self.step()
            except Exception:
                # The trainer must outlive a bad fold (e.g. a transient
                # registry write failure); counters and drift records
                # carry the evidence.
                continue

    def stop(self, drain: bool = True) -> None:
        """Stop the trainer; ``drain=True`` folds + persists the backlog.

        The drain guarantee: every acknowledged feedback sample has
        either been folded into a *persisted* checkpoint (promoted or
        not) or was withheld into the holdout reservoir by design.
        Idempotent.
        """
        with self._submit_lock:
            already_closed = self._closed
            self._closed = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        if already_closed:
            return
        if drain:
            while len(self.buffer):
                self.step(force=True)
            with self._step_lock:
                if self._unpersisted:
                    self._save_checkpoint(kind="drain-flush")

    # -------------------------------------------------------------- training
    def step(self, force: bool = False) -> Optional[Dict[str, Any]]:
        """One fold + gate + (maybe) promote cycle; ``None`` when idle.

        ``force`` folds whatever is buffered even below ``min_feedback``
        (the drain path).  Serialized with itself and with :meth:`stop`.
        """
        with self._step_lock:
            if len(self.buffer) < (1 if force else self.config.min_feedback):
                return None
            with self._submit_lock:  # stats() still counts them as buffered
                items = self.buffer.drain()
                self._in_flight = len(items)
            try:
                features = np.stack([row for row, _ in items])
                labels = np.asarray([label for _, label in items], dtype=np.int64)
                updates = 0
                for start in range(0, len(items), self.config.fold_chunk):
                    result = self._online.partial_fit(
                        features[start : start + self.config.fold_chunk],
                        labels[start : start + self.config.fold_chunk],
                    )
                    updates += int(result["updates"])
                self._folded += len(items)
                self._updates += updates
                self._unpersisted += len(items)
                self._rounds += 1
                return self._gate(folded=len(items), updates=updates)
            finally:
                self._in_flight = 0

    def _holdout(self) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        with self._submit_lock:
            held = list(self._eval_reservoir)
        if not held:
            return None, None
        features = np.stack([row for row, _ in held])
        labels = np.asarray([label for _, label in held], dtype=np.int64)
        return features, labels

    def _gate(self, folded: int, updates: int) -> Dict[str, Any]:
        """Evaluate the shadow vs the live model; promote when it clears."""
        from repro.eval.metrics import accuracy

        eval_x, eval_y = self._holdout()
        summary: Dict[str, Any] = {
            "round": self._rounds,
            "folded": folded,
            "updates": updates,
            "promoted": False,
        }
        if eval_x is None:
            # No holdout yet (or gating disabled): fold only, never
            # promote -- an unevaluated shadow must not reach traffic.
            self._gate_failures += 1
            summary["gate"] = "no-holdout"
            return summary
        shadow_accuracy = self._online.evaluate(eval_x, eval_y)
        live_accuracy = accuracy(self._live.predict(eval_x, engine="float"), eval_y)
        self._last_shadow_accuracy = float(shadow_accuracy)
        self._last_live_accuracy = float(live_accuracy)
        passed = (
            shadow_accuracy >= self.config.promote_threshold
            and shadow_accuracy >= live_accuracy + self.config.promote_margin
        )
        summary.update(
            shadow_accuracy=float(shadow_accuracy),
            live_accuracy=float(live_accuracy),
            eval_samples=int(eval_y.shape[0]),
            gate="passed" if passed else "failed",
        )
        promoted_spec: Optional[str] = None
        if passed:
            self._gate_passes += 1
            promoted_spec = self._promote(summary)
            summary["promoted"] = promoted_spec is not None
            if promoted_spec is not None:
                summary["artifact"] = promoted_spec
        else:
            self._gate_failures += 1
        self.results.append(
            config={
                "event": "shadow-eval",
                "model": self.model_key,
                "artifact": self.current_spec,
                "round": self._rounds,
            },
            metrics={
                "shadow_accuracy": float(shadow_accuracy),
                "live_accuracy": float(live_accuracy),
                "eval_samples": int(eval_y.shape[0]),
                "folded": int(folded),
                "updates": int(updates),
                "gate_passed": bool(passed),
                "promoted": bool(summary["promoted"]),
                **({"promoted_spec": promoted_spec} if promoted_spec else {}),
            },
        )
        return summary

    def _save_checkpoint(self, kind: str, metrics: Optional[Dict] = None):
        entry = self.registry.save(
            self._shadow,
            self.checkpoint_name,
            dataset=self._parent_dataset,
            metrics=metrics,
            lineage={
                "kind": kind,
                "parent": self.current_spec,
                "feedback_folded": int(self._folded),
                "feedback_updates": int(self._updates),
                "rounds": int(self._rounds),
            },
        )
        self._checkpoints += 1
        self._unpersisted = 0
        return entry

    def _promote(self, summary: Dict[str, Any]) -> Optional[str]:
        """Persist the shadow and take it to traffic; ``None`` on failure."""
        try:
            entry = self._save_checkpoint(
                kind="online-promotion",
                metrics={
                    "shadow_accuracy": summary.get("shadow_accuracy"),
                    "live_accuracy": summary.get("live_accuracy"),
                    "eval_samples": summary.get("eval_samples"),
                },
            )
            self._promote_cb({"model": self.model_key, "spec": entry.spec})
        except Exception:
            # The previous version stays in traffic; the checkpoint (when
            # it was written) remains in the registry for inspection.
            self._promote_failures += 1
            return None
        self._promotions += 1
        self.current_spec = entry.spec
        self._live = _clone_model(self._shadow)
        self._last_promoted_spec = entry.spec
        self._last_promoted_unix = time.time()
        return entry.spec

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, Any]:
        """The ``online`` counter block of ``GET /stats``."""
        with self._submit_lock:
            return {
                "enabled": True,
                "model": self.model_key,
                "artifact": self.current_spec,
                "feedback": {
                    "requests": self._requests,
                    "accepted": self._accepted,
                    "rejected": self._rejected,
                    "buffered": len(self.buffer) + self._in_flight,
                    "held_out": self._eval_held,
                    "eval_window": len(self._eval_reservoir),
                    "folded": self._folded,
                },
                "shadow": {
                    "rounds": self._rounds,
                    "updates": self._updates,
                    "last_shadow_accuracy": self._last_shadow_accuracy,
                    "last_live_accuracy": self._last_live_accuracy,
                    "gate_passes": self._gate_passes,
                    "gate_failures": self._gate_failures,
                },
                "promotions": {
                    "count": self._promotions,
                    "failed": self._promote_failures,
                    "checkpoints": self._checkpoints,
                    "last_spec": self._last_promoted_spec,
                    "last_unix": self._last_promoted_unix,
                },
            }

    @staticmethod
    def disabled_stats() -> Dict[str, Any]:
        """The ``online`` block of a server without online learning."""
        return {"enabled": False}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OnlineLearner(model={self.model_key!r}, "
            f"artifact={self.current_spec!r}, buffered={len(self.buffer)})"
        )
