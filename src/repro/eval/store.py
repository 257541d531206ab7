"""Append-only JSONL result store for experiment sweeps.

A sweep produces one :class:`repro.eval.sweep.ExperimentRecord`-style row
per grid cell; this module gives those rows a durable, diffable home:

* every record is keyed by a **config hash** -- the SHA-256 of the cell's
  canonical (sorted-keys) JSON configuration -- so the same cell always
  lands under the same key regardless of field ordering or which process
  produced it;
* records are stored as **one JSON object per line**, appended with a
  flush per record, so an interrupted sweep loses at most the cell that
  was being written and a re-run can skip everything already on disk
  (resume);
* two stores can be **diffed** metric-by-metric for regression checks --
  the golden-metrics test pins a store under ``tests/golden/`` and fails
  loudly when accuracy drifts.

The format is deliberately plain: no index, no database, inspectable with
``jq`` and diffable with ``repro sweep diff``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

try:  # POSIX advisory locking for multi-writer (distributed sweep) appends
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: Held across every append; ``fork`` waits for it.  A child forked
#: mid-append would inherit the open handle and keep its ``flock`` held
#: for the child's whole life, blocking every later append.
_APPEND_GUARD = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_APPEND_GUARD.acquire,
        after_in_parent=_APPEND_GUARD.release,
        after_in_child=_APPEND_GUARD.release,
    )

#: Metrics excluded from diffs by default: wall-clock measurements vary
#: run to run and machine to machine, unlike accuracies and memory sizes.
TIMING_METRICS = frozenset({"elapsed_s", "queries_per_s", "train_elapsed_s"})

#: Latency/throughput metrics recorded by serving-load sweep cells.  They
#: are measurements of the machine, not the model, so they are volatile by
#: definition and must never be drift-gated.
LATENCY_METRICS = frozenset(
    {
        "qps",
        "requests_per_s",
        "duration_s",
        "wall_s",
        "p50_ms",
        "p95_ms",
        "p99_ms",
    }
)

#: The full set of metric names excluded from drift gating by default.
#: This is an explicit allowlist -- NOT substring matching -- so metrics
#: like ``p99_ms`` are skipped while e.g. ``firewall_rules`` or
#: ``overall_score`` (which contain timing-ish substrings) are compared.
VOLATILE_METRICS = TIMING_METRICS | LATENCY_METRICS

#: Volatile metric *families*: per-engine variants are stored with the
#: engine suffixed (``queries_per_s_packed``), so membership alone cannot
#: cover them.  A name is volatile when it is in :data:`VOLATILE_METRICS`
#: or starts with one of these prefixes.  Still no substring matching.
_VOLATILE_PREFIXES = tuple(
    f"{base}_" for base in sorted(VOLATILE_METRICS | {"elapsed", "wall", "duration"})
)


def is_volatile_metric(name: str) -> bool:
    """True for wall-clock/latency/throughput metrics that vary run-to-run.

    Membership is decided by the explicit :data:`VOLATILE_METRICS` set plus
    per-engine suffixed variants of those names (``queries_per_s_packed``,
    ``elapsed_s_float``, ...).  Deterministic metrics whose names merely
    *contain* a timing-ish substring (``firewall_rules``, ``p99_ms_gate``
    would not occur, but e.g. ``test_accuracy`` or ``requests``) are never
    treated as volatile.
    """
    if name in VOLATILE_METRICS:
        return True
    return name.startswith(_VOLATILE_PREFIXES)


class StoreError(Exception):
    """A result-store operation failed (unreadable file, bad record, ...)."""


def canonical_config(config: Dict[str, Any]) -> str:
    """Canonical JSON form of a cell configuration (sorted keys, no spaces)."""
    try:
        return json.dumps(config, sort_keys=True, separators=(",", ":"))
    except TypeError as error:
        raise StoreError(f"configuration is not JSON-serializable: {error}") from error


def config_key(config: Dict[str, Any]) -> str:
    """Stable 16-hex-digit key of a cell configuration.

    The key is the truncated SHA-256 of :func:`canonical_config`, so it is
    identical across processes, platforms and python versions -- the
    property resume and diff both rely on.
    """
    digest = hashlib.sha256(canonical_config(config).encode("utf-8")).hexdigest()
    return digest[:16]


@dataclasses.dataclass(frozen=True)
class ResultRecord:
    """One completed sweep cell: its configuration and measured metrics."""

    key: str
    config: Dict[str, Any]
    metrics: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {"key": self.key, "config": self.config, "metrics": self.metrics}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ResultRecord":
        for field in ("key", "config", "metrics"):
            if field not in payload:
                raise StoreError(f"record is missing the {field!r} field")
        return cls(
            key=str(payload["key"]),
            config=dict(payload["config"]),
            metrics=dict(payload["metrics"]),
        )


@dataclasses.dataclass(frozen=True)
class MetricChange:
    """One metric that moved between two stores for the same cell."""

    key: str
    metric: str
    old: Any
    new: Any

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "metric": self.metric,
            "old": self.old,
            "new": self.new,
        }


@dataclasses.dataclass(frozen=True)
class StoreDiff:
    """Outcome of comparing two stores cell-by-cell.

    Attributes
    ----------
    matching:
        Number of cells present in both stores with every compared metric
        within tolerance.
    changed:
        Per-metric differences of cells present in both stores.
    only_left / only_right:
        Keys present in exactly one of the stores.
    """

    matching: int
    changed: List[MetricChange]
    only_left: List[str]
    only_right: List[str]

    @property
    def is_clean(self) -> bool:
        """True when both stores agree on every shared cell and cover the
        same cells."""
        return not self.changed and not self.only_left and not self.only_right

    def summary(self) -> str:
        return (
            f"{self.matching} matching, {len(self.changed)} changed metric(s), "
            f"{len(self.only_left)} only-left, {len(self.only_right)} only-right"
        )


def _metrics_agree(old: Any, new: Any, rtol: float, atol: float) -> bool:
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        if isinstance(old, bool) != isinstance(new, bool):
            return False
        return math.isclose(float(old), float(new), rel_tol=rtol, abs_tol=atol)
    return old == new


class ResultStore:
    """Append-only JSONL store of sweep results, keyed by config hash.

    Parameters
    ----------
    path:
        The ``.jsonl`` file backing the store.  Created (with parents) on
        first append; reads of a missing file see an empty store.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------ write
    def append(
        self,
        config: Dict[str, Any],
        metrics: Dict[str, Any],
        key: Optional[str] = None,
    ) -> ResultRecord:
        """Append one completed cell; returns the stored record.

        The write is a single ``write`` + ``flush`` + ``fsync`` of one
        line, so a concurrently-killed sweep can lose at most the record
        being written -- never corrupt earlier lines.  Before writing, a
        torn tail left by a killed writer (a final line with no
        terminating newline) is truncated away; without that repair the
        new record would fuse onto the partial bytes and corrupt the
        store.

        Appends take an exclusive ``flock`` (where available) for the
        repair + write, so multiple distributed-sweep workers can append
        to one shared store without a concurrent tail repair truncating a
        record another live writer just landed.  A writer killed while
        holding the lock releases it automatically (the kernel drops
        advisory locks on process exit).
        """
        record = ResultRecord(
            key=key or config_key(config), config=dict(config), metrics=dict(metrics)
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _APPEND_GUARD, open(self.path, "a+b") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            self._truncate_torn_tail(handle)
            line = json.dumps(record.as_dict(), sort_keys=True) + "\n"
            handle.write(line.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        return record

    def extend(self, records: Iterable[ResultRecord]) -> None:
        """Append pre-built records (used by store merges and tests)."""
        for record in records:
            self.append(record.config, record.metrics, key=record.key)

    # ------------------------------------------------------------------- read
    def records(self) -> List[ResultRecord]:
        """Every stored record in append order (duplicates included)."""
        if not self.path.is_file():
            return []
        records: List[ResultRecord] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(ResultRecord.from_dict(json.loads(line)))
                except (json.JSONDecodeError, StoreError) as error:
                    # A torn final line (killed mid-write) is expected and
                    # recoverable: the cell simply re-runs.  A torn line in
                    # the middle of the file is corruption worth surfacing.
                    if line_number == self._line_count():
                        continue
                    raise StoreError(
                        f"{self.path}:{line_number}: unreadable record ({error})"
                    ) from error
        return records

    def latest(self) -> Dict[str, ResultRecord]:
        """Keyed view of the store; for duplicate keys the last write wins."""
        return {record.key: record for record in self.records()}

    def completed_keys(self) -> "set[str]":
        """Config-hash keys with at least one stored record (resume set)."""
        return set(self.latest())

    def __len__(self) -> int:
        return len(self.latest())

    # ------------------------------------------------------------------- diff
    def diff(
        self,
        other: "ResultStore",
        rtol: float = 1e-9,
        atol: float = 1e-12,
        metrics: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
    ) -> StoreDiff:
        """Compare this store (left) against ``other`` (right).

        Parameters
        ----------
        rtol / atol:
            Numeric tolerance for metric comparisons (non-numeric metrics
            compare by equality).
        metrics:
            Only compare these metric names; default compares every metric
            that appears on either side.
        ignore:
            Metric names excluded from the comparison; when ``None`` the
            default skips everything :func:`is_volatile_metric` matches
            (wall-clock, latency and throughput measurements are expected
            to differ between runs).  Pass an explicit sequence -- e.g.
            ``ignore=()`` -- to override.
        """
        if ignore is None:
            ignored = None  # predicate-based default, applied below
        else:
            ignored = set(ignore)
        left, right = self.latest(), other.latest()
        changed: List[MetricChange] = []
        matching = 0
        for shared_key in sorted(set(left) & set(right)):
            old_metrics = left[shared_key].metrics
            new_metrics = right[shared_key].metrics
            names = set(old_metrics) | set(new_metrics)
            if metrics is not None:
                names &= set(metrics)
            if ignored is None:
                names = {name for name in names if not is_volatile_metric(name)}
            else:
                names -= ignored
            cell_changes = [
                MetricChange(
                    key=shared_key,
                    metric=name,
                    old=old_metrics.get(name),
                    new=new_metrics.get(name),
                )
                for name in sorted(names)
                if not _metrics_agree(
                    old_metrics.get(name), new_metrics.get(name), rtol, atol
                )
            ]
            if cell_changes:
                changed.extend(cell_changes)
            else:
                matching += 1
        return StoreDiff(
            matching=matching,
            changed=changed,
            only_left=sorted(set(left) - set(right)),
            only_right=sorted(set(right) - set(left)),
        )

    # -------------------------------------------------------------- internals
    @staticmethod
    def _truncate_torn_tail(handle) -> None:
        """Drop a partial (newline-less) final line before appending.

        The partial line is an incomplete record from a killed writer --
        reads already skip it, so removing it loses nothing, while
        leaving it would fuse it with the next appended record.
        """
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        data = handle.read(size)
        handle.truncate(data.rfind(b"\n") + 1)
        handle.seek(0, os.SEEK_END)

    def _line_count(self) -> int:
        with open(self.path, "r", encoding="utf-8") as handle:
            return sum(1 for _ in handle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore(path={str(self.path)!r})"
