"""The run database: SQLite provenance for workflow executions.

Lives next to the artifact store (``<workdir>/runs.sqlite``) and records,
for every step execution:

* the step's canonical **config hash** (the resume key),
* the **git revision** the runner was launched from,
* **artifacts produced and consumed** (name, path, content SHA-256),
* wall time, a **stdout/stderr tail**, and the outcome.

Every write is committed immediately, so a SIGKILL at any instant leaves
at worst a ``running`` row -- never a torn one.  On the next run those
stale ``running`` rows are flipped to ``interrupted`` and simply do not
count as completed, which is what makes ``repro run --resume`` crash-safe:
resume trusts only ``completed`` rows whose config hash and artifact
fingerprints still match.

Schema (see ``docs/architecture.md`` for the prose version)::

    runs(id, workflow, workflow_hash, git_rev, started_unix,
         finished_unix, outcome)
    steps(id, run_id -> runs, step, kind, config_hash, config_json,
          git_rev, started_unix, finished_unix, wall_s, outcome,
          metrics_json, stdout_tail, stderr_tail, error)
    artifacts(id, step_id -> steps, direction, name, path, sha256)
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.eval.store import is_volatile_metric

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    workflow TEXT NOT NULL,
    workflow_hash TEXT NOT NULL,
    git_rev TEXT,
    started_unix REAL NOT NULL,
    finished_unix REAL,
    outcome TEXT NOT NULL DEFAULT 'running'
);
CREATE TABLE IF NOT EXISTS steps (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id INTEGER NOT NULL REFERENCES runs(id),
    step TEXT NOT NULL,
    kind TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    config_json TEXT NOT NULL,
    git_rev TEXT,
    started_unix REAL NOT NULL,
    finished_unix REAL,
    wall_s REAL,
    outcome TEXT NOT NULL DEFAULT 'running',
    metrics_json TEXT,
    stdout_tail TEXT,
    stderr_tail TEXT,
    error TEXT
);
CREATE TABLE IF NOT EXISTS artifacts (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    step_id INTEGER NOT NULL REFERENCES steps(id),
    direction TEXT NOT NULL CHECK (direction IN ('produced', 'consumed')),
    name TEXT NOT NULL,
    path TEXT,
    sha256 TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_steps_step ON steps(step, id);
CREATE INDEX IF NOT EXISTS idx_artifacts_step ON artifacts(step_id);
"""


@dataclasses.dataclass(frozen=True)
class ArtifactRecord:
    """One produced/consumed artifact edge of a step execution."""

    step_id: int
    direction: str
    name: str
    path: str
    sha256: str


@dataclasses.dataclass(frozen=True)
class StepRecord:
    """One recorded step execution (a row of ``steps``)."""

    id: int
    run_id: int
    step: str
    kind: str
    config_hash: str
    config: Dict[str, Any]
    git_rev: Optional[str]
    started_unix: float
    finished_unix: Optional[float]
    wall_s: Optional[float]
    outcome: str
    metrics: Dict[str, Any]
    stdout_tail: str
    stderr_tail: str
    error: Optional[str]


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One recorded workflow run (a row of ``runs``)."""

    id: int
    workflow: str
    workflow_hash: str
    git_rev: Optional[str]
    started_unix: float
    finished_unix: Optional[float]
    outcome: str


class RunDB:
    """SQLite-backed provenance store for workflow runs.

    Opens (and creates, including parents) the database at ``path``.
    Usable as a context manager; every mutation commits immediately.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- runs
    def begin_run(
        self, workflow: str, workflow_hash: str, git_rev: Optional[str]
    ) -> int:
        """Open a new run row; flip stale ``running`` rows to ``interrupted``.

        Stale rows are what a SIGKILLed runner leaves behind -- marking
        them keeps ``status`` honest without affecting resume (which only
        trusts ``completed`` rows anyway).
        """
        self._conn.execute(
            "UPDATE steps SET outcome = 'interrupted' WHERE outcome = 'running'"
        )
        self._conn.execute(
            "UPDATE runs SET outcome = 'interrupted' WHERE outcome = 'running'"
        )
        cursor = self._conn.execute(
            "INSERT INTO runs (workflow, workflow_hash, git_rev, started_unix)"
            " VALUES (?, ?, ?, ?)",
            (workflow, workflow_hash, git_rev, time.time()),
        )
        self._conn.commit()
        return int(cursor.lastrowid)

    def finish_run(self, run_id: int, outcome: str) -> None:
        self._conn.execute(
            "UPDATE runs SET outcome = ?, finished_unix = ? WHERE id = ?",
            (outcome, time.time(), run_id),
        )
        self._conn.commit()

    def runs(self) -> List[RunRecord]:
        rows = self._conn.execute("SELECT * FROM runs ORDER BY id").fetchall()
        return [
            RunRecord(
                id=row["id"],
                workflow=row["workflow"],
                workflow_hash=row["workflow_hash"],
                git_rev=row["git_rev"],
                started_unix=row["started_unix"],
                finished_unix=row["finished_unix"],
                outcome=row["outcome"],
            )
            for row in rows
        ]

    # -------------------------------------------------------------- steps
    def begin_step(
        self,
        run_id: int,
        step: str,
        kind: str,
        config_hash: str,
        config: Dict[str, Any],
        git_rev: Optional[str],
    ) -> int:
        cursor = self._conn.execute(
            "INSERT INTO steps (run_id, step, kind, config_hash, config_json,"
            " git_rev, started_unix) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                run_id,
                step,
                kind,
                config_hash,
                json.dumps(config, sort_keys=True),
                git_rev,
                time.time(),
            ),
        )
        self._conn.commit()
        return int(cursor.lastrowid)

    def finish_step(
        self,
        step_id: int,
        outcome: str,
        *,
        wall_s: Optional[float] = None,
        metrics: Optional[Dict[str, Any]] = None,
        stdout_tail: str = "",
        stderr_tail: str = "",
        error: Optional[str] = None,
    ) -> None:
        self._conn.execute(
            "UPDATE steps SET outcome = ?, finished_unix = ?, wall_s = ?,"
            " metrics_json = ?, stdout_tail = ?, stderr_tail = ?, error = ?"
            " WHERE id = ?",
            (
                outcome,
                time.time(),
                wall_s,
                json.dumps(metrics or {}, sort_keys=True),
                stdout_tail,
                stderr_tail,
                error,
                step_id,
            ),
        )
        self._conn.commit()

    def record_artifacts(
        self, step_id: int, direction: str, items: Sequence[Dict[str, Any]]
    ) -> None:
        """Attach artifact edges to a step. ``items`` carry name/path/sha256."""
        if direction not in ("produced", "consumed"):
            raise ValueError(f"invalid artifact direction {direction!r}")
        self._conn.executemany(
            "INSERT INTO artifacts (step_id, direction, name, path, sha256)"
            " VALUES (?, ?, ?, ?, ?)",
            [
                (step_id, direction, item["name"], item.get("path", ""), item["sha256"])
                for item in items
            ],
        )
        self._conn.commit()

    def _step_from_row(self, row: sqlite3.Row) -> StepRecord:
        return StepRecord(
            id=row["id"],
            run_id=row["run_id"],
            step=row["step"],
            kind=row["kind"],
            config_hash=row["config_hash"],
            config=json.loads(row["config_json"]),
            git_rev=row["git_rev"],
            started_unix=row["started_unix"],
            finished_unix=row["finished_unix"],
            wall_s=row["wall_s"],
            outcome=row["outcome"],
            metrics=json.loads(row["metrics_json"]) if row["metrics_json"] else {},
            stdout_tail=row["stdout_tail"] or "",
            stderr_tail=row["stderr_tail"] or "",
            error=row["error"],
        )

    def step_rows(self) -> List[StepRecord]:
        """Every recorded step execution, oldest first."""
        rows = self._conn.execute("SELECT * FROM steps ORDER BY id").fetchall()
        return [self._step_from_row(row) for row in rows]

    def latest_completed(self, step: str) -> Optional[StepRecord]:
        """The most recent ``completed`` execution of ``step``, if any."""
        row = self._conn.execute(
            "SELECT * FROM steps WHERE step = ? AND outcome = 'completed'"
            " ORDER BY id DESC LIMIT 1",
            (step,),
        ).fetchone()
        return self._step_from_row(row) if row is not None else None

    def previous_completed(self, step: str, before_id: int) -> Optional[StepRecord]:
        """The last ``completed`` execution of ``step`` before ``before_id``."""
        row = self._conn.execute(
            "SELECT * FROM steps WHERE step = ? AND outcome = 'completed'"
            " AND id < ? ORDER BY id DESC LIMIT 1",
            (step, before_id),
        ).fetchone()
        return self._step_from_row(row) if row is not None else None

    def artifacts_for(self, step_id: int) -> List[ArtifactRecord]:
        rows = self._conn.execute(
            "SELECT * FROM artifacts WHERE step_id = ? ORDER BY id",
            (step_id,),
        ).fetchall()
        return [
            ArtifactRecord(
                step_id=row["step_id"],
                direction=row["direction"],
                name=row["name"],
                path=row["path"] or "",
                sha256=row["sha256"],
            )
            for row in rows
        ]

    # ----------------------------------------------------------- analysis
    def end_state(self) -> Dict[str, Any]:
        """Canonical "where did this workflow land" dict.

        Keyed by step name, covering the latest completed execution only:
        config hash, kind, deterministic metrics (timings dropped), and
        artifact names + content hashes.  Run counts, row ids and wall
        times are excluded **by design** -- an interrupted-then-resumed
        workflow records more runs than an uninterrupted one, but must
        land in the same end state.  The chaos tests compare exactly this.
        """
        state: Dict[str, Any] = {}
        names = [
            row["step"]
            for row in self._conn.execute(
                "SELECT DISTINCT step FROM steps ORDER BY step"
            ).fetchall()
        ]
        for name in names:
            record = self.latest_completed(name)
            if record is None:
                continue
            artifacts: Dict[str, List[Dict[str, str]]] = {}
            for artifact in self.artifacts_for(record.id):
                artifacts.setdefault(artifact.direction, []).append(
                    {"name": artifact.name, "sha256": artifact.sha256}
                )
            for edges in artifacts.values():
                edges.sort(key=lambda item: item["name"])
            state[name] = {
                "kind": record.kind,
                "config_hash": record.config_hash,
                "metrics": {
                    key: value
                    for key, value in sorted(record.metrics.items())
                    if not is_volatile_metric(key)
                },
                "artifacts": artifacts,
            }
        return state
