"""Workflow execution: the DAG scheduler and per-kind step executors.

``run_workflow`` walks the validated spec in topological order, records
every execution in the :class:`~repro.orchestrate.rundb.RunDB`, and
skips steps that are already up to date -- mirroring the sweep-resume
semantics: a step is skipped iff its latest *completed* execution has
the same canonical config hash **and** every artifact it recorded
(consumed and produced) still fingerprints to the recorded SHA-256.
``--force`` reruns everything; a crash mid-step leaves only a
``running`` row, which resume ignores.

Steps are scheduled by :func:`repro.eval.executor.run_graph`, the loop
sweeps use too; with ``workers > 1`` independent steps run in a process
pool.  :func:`execute_step` is a module-level function taking a
plain-dict payload so it pickles into worker processes; it captures
stdout/stderr and never raises -- failures come back as
``{"ok": False, ...}`` so the tails survive.  A dead worker process
fails its step with the pool's ``BrokenProcessPool`` error.

Artifacts are addressed with self-describing names so resume can
re-fingerprint them without re-running the producer:

* ``dataset:<name>?scale=<s>&seed=<k>`` -- content hash of the loaded
  arrays (:func:`repro.io.checkpoint.dataset_fingerprint`).
* ``checkpoint:<name>:<tag>`` -- logical content hash of the registry
  checkpoint (:func:`repro.io.checkpoint.content_fingerprint`; ignores
  the manifest's creation timestamp and archive byte layout).
* ``results:<file>`` -- hash of the sweep store's canonical records
  with timing metrics dropped (:func:`store_fingerprint`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.eval.executor import run_graph
from repro.orchestrate.rundb import RunDB
from repro.orchestrate.spec import OrchestrationError, WorkflowSpec, WorkflowStep

#: Characters kept from each captured stream (enough to diagnose, small
#: enough to live comfortably in a DB row).
TAIL_CHARS = 2000

#: Test-only knobs for the chaos harness: sleep this many seconds at the
#: start of every step (or only the named step), so a SIGKILL can land
#: reliably *mid-step* rather than racing the step's natural duration.
DELAY_ENV = "REPRO_ORCH_TEST_DELAY_S"
DELAY_STEP_ENV = "REPRO_ORCH_TEST_DELAY_STEP"


# --------------------------------------------------------------------------
# Workdir layout
# --------------------------------------------------------------------------
def workdir_paths(workdir) -> Dict[str, Path]:
    """The fixed layout under a workflow working directory."""
    root = Path(workdir)
    return {
        "root": root,
        "store": root / "store",  # artifact registry
        "sweeps": root / "sweeps",  # one ResultStore per sweep step+hash
        "rundb": root / "runs.sqlite",  # provenance DB, next to the store
    }


def current_git_rev() -> Optional[str]:
    """HEAD revision of the repo this module lives in, or None."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


# --------------------------------------------------------------------------
# Artifact naming and fingerprints
# --------------------------------------------------------------------------
def dataset_artifact_name(dataset: str, scale, seed) -> str:
    return f"dataset:{dataset}?scale={scale}&seed={seed}"


def _dataset_artifact(config: Dict[str, Any]) -> Dict[str, Any]:
    from repro.data.datasets import load_dataset
    from repro.io.checkpoint import dataset_fingerprint

    ds = load_dataset(config["dataset"], scale=config["scale"], rng=config["seed"])
    fingerprint = dataset_fingerprint(ds)
    return {
        "name": dataset_artifact_name(
            config["dataset"], config["scale"], config["seed"]
        ),
        "path": "",
        "sha256": fingerprint["sha256"],
        "dataset": ds,
    }


def store_fingerprint(path) -> str:
    """Content hash of a sweep result store, ignoring timing metrics.

    The JSONL file itself is not byte-stable (append order under a
    process pool, wall-clock metrics), so provenance hashes the
    canonical ``{config key: deterministic metrics}`` mapping instead.
    """
    from repro.eval.store import ResultStore, is_volatile_metric

    store = ResultStore(path)
    payload = {
        key: {
            metric: value
            for metric, value in sorted(record.metrics.items())
            if not is_volatile_metric(metric)
        }
        for key, record in store.latest().items()
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def current_fingerprint(name: str, path: str) -> str:
    """Recompute an artifact's fingerprint for resume comparison.

    Never raises: unreadable or missing artifacts return a sentinel that
    cannot match a recorded SHA-256, which makes the step rerun -- the
    safe direction.
    """
    try:
        if name.startswith("dataset:"):
            spec = name[len("dataset:"):]
            dataset, _, query = spec.partition("?")
            params = dict(
                part.split("=", 1) for part in query.split("&") if "=" in part
            )
            from repro.data.datasets import load_dataset
            from repro.io.checkpoint import dataset_fingerprint

            ds = load_dataset(
                dataset,
                scale=float(params.get("scale", 1.0)),
                rng=int(params.get("seed", 0)),
            )
            return dataset_fingerprint(ds)["sha256"]
        if name.startswith("checkpoint:"):
            from repro.io.checkpoint import content_fingerprint

            if not path or not os.path.isfile(path):
                return "missing"
            return content_fingerprint(path)
        if name.startswith("results:"):
            if not path or not os.path.isfile(path):
                return "missing"
            return store_fingerprint(path)
        return "unknown-artifact-kind"
    except Exception as error:  # noqa: BLE001 - any failure means "changed"
        return f"error:{error}"


# --------------------------------------------------------------------------
# Per-kind executors (run inside worker processes; return plain dicts)
# --------------------------------------------------------------------------
def _execute_dataset(payload: Dict[str, Any]) -> Dict[str, Any]:
    config = payload["config"]
    artifact = _dataset_artifact(config)
    ds = artifact.pop("dataset")
    print(
        f"dataset {ds.name}: {ds.train_features.shape[0]} train / "
        f"{ds.test_features.shape[0]} test rows, "
        f"{ds.num_features} features, {ds.num_classes} classes"
    )
    return {
        "metrics": {
            "train_examples": int(ds.train_features.shape[0]),
            "test_examples": int(ds.test_features.shape[0]),
            "num_features": int(ds.num_features),
            "num_classes": int(ds.num_classes),
        },
        "consumed": [],
        "produced": [artifact],
    }


def _execute_train(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.eval.sweep import MODEL_DEFAULTS, build_model
    from repro.io.checkpoint import content_fingerprint
    from repro.io.registry import ArtifactRegistry

    config = payload["config"]
    dataset_artifact = _dataset_artifact(config)
    ds = dataset_artifact.pop("dataset")
    model = build_model(
        config["model"],
        ds.num_features,
        ds.num_classes,
        seed=config["seed"],
        **{name: config[name] for name in MODEL_DEFAULTS},
    )
    started = time.perf_counter()
    history = model.fit(ds.train_features, ds.train_labels)
    train_elapsed = time.perf_counter() - started
    test_accuracy = float(model.score(ds.test_features, ds.test_labels))
    report = model.memory_report()

    registry = ArtifactRegistry(payload["store_root"])
    name, _, tag = config["save"].partition(":")
    metrics = {
        "train_accuracy": float(history.final_train_accuracy),
        "test_accuracy": test_accuracy,
        "memory_kib": float(report.total_kib),
    }
    entry = registry.save(
        model,
        name,
        tag,
        dataset=ds,
        metrics=metrics,
        lineage={
            "workflow_step": payload["name"],
            "config_hash": payload["config_hash"],
        },
    )
    print(f"saved {entry.spec} (test accuracy {test_accuracy:.4f})")
    return {
        "metrics": {**metrics, "train_elapsed_s": train_elapsed},
        "consumed": [dataset_artifact],
        "produced": [
            {
                "name": f"checkpoint:{entry.spec}",
                "path": str(entry.path),
                "sha256": content_fingerprint(entry.path),
            }
        ],
    }


def _execute_sweep(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.eval.store import ResultStore
    from repro.eval.sweep import SweepError, SweepSpec, run_sweep, spec_records

    config = payload["config"]
    spec = SweepSpec.from_dict(config["spec"])
    distributed = config.get("distributed")
    if distributed:
        # Elastic same-host pool over a shared store dir: N subprocess
        # workers claim cells via lease files.  The store dir is derived
        # from the step's config hash, so a re-run resumes the same pool
        # directory (and the results artifact inside it).
        from repro.eval.distributed import run_distributed_pool, store_paths

        store_dir = (
            Path(payload["sweep_dir"])
            / f"{payload['name']}-{payload['config_hash'][:8]}.pool"
        )
        try:
            run_distributed_pool(
                spec,
                store_dir,
                workers=distributed["workers"],
                ttl_s=distributed.get("ttl_s", 30.0),
                poll_s=distributed.get("poll_s"),
                progress=print,
            )
        except SweepError as error:
            raise OrchestrationError(f"distributed sweep failed: {error}") from error
        filename = f"{store_dir.name}/{store_paths(store_dir)['results'].name}"
        store_path = store_paths(store_dir)["results"]
        store = ResultStore(store_path)
    else:
        filename = config["results"] or (
            f"{payload['name']}-{payload['config_hash'][:8]}.jsonl"
        )
        store_path = Path(payload["sweep_dir"]) / filename
        store = ResultStore(store_path)
        result = run_sweep(
            spec, store, workers=config["workers"], resume=True, progress=print
        )
        if not result.ok:
            details = "; ".join(
                f"{item.get('key', '?')}: {item.get('error', '?')}"
                for item in result.failed
            )
            raise OrchestrationError(
                f"sweep failed for {len(result.failed)} cell(s): {details}"
            )
        print(result.summary())
    records = spec_records(spec, store)
    best = max(
        (record.metrics.get("test_accuracy") for record in records),
        default=None,
    )
    # Executed-vs-resumed counts are wall-history, not state: a resumed
    # run reports different splits than a oneshot one, so they went to
    # stdout (the tail) above rather than into the metrics row.
    metrics: Dict[str, Any] = {"cells": len(spec.expand())}
    if best is not None:
        metrics["best_test_accuracy"] = float(best)
    return {
        "metrics": metrics,
        "consumed": [],
        "produced": [
            {
                "name": f"results:{filename}",
                "path": str(store_path),
                "sha256": store_fingerprint(store_path),
            }
        ],
    }


def _checkpoint_artifact(registry, spec: str) -> Dict[str, Any]:
    from repro.io.checkpoint import content_fingerprint

    path = registry.resolve(spec)
    return {
        "name": f"checkpoint:{spec}",
        "path": str(path),
        "sha256": content_fingerprint(path),
    }


def _execute_bench(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.io.registry import ArtifactRegistry
    from repro.runtime.pipeline import throughput_comparison

    config = payload["config"]
    dataset_artifact = _dataset_artifact(config)
    ds = dataset_artifact.pop("dataset")
    registry = ArtifactRegistry(payload["store_root"])
    model, _, resolved = registry.load_with_manifest(config["model"])
    consumed = [dataset_artifact, _checkpoint_artifact(registry, resolved)]

    # Raises if any two engines disagree on a single label.
    labels, stats = throughput_comparison(
        model,
        ds.test_features,
        engines=config["engines"],
        chunk_size=config["batch_size"],
        repeats=config["repeats"],
    )
    accuracy = float(np.mean(labels == ds.test_labels))
    metrics: Dict[str, Any] = {}
    for run in stats:
        metrics[f"accuracy_{run.engine}"] = accuracy
        metrics[f"queries_per_s_{run.engine}"] = run.queries_per_second
        print(
            f"bench {run.engine}: accuracy {accuracy:.4f}, "
            f"{run.queries_per_second:.0f} queries/s over {run.total_queries} rows"
        )
    return {"metrics": metrics, "consumed": consumed, "produced": []}


def _execute_serve_smoke(payload: Dict[str, Any]) -> Dict[str, Any]:
    import urllib.request

    from repro.io.registry import ArtifactRegistry
    from repro.runtime.pipeline import InferencePipeline
    from repro.runtime.server import ModelServer

    config = payload["config"]
    dataset_artifact = _dataset_artifact(config)
    ds = dataset_artifact.pop("dataset")
    registry = ArtifactRegistry(payload["store_root"])
    model, manifest, resolved = registry.load_with_manifest(config["model"])
    consumed = [dataset_artifact, _checkpoint_artifact(registry, resolved)]

    rows = ds.test_features[: config["requests"] * config["batch"]]
    direct = InferencePipeline(model, engine=config["engine"]).predict(rows)

    served: List[int] = []
    sent = 0
    server = ModelServer(
        model,
        engine=config["engine"],
        manifest=manifest,
        host="127.0.0.1",
        port=0,
    ).start()
    try:
        for index in range(config["requests"]):
            batch = rows[index * config["batch"] : (index + 1) * config["batch"]]
            if batch.shape[0] == 0:
                break
            body = json.dumps({"features": batch.tolist()}).encode("utf-8")
            request = urllib.request.Request(
                server.url + "/predict",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                reply = json.loads(response.read().decode("utf-8"))
            served.extend(int(label) for label in reply["labels"])
            sent += 1
        with urllib.request.urlopen(server.url + "/healthz", timeout=30) as response:
            health = json.loads(response.read().decode("utf-8"))
    finally:
        server.shutdown()
    expected = [int(label) for label in direct[: len(served)]]
    bit_exact = served == expected and len(served) == rows.shape[0]
    print(
        f"serve-smoke: {sent} request(s), {len(served)} row(s), "
        f"bit_exact={bit_exact}, health={health.get('status', '?')}"
    )
    if not bit_exact:
        raise OrchestrationError(
            "served labels diverged from the direct pipeline "
            f"({len(served)} served vs {rows.shape[0]} expected rows)"
        )
    return {
        "metrics": {
            "requests": sent,
            "rows": len(served),
            "bit_exact": bool(bit_exact),
        },
        "consumed": consumed,
        "produced": [],
    }


_KIND_EXECUTORS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "dataset": _execute_dataset,
    "train": _execute_train,
    "sweep": _execute_sweep,
    "bench": _execute_bench,
    "serve-smoke": _execute_serve_smoke,
}


def _tail(text: str) -> str:
    return text[-TAIL_CHARS:]


def execute_step(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one step; picklable entry point for the process pool.

    Captures stdout/stderr into tails and never raises: failures return
    ``{"ok": False, "error": ...}`` so diagnostics survive the process
    boundary intact.
    """
    delay = float(os.environ.get(DELAY_ENV, "0") or 0)
    only = os.environ.get(DELAY_STEP_ENV)
    if delay > 0 and (not only or only == payload["name"]):
        time.sleep(delay)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            result = _KIND_EXECUTORS[payload["kind"]](payload)
    except Exception as error:  # noqa: BLE001 - reported, not swallowed
        return {
            "ok": False,
            "error": f"{type(error).__name__}: {error}",
            "stdout_tail": _tail(stdout.getvalue()),
            "stderr_tail": _tail(stderr.getvalue() + traceback.format_exc()),
        }
    result["ok"] = True
    result["stdout_tail"] = _tail(stdout.getvalue())
    result["stderr_tail"] = _tail(stderr.getvalue())
    return result


# --------------------------------------------------------------------------
# Resume planning
# --------------------------------------------------------------------------
def reason_to_run(db: RunDB, step: WorkflowStep) -> Optional[str]:
    """Why ``step`` must execute, or ``None`` when it can be skipped.

    Skip requires: a completed execution with the same config hash whose
    recorded artifacts (inputs *and* outputs) all still fingerprint to
    the recorded SHA-256.
    """
    last = db.latest_completed(step.name)
    if last is None:
        return "never completed"
    if last.config_hash != step.config_hash:
        return f"config changed ({last.config_hash} -> {step.config_hash})"
    for artifact in db.artifacts_for(last.id):
        if current_fingerprint(artifact.name, artifact.path) != artifact.sha256:
            return f"{artifact.direction} artifact changed: {artifact.name}"
    return None


# --------------------------------------------------------------------------
# The scheduler
# --------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class StepOutcome:
    """What happened to one step during a ``run_workflow`` call."""

    name: str
    kind: str
    config_hash: str
    action: str  # "executed" | "skipped" | "failed" | "blocked"
    reason: str = ""
    wall_s: Optional[float] = None
    error: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class WorkflowRunResult:
    """Accounting of one ``run_workflow`` call."""

    run_id: int
    outcome: str  # "completed" | "failed"
    steps: List[StepOutcome]

    @property
    def ok(self) -> bool:
        return self.outcome == "completed"

    def summary(self) -> str:
        counts: Dict[str, int] = {}
        for step in self.steps:
            counts[step.action] = counts.get(step.action, 0) + 1
        parts = ", ".join(
            f"{counts[action]} {action}"
            for action in ("executed", "skipped", "failed", "blocked")
            if action in counts
        )
        return f"run #{self.run_id} {self.outcome}: {parts or 'no steps'}"


def run_workflow(
    spec: WorkflowSpec,
    workdir,
    *,
    workers: int = 1,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    db: Optional[RunDB] = None,
) -> WorkflowRunResult:
    """Execute ``spec`` under ``workdir``, recording provenance in the RunDB.

    Parameters
    ----------
    spec:
        A validated workflow.
    workdir:
        Working directory: artifact store, sweep stores and the run
        database all live under it (created on demand).
    workers:
        Process-pool width for independent steps; ``1`` runs inline.
    force:
        Rerun every step even when it is up to date.
    progress:
        Optional callable receiving one human-readable line per step.
    db:
        An open :class:`RunDB` to reuse (tests); defaults to the one
        under ``workdir``.
    """
    paths = workdir_paths(workdir)
    paths["store"].mkdir(parents=True, exist_ok=True)
    paths["sweeps"].mkdir(parents=True, exist_ok=True)
    owns_db = db is None
    db = db or RunDB(paths["rundb"])
    emit = progress or (lambda line: None)
    git_rev = current_git_rev()
    try:
        run_id = db.begin_run(spec.name, spec.workflow_hash, git_rev)
        order = spec.execution_order()
        total = len(order)
        outcomes: Dict[str, StepOutcome] = {}
        done: set = set()
        running: Dict[str, tuple] = {}  # step name -> (row id, start time)

        def record(step: WorkflowStep, action: str, **extra: Any) -> None:
            outcomes[step.name] = StepOutcome(
                step.name, step.kind, step.config_hash, action, **extra
            )

        def launch(step: WorkflowStep) -> Optional[Dict[str, Any]]:
            """Skip/block ``step`` (``None``), or begin it and return its payload."""
            position = len(outcomes) + len(running) + 1  # launched so far + this
            prefix = f"[{position}/{total}] {step.name}"
            missing = [need for need in step.needs if need not in done]
            if missing:
                emit(f"{prefix}: blocked (needs {', '.join(missing)})")
                record(step, "blocked", reason=f"needs {', '.join(missing)}")
                return None
            reason = "forced" if force else reason_to_run(db, step)
            if reason is None:
                emit(f"{prefix}: skipped (up-to-date)")
                done.add(step.name)
                record(step, "skipped", reason="up-to-date")
                return None
            emit(f"{prefix}: executing ({reason})")
            step_id = db.begin_step(
                run_id, step.name, step.kind, step.config_hash,
                dict(step.config), git_rev,
            )
            running[step.name] = (step_id, time.perf_counter())
            return {
                "name": step.name,
                "kind": step.kind,
                "config": dict(step.config),
                "config_hash": step.config_hash,
                "store_root": str(paths["store"]),
                "sweep_dir": str(paths["sweeps"]),
            }

        def settle(step: WorkflowStep, future) -> None:
            step_id, started = running.pop(step.name)
            wall_s = time.perf_counter() - started
            error = future.exception()
            if error is None:
                result = future.result()
            else:  # the worker process died: BrokenProcessPool
                result = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            if result["ok"]:
                db.record_artifacts(step_id, "consumed", result["consumed"])
                db.record_artifacts(step_id, "produced", result["produced"])
                done.add(step.name)
            db.finish_step(
                step_id,
                "completed" if result["ok"] else "failed",
                wall_s=wall_s,
                metrics=result.get("metrics"),
                stdout_tail=result.get("stdout_tail", ""),
                stderr_tail=result.get("stderr_tail", ""),
                error=result.get("error"),
            )
            action = "executed" if result["ok"] else "failed"
            record(step, action, wall_s=wall_s, error=result.get("error"))
            if not result["ok"]:
                emit(f"    {step.name} failed: {result['error']}")

        run_graph(
            order,
            execute_step,
            launch,
            settle,
            workers,
            needs=lambda step: [spec.step(need) for need in step.needs],
        )
        ordered = [outcomes[step.name] for step in order]
        run_outcome = (
            "completed"
            if all(o.action in ("executed", "skipped") for o in ordered)
            else "failed"
        )
        db.finish_run(run_id, run_outcome)
        return WorkflowRunResult(run_id=run_id, outcome=run_outcome, steps=ordered)
    finally:
        if owns_db:
            db.close()
