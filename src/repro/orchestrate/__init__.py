"""Declarative run orchestration: workflow specs, provenance, QA reports.

The ``repro.orchestrate`` package is ROADMAP item 4 -- the settings-file
pipeline layer over the repo's training / sweep / bench / serving
subsystems:

* :mod:`repro.orchestrate.spec` -- the strict ``repro.yml`` parser,
  DAG validation, and canonical per-step config hashing.
* :mod:`repro.orchestrate.rundb` -- the SQLite provenance database
  recording every step execution next to the artifact store.
* :mod:`repro.orchestrate.runner` -- the scheduler with crash-safe
  resume (skip = same config hash + unchanged artifact fingerprints).
* :mod:`repro.orchestrate.report` -- ``repro status`` and the
  markdown/HTML QA report built from the RunDB and ResultStores.
"""

from repro.eval.store import is_volatile_metric
from repro.orchestrate.rundb import (
    ArtifactRecord,
    RunDB,
    RunRecord,
    StepRecord,
)
from repro.orchestrate.report import build_report, markdown_to_html, workflow_status
from repro.orchestrate.runner import (
    StepOutcome,
    WorkflowRunResult,
    current_fingerprint,
    execute_step,
    reason_to_run,
    run_workflow,
    store_fingerprint,
    workdir_paths,
)
from repro.orchestrate.spec import (
    STEP_KINDS,
    OrchestrationError,
    WorkflowSpec,
    WorkflowStep,
    parse_workflow,
    step_config_hash,
    topological_order,
)

__all__ = [
    "ArtifactRecord",
    "OrchestrationError",
    "RunDB",
    "RunRecord",
    "STEP_KINDS",
    "StepOutcome",
    "StepRecord",
    "WorkflowRunResult",
    "WorkflowSpec",
    "WorkflowStep",
    "build_report",
    "current_fingerprint",
    "execute_step",
    "is_volatile_metric",
    "markdown_to_html",
    "parse_workflow",
    "reason_to_run",
    "run_workflow",
    "step_config_hash",
    "store_fingerprint",
    "topological_order",
    "workdir_paths",
    "workflow_status",
]
