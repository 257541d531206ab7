"""Evaluation harness: metrics, experiment runners and report formatting."""

from repro.eval.metrics import (
    accuracy,
    confusion_matrix,
    misclassification_counts,
)
from repro.eval.experiments import (
    ExperimentRecord,
    evaluate_classifier,
    accuracy_memory_curve,
    initialization_comparison,
    cluster_ratio_sweep,
)
from repro.eval.reporting import (
    format_table,
    format_accuracy_memory,
    format_heatmap,
    format_sweep_records,
    format_store_diff,
    sweep_grid,
)
from repro.eval.store import (
    ResultRecord,
    ResultStore,
    StoreDiff,
    StoreError,
    config_key,
)
from repro.eval.sweep import (
    SweepError,
    SweepJob,
    SweepRunResult,
    SweepSpec,
    best_record,
    build_model,
    derive_job_seed,
    run_sweep,
    spec_records,
    train_record_model,
)

__all__ = [
    "accuracy",
    "confusion_matrix",
    "misclassification_counts",
    "ExperimentRecord",
    "evaluate_classifier",
    "accuracy_memory_curve",
    "initialization_comparison",
    "cluster_ratio_sweep",
    "format_table",
    "format_accuracy_memory",
    "format_heatmap",
    "format_sweep_records",
    "format_store_diff",
    "sweep_grid",
    "ResultRecord",
    "ResultStore",
    "StoreDiff",
    "StoreError",
    "config_key",
    "SweepError",
    "SweepJob",
    "SweepRunResult",
    "SweepSpec",
    "best_record",
    "build_model",
    "derive_job_seed",
    "run_sweep",
    "spec_records",
    "train_record_model",
]
