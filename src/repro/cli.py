"""Command-line interface for the MEMHD reproduction.

Installed as ``repro`` (with a ``memhd-repro`` alias; see
``pyproject.toml``); also runnable as ``python -m repro.cli``.  The
subcommands cover the everyday workflows:

``repro info --dataset mnist``
    Print the dataset profile (features, classes, per-class budgets).

``repro train --dataset fmnist --model memhd --save fmnist-memhd``
    Train one model, report train/test accuracy and the Table I memory
    breakdown, optionally checkpointing the trained model to a file
    (``--save model.npz``) or into the artifact registry
    (``--save name[:tag]``).

``repro predict --dataset mnist --load mnist-memhd --engine packed``
    Serve the test split through the batched
    :class:`repro.runtime.InferencePipeline` with the selected similarity
    engine (``float`` / ``packed`` / ``pruned`` / ``both``) and report accuracy and
    throughput.  With ``--load`` the model comes from a checkpoint (no
    retraining); without it the model is trained from scratch first.

``repro serve --models mnist-memhd:latest,fmnist-quanthd:v3 --port 8000``
    Long-lived daemon: host one or many registry checkpoints behind warm
    pipelines with micro-batching (``--max-batch`` / ``--max-wait-ms``),
    bounded-queue backpressure (``--queue-depth`` -> HTTP 429) and
    zero-downtime hot-swap (``POST /reload``); answers JSON ``/predict``,
    ``/models/<name>/predict``, ``/healthz``, ``/stats`` and ``/manifest``
    requests over HTTP.  ``--load`` serves a single checkpoint (path or
    registry spec) exactly as before.  ``--workers N`` scales out to N
    prefork worker processes over one shared listening socket and
    memory-mapped (zero-copy) checkpoints, with crash respawn, graceful
    SIGTERM drain, cluster-aggregated ``/stats`` and fanned-out
    ``/reload``; see ``docs/operations.md`` for the operator guide.

``repro loadtest --url http://127.0.0.1:8000 --concurrency 32``
    Open/closed-loop load generator against a live daemon; reports
    achieved QPS and p50/p95/p99 latency, plus per-status error counts
    and (against a ``--workers N`` daemon) per-worker traffic attribution
    from the aggregated ``/stats`` endpoint.

``repro models list|show|prune``
    Inspect and garbage-collect the on-disk artifact registry
    (``~/.cache/repro``, ``$REPRO_STORE`` or ``--store DIR``).

``repro map --dataset mnist --rows 128 --cols 128``
    Print the Table II mapping analysis (basic / partitioned / MEMHD) for an
    array geometry, from the dataset profile's feature and class counts.

``repro sweep run --models memhd,basichdc --dimensions 64,128 --results r.jsonl``
    Expand a declarative experiment grid (models x datasets x dimensions x
    centroid budgets x engines x IMC noise/ADC settings), run it on a
    process pool with deterministic per-cell seeds, and stream results
    into an append-only JSONL store keyed by config hash -- re-running
    the same spec resumes, completing only the missing cells.

``repro sweep status | report | diff``
    Inspect a result store (``status``), render its tables and heatmaps
    (``report``), or compare two stores metric-by-metric for regression
    checks (``diff``; non-zero exit on drift).

Every command that loads samples accepts ``--scale`` to control how much
of the paper-scale per-class sample budget the (synthetic or real) dataset
provides, and ``--seed`` for reproducibility.

Each group of setting flags takes its dests (setting names) and defaults
from the object that owns it: ``train`` / ``predict`` from
:data:`repro.eval.sweep.MODEL_DEFAULTS` (except ``train --epochs 20``),
``sweep`` from :class:`~repro.eval.sweep.SweepSpec`, ``serve`` from
:class:`~repro.runtime.config.ServeConfig` (except ``--engine packed``)
and ``serve --online`` from :class:`~repro.runtime.online.OnlineConfig`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
import threading
from typing import List, Optional, Sequence

from repro.core.config import INIT_METHODS
from repro.data.datasets import DATASET_PROFILES, available_datasets, load_dataset
from repro.eval.metrics import accuracy
from repro.eval.reporting import (
    format_heatmap,
    format_serving_records,
    format_store_diff,
    format_sweep_records,
    format_table,
    sweep_grid,
)
from repro.eval.store import ResultStore, StoreError
from repro.eval.sweep import (
    DEFAULT_SCALE,
    MODEL_CHOICES,
    MODEL_DEFAULTS,
    SWEEP_ENGINES,
    SWEEP_KINDS,
    SweepError,
    SweepSpec,
    best_record,
    build_model,
    run_sweep,
    spec_records,
    train_record_model,
)
from repro.hdc.engine import ENGINES
from repro.hdc.packed import kernel_backend
from repro.imc.analysis import full_mapping_report, improvement_factors, table2_rows
from repro.imc.array import IMCArrayConfig
from repro.io.checkpoint import (
    CheckpointError,
    checkpoint_path,
    dataset_fingerprint,
    load_checkpoint_with_manifest,
    read_manifest,
    save_checkpoint,
)
from repro.io.registry import ArtifactRegistry, RegistryError
from repro.runtime.config import ServeConfig
from repro.runtime.loadtest import MODES, fetch_server_stats, run_load
from repro.runtime.online import OnlineConfig
from repro.runtime.pipeline import throughput_comparison
from repro.runtime.server import DRAIN_TIMEOUT_S, ModelServer
from repro.runtime.workers import WorkerConfig, WorkerSupervisor


def _int_list(text: str) -> List[int]:
    """Parse a comma-separated list of integers (argparse type)."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from error
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _float_list(text: str) -> List[float]:
    """Parse a comma-separated list of floats (argparse type)."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated float list: {text!r}"
        ) from error
    if not values:
        raise argparse.ArgumentTypeError("expected at least one float")
    return values


def _str_list(text: str) -> List[str]:
    """Parse a comma-separated list of names (argparse type)."""
    values = [part.strip() for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one name")
    return values


def _adc_list(text: str) -> List[Optional[int]]:
    """Parse ADC bit settings: ints plus ``ideal``/``none`` for no ADC."""
    values: List[Optional[int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part.lower() in ("ideal", "none"):
            values.append(None)
            continue
        try:
            values.append(int(part))
        except ValueError as error:
            raise argparse.ArgumentTypeError(
                f"ADC bits must be integers or 'ideal', got {part!r}"
            ) from error
    if not values:
        raise argparse.ArgumentTypeError("expected at least one ADC setting")
    return values


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MEMHD (DATE 2025) reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_dataset_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dataset", default="mnist", choices=available_datasets(),
            help="dataset profile to load",
        )

    def add_dataset_options(sub: argparse.ArgumentParser) -> None:
        add_dataset_option(sub)
        sub.add_argument(
            "--scale", type=float, default=DEFAULT_SCALE,
            help="fraction of the paper-scale per-class sample budget "
            "(default %(default)s)",
        )
        sub.add_argument("--seed", type=int, default=0, help="random seed")

    # Dests and defaults from MODEL_DEFAULTS; train's --epochs 20 departs.
    def add_model_options(
        sub: argparse.ArgumentParser, epochs: int = MODEL_DEFAULTS["epochs"]
    ) -> None:
        sub.add_argument("--model", default="memhd", choices=MODEL_CHOICES)
        sub.add_argument(
            "--dimension", type=int, default=MODEL_DEFAULTS["dimension"],
            help="hypervector dimension D",
        )
        sub.add_argument(
            "--columns", type=int, default=MODEL_DEFAULTS["columns"],
            help="MEMHD AM columns C (ignored by the baselines)",
        )
        sub.add_argument("--epochs", type=int, default=epochs)
        sub.add_argument(
            "--learning-rate", type=float, default=MODEL_DEFAULTS["learning_rate"]
        )
        sub.add_argument(
            "--cluster-ratio", type=float, default=MODEL_DEFAULTS["cluster_ratio"],
            help="MEMHD initial cluster ratio R",
        )
        sub.add_argument(
            "--init", dest="init_method", default=MODEL_DEFAULTS["init_method"],
            choices=INIT_METHODS, help="MEMHD initialization method",
        )
        sub.add_argument(
            "--id-levels", type=int, default=MODEL_DEFAULTS["id_levels"],
            help="number of levels L for the ID-Level baselines",
        )

    def add_store_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store", default=None, metavar="DIR",
            help="artifact registry directory (default: $REPRO_STORE or "
            "~/.cache/repro)",
        )

    info = subparsers.add_parser("info", help="print a dataset profile summary")
    add_dataset_options(info)

    train = subparsers.add_parser("train", help="train and evaluate one model")
    add_dataset_options(train)
    add_model_options(train, epochs=20)
    train.add_argument(
        "--save", default=None, metavar="CKPT",
        help="checkpoint the trained model: a spec ending in .npz or "
        "containing a path separator saves to that file (.npz appended "
        "when missing), anything else is a registry 'name[:tag]'",
    )
    add_store_option(train)

    predict = subparsers.add_parser(
        "predict",
        help="serve the test split through the batched inference pipeline",
    )
    add_dataset_options(predict)
    add_model_options(predict)
    predict.add_argument(
        "--load", default=None, metavar="CKPT",
        help="serve a checkpointed model (path or registry 'name[:tag]') "
        "instead of retraining; model hyperparameter flags are ignored",
    )
    add_store_option(predict)
    predict.add_argument(
        "--engine", default="packed", choices=(*ENGINES, "both"),
        help="similarity engine ('pruned' = centroid-pruned shortlist "
        "search, bit-identical to the full scan; 'both' compares float "
        "vs packed)",
    )
    predict.add_argument(
        "--prune-topk", type=int, default=None, metavar="K",
        help="shortlist width of the pruned engine (classes exactly "
        "re-ranked per query; default: ceil(sqrt(classes)) heuristic)",
    )
    predict.add_argument(
        "--batch-size", type=int, default=1024,
        help="pipeline chunk size (query rows per chunk)",
    )
    predict.add_argument(
        "--workers", type=int, default=1,
        help="thread-pool width for sharding chunks",
    )
    predict.add_argument(
        "--repeats", type=int, default=3,
        help="timed repetitions per engine (best run is reported)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="long-lived multi-model daemon with micro-batching over HTTP",
    )
    serve.add_argument(
        "--load", default=None, metavar="CKPT",
        help="single checkpoint to serve (path or registry 'name[:tag]'); "
        "combinable with --models",
    )
    serve.add_argument(
        "--models", type=_str_list, default=None, metavar="SPEC[,SPEC...]",
        help="registry specs to serve concurrently (comma-separated "
        "'name[:tag]'), each routed at /models/<name>/predict and "
        "hot-swappable via POST /reload",
    )
    add_store_option(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8000,
        help="bind port (0 picks an ephemeral port)",
    )
    # Every serving default comes from ServeConfig; the CLI only departs
    # from it on purpose for --engine (the fast path, not the reference).
    serve.add_argument(
        "--engine", default="packed", choices=ENGINES,
        help="similarity engine used for every request (packed = bit-packed "
        "kernels, the fast path and the CLI default; pruned = "
        "centroid-pruned shortlist search on top of them, bit-identical; "
        "float = dense reference, the library default)",
    )
    serve.add_argument(
        "--prune-topk", type=int, default=ServeConfig.prune_topk, metavar="K",
        help="shortlist width of the pruned engine (default: "
        "ceil(sqrt(classes)) heuristic; only with --engine pruned)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker PROCESS count (prefork scale-out): N>1 forks N "
        "independent serving processes over one shared listening socket "
        "and memory-mapped checkpoints, with crash respawn, aggregated "
        "/stats and fanned-out /reload; 1 (default) serves in-process "
        "and loads checkpoints eagerly",
    )
    serve.add_argument(
        "--socket-mode", default="auto", choices=("auto", "reuseport", "inherit"),
        help="how prefork workers share the port: 'reuseport' binds one "
        "SO_REUSEPORT listener per worker (kernel load-balances), "
        "'inherit' has workers adopt a single listener forked from the "
        "parent; 'auto' (default) picks reuseport where available "
        "(only meaningful with --workers > 1)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=DRAIN_TIMEOUT_S, metavar="S",
        help="on SIGTERM / worker drain, wait up to this long for "
        "in-flight requests to finish before closing (default %(default)s)",
    )
    serve.add_argument(
        "--max-batch", dest="max_batch_size", type=int,
        default=ServeConfig.max_batch_size, metavar="ROWS",
        help="micro-batch row bound: concurrent requests are coalesced "
        "until this many rows are queued (default %(default)s)",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=ServeConfig.max_wait_ms,
        metavar="MS",
        help="upper bound on holding a request open for stragglers "
        "(default %(default)s: an idle request is dispatched at once)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=ServeConfig.queue_depth, metavar="N",
        help="per-model bound on queued requests; beyond it the server "
        "sheds load with HTTP 429 + Retry-After (default %(default)s)",
    )
    serve.add_argument(
        "--no-batching", dest="batching", action="store_false",
        default=ServeConfig.batching,
        help="disable micro-batching: one direct pipeline call per "
        "request (the pre-v2 behaviour; the loadtest baseline)",
    )
    serve.add_argument(
        "--online", action="store_true",
        help="enable the continual-learning loop: POST /feedback streams "
        "labelled samples into a bounded buffer, a background trainer "
        "folds them into a shadow copy of the served model, and shadows "
        "that clear the promotion gate are checkpointed (with lineage) "
        "and hot-swapped into traffic; requires --models (registry-backed)",
    )
    # Dests and defaults of the --online flags come from OnlineConfig.
    serve.add_argument(
        "--promote-threshold", type=float, default=OnlineConfig.promote_threshold,
        metavar="ACC",
        help="minimum holdout accuracy a shadow must reach to be "
        "promoted (default %(default)s: gate only on beating the live model)",
    )
    serve.add_argument(
        "--promote-margin", type=float, default=OnlineConfig.promote_margin,
        metavar="ACC",
        help="how much the shadow must beat the live model by on the "
        "holdout slice (default %(default)s: promote on ties)",
    )
    serve.add_argument(
        "--min-feedback", type=int, default=OnlineConfig.min_feedback, metavar="N",
        help="buffered samples that trigger a shadow training fold "
        "(default %(default)s; a graceful drain folds any remainder)",
    )
    serve.add_argument(
        "--feedback-buffer", dest="buffer_size", type=int,
        default=OnlineConfig.buffer_size, metavar="N",
        help="bound of the feedback buffer; beyond it POST /feedback "
        "sheds load with HTTP 429 (default %(default)s)",
    )
    serve.add_argument(
        "--shadow-interval", dest="interval_s", type=float,
        default=OnlineConfig.interval_s, metavar="S",
        help="cadence of the background trainer's buffer checks "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--eval-fraction", type=float, default=OnlineConfig.eval_fraction,
        metavar="F",
        help="share of feedback withheld into the holdout reservoir the "
        "promotion gate scores on (default %(default)s; 0 disables promotion)",
    )
    serve.add_argument(
        "--eval-window", type=int, default=OnlineConfig.eval_window, metavar="N",
        help="rolling bound of the holdout reservoir (default %(default)s)",
    )
    serve.add_argument(
        "--online-lr", dest="learning_rate", type=float,
        default=OnlineConfig.learning_rate, metavar="LR",
        help="learning rate of the streaming updates (default: the "
        "checkpoint's training rate; drift recovery usually wants more)",
    )
    serve.add_argument(
        "--online-results", dest="results_path",
        default=OnlineConfig.results_path, metavar="PATH",
        help="drift-record JSONL path (default: online-drift.jsonl next "
        "to the served artifact's checkpoints)",
    )

    loadtest = subparsers.add_parser(
        "loadtest",
        help="open/closed-loop load generator against a live serve daemon",
    )
    loadtest.add_argument(
        "--url", default="http://127.0.0.1:8000",
        help="base URL of the server (default http://127.0.0.1:8000)",
    )
    loadtest.add_argument(
        "--model", default=None, metavar="NAME",
        help="route requests at /models/NAME/predict instead of /predict",
    )
    loadtest.add_argument(
        "--mode", default="closed", choices=MODES,
        help="closed: each worker keeps one request in flight; open: "
        "requests start on a fixed --rate schedule",
    )
    loadtest.add_argument(
        "--concurrency", type=int, default=32, metavar="N",
        help="concurrent client threads issuing requests (default 32)",
    )
    loadtest.add_argument(
        "--duration", type=float, default=5.0, metavar="S",
        help="measurement window in seconds (default 5)",
    )
    loadtest.add_argument(
        "--batch", type=int, default=1, metavar="ROWS",
        help="feature rows per request (default 1)",
    )
    loadtest.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="offered requests/second (open-loop mode only)",
    )
    loadtest.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline forwarded to the server",
    )
    loadtest.add_argument(
        "--num-features", type=int, default=None, metavar="F",
        help="payload feature width (discovered from the server when omitted)",
    )
    loadtest.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for the synthetic request payloads (default 0)",
    )
    loadtest.add_argument(
        "--fail-on-error", action="store_true",
        help="exit non-zero when any request failed (CI smoke gates)",
    )
    loadtest.add_argument(
        "--smoke", action="store_true",
        help="tiny fixed preset (8 workers, 1.5 s) for CI smoke runs",
    )

    models = subparsers.add_parser(
        "models", help="inspect and prune the on-disk artifact registry"
    )
    models_sub = models.add_subparsers(dest="models_command", required=True)
    models_list = models_sub.add_parser("list", help="list stored checkpoints")
    add_store_option(models_list)
    models_list.add_argument(
        "--name", default=None, help="only list tags of this artifact name"
    )
    models_show = models_sub.add_parser(
        "show", help="print the manifest of one checkpoint"
    )
    add_store_option(models_show)
    models_show.add_argument(
        "spec", help="checkpoint path or registry 'name[:tag]'"
    )
    models_prune = models_sub.add_parser(
        "prune", help="delete all but the newest tags of each artifact"
    )
    add_store_option(models_prune)
    models_prune.add_argument(
        "--name", default=None, help="only prune this artifact name"
    )
    models_prune.add_argument(
        "--keep", type=int, default=3,
        help="newest tags to retain per name (default 3)",
    )

    map_cmd = subparsers.add_parser(
        "map", help="Table II mapping analysis for an IMC array geometry"
    )
    add_dataset_option(map_cmd)
    map_cmd.add_argument("--rows", type=int, default=128, help="IMC array rows")
    map_cmd.add_argument("--cols", type=int, default=128, help="IMC array columns")
    map_cmd.add_argument(
        "--baseline-dimension", type=int, default=10240,
        help="dimensionality of the Basic/Partitioning baselines",
    )
    map_cmd.add_argument(
        "--memhd-dimension", type=int, default=None,
        help="MEMHD dimension D (defaults to the array rows)",
    )
    map_cmd.add_argument(
        "--partitions", type=_int_list, default=[5, 10],
        help="comma-separated partition counts for the partitioned baseline",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="declarative, parallel, resumable experiment-matrix runner",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    def add_results_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--results", default="sweep-results.jsonl", metavar="FILE",
            help="append-only JSONL result store (default sweep-results.jsonl)",
        )

    # Dests and defaults from SweepSpec: a bare `sweep run` is SweepSpec().
    def add_spec_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--spec", default=None, metavar="FILE",
            help="JSON sweep spec file; overrides the axis flags below",
        )
        sub.add_argument(
            "--models", type=_str_list, default=SweepSpec.models,
            help=f"comma-separated model families ({', '.join(MODEL_CHOICES)})",
        )
        sub.add_argument(
            "--datasets", type=_str_list, default=SweepSpec.datasets,
            help="comma-separated dataset names",
        )
        sub.add_argument(
            "--dimensions", type=_int_list, default=SweepSpec.dimensions
        )
        sub.add_argument(
            "--columns", type=_int_list, default=SweepSpec.columns,
            help="MEMHD centroid budgets C (ignored by the baselines)",
        )
        sub.add_argument(
            "--engines", type=_str_list, default=SweepSpec.engines,
            help=f"similarity engines to time ({','.join(SWEEP_ENGINES)})",
        )
        sub.add_argument(
            "--cluster-ratios", type=_float_list, default=SweepSpec.cluster_ratios,
            help="MEMHD initial cluster ratios R",
        )
        sub.add_argument(
            "--noise", dest="bit_flip_probabilities", type=_float_list,
            default=SweepSpec.bit_flip_probabilities, metavar="P",
            help="IMC bit-flip probabilities (MEMHD cells only; 0 = ideal)",
        )
        sub.add_argument(
            "--adc-bits", type=_adc_list, default=SweepSpec.adc_bits,
            metavar="BITS",
            help="column ADC resolutions (MEMHD cells only; 'ideal' = none)",
        )
        sub.add_argument("--scale", type=float, default=SweepSpec.scale)
        sub.add_argument("--epochs", type=int, default=SweepSpec.epochs)
        sub.add_argument(
            "--learning-rate", type=float, default=SweepSpec.learning_rate
        )
        sub.add_argument("--id-levels", type=int, default=SweepSpec.id_levels)
        sub.add_argument(
            "--init", dest="init_method", default=SweepSpec.init_method,
            choices=INIT_METHODS,
        )
        sub.add_argument("--seed", type=int, default=SweepSpec.seed)
        sub.add_argument(
            "--kind", default=SweepSpec.kind, choices=SWEEP_KINDS,
            help="cell kind: accuracy/memory evaluation (default) or "
            "serving-load cells that boot a server per cell and load-test it",
        )
        sub.add_argument(
            "--serving-concurrency", type=_int_list,
            default=SweepSpec.serving_concurrency,
            help="serving-load axis: load-generator concurrency levels",
        )
        sub.add_argument(
            "--serving-workers", type=_int_list, default=SweepSpec.serving_workers,
            help="serving-load axis: server worker-process counts",
        )
        sub.add_argument(
            "--serving-batch", type=_int_list, default=SweepSpec.serving_batch,
            help="serving-load axis: rows per request",
        )
        sub.add_argument(
            "--serving-modes", type=_str_list, default=SweepSpec.serving_modes,
            help="serving-load axis: loop modes (closed,open)",
        )
        sub.add_argument(
            "--serving-requests", type=int, default=SweepSpec.serving_requests,
            help="fixed request count per serving-load cell (deterministic)",
        )
        sub.add_argument(
            "--serving-rate", type=float, default=SweepSpec.serving_rate,
            help="offered requests/second for open-loop serving cells",
        )
        sub.add_argument(
            "--smoke", action="store_true",
            help="replace the grid with a tiny fixed smoke preset (CI); "
            "combined with --kind serving-load it selects the serving smoke grid",
        )

    sweep_run = sweep_sub.add_parser(
        "run", help="expand a grid spec and execute its missing cells"
    )
    add_spec_options(sweep_run)
    add_results_option(sweep_run)
    sweep_run.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width (1 runs cells inline)",
    )
    sweep_run.add_argument(
        "--no-resume", action="store_true",
        help="re-run every cell even when the store already has it",
    )
    sweep_run.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="run at most N pending cells (smoke / staged runs)",
    )
    sweep_run.add_argument(
        "--save-best", default=None, metavar="NAME[:TAG]",
        help="retrain the best cell (by test accuracy) and checkpoint it "
        "into the artifact registry",
    )
    sweep_run.add_argument(
        "--distributed", action="store_true",
        help="join an elastic worker pool over --store-dir: claim missing "
        "cells via lease files, run them inline, stream results into the "
        "shared store (workers may join late, die, and rejoin)",
    )
    sweep_run.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="shared store directory for --distributed "
        "(results.jsonl + leases/ + events.jsonl)",
    )
    sweep_run.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="this worker's identity in the pool (default <hostname>-<pid>)",
    )
    sweep_run.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="lease expiry: a worker silent this long is presumed dead "
        "and its cell reclaimed (default 30)",
    )
    sweep_run.add_argument(
        "--poll-interval", type=float, default=None, metavar="SECONDS",
        help="idle rescan interval while other workers hold the "
        "remaining cells (default min(1, ttl/4))",
    )
    add_store_option(sweep_run)

    sweep_status = sweep_sub.add_parser(
        "status", help="summarize a result store (and pending cells of a spec)"
    )
    add_spec_options(sweep_status)
    add_results_option(sweep_status)
    sweep_status.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="shared distributed-store directory: reads DIR/results.jsonl "
        "and prints per-worker attribution from the pool's events log",
    )
    sweep_status.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="TTL used to classify currently-held leases as live/expired",
    )

    sweep_report = sweep_sub.add_parser(
        "report", help="render a result store as tables / heatmaps"
    )
    add_results_option(sweep_report)
    sweep_report.add_argument(
        "--heatmap", action="store_true",
        help="also print the dimension x columns accuracy heatmap",
    )
    sweep_report.add_argument(
        "--value", default="test_accuracy",
        help="metric pivoted into the heatmap cells",
    )

    sweep_diff = sweep_sub.add_parser(
        "diff",
        help="compare two result stores; exit 1 when metrics drifted",
    )
    sweep_diff.add_argument("left", help="baseline store (JSONL)")
    sweep_diff.add_argument("right", help="candidate store (JSONL)")
    sweep_diff.add_argument("--rtol", type=float, default=1e-9)
    sweep_diff.add_argument("--atol", type=float, default=1e-12)
    sweep_diff.add_argument(
        "--metrics", type=_str_list, default=None,
        help="only compare these metrics (default: all but timings)",
    )

    def add_workflow_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("workflow", help="workflow file (repro.yml / .json)")
        sub.add_argument(
            "--workdir", default=None, metavar="DIR",
            help="working directory holding the artifact store, sweep "
            "stores and run database (default: the workflow's 'workdir' "
            "key, else ./<name>-workdir)",
        )

    run = subparsers.add_parser(
        "run", help="execute a declarative workflow, recording provenance"
    )
    add_workflow_options(run)
    mode = run.add_mutually_exclusive_group()
    mode.add_argument(
        "--resume", action="store_true", default=True,
        help="skip completed steps whose config hash and artifact "
        "fingerprints are unchanged (the default)",
    )
    mode.add_argument(
        "--force", action="store_true",
        help="rerun every step even when it is up to date",
    )
    run.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width for independent steps (default 1: inline)",
    )

    status = subparsers.add_parser(
        "status",
        help="what ran, with what config, and what changed since",
    )
    add_workflow_options(status)

    report = subparsers.add_parser(
        "report", help="render the workflow QA report from the run database"
    )
    add_workflow_options(report)
    report.add_argument(
        "--format", dest="fmt", default="markdown",
        choices=("markdown", "html"), help="report output format",
    )
    report.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )

    return parser


# --------------------------------------------------------------------------
# Command implementations
# --------------------------------------------------------------------------
def _settings(cls, args: argparse.Namespace):
    """Settings dataclass ``cls`` from the flags whose dests are its field names."""
    fields = [f.name for f in dataclasses.fields(cls) if hasattr(args, f.name)]
    return cls(**{name: getattr(args, name) for name in fields})


def _build_model(args: argparse.Namespace, num_features: int, num_classes: int):
    """Instantiate the requested model family from CLI arguments.

    Delegates to :func:`repro.eval.sweep.build_model`, the factory shared
    with the sweep workers, so ``repro train`` and a sweep cell with the
    same hyperparameters construct identical models.  Every class gets at
    least one centroid column.
    """
    hyper = {name: getattr(args, name) for name in MODEL_DEFAULTS}
    hyper["columns"] = max(hyper["columns"], num_classes)
    return build_model(args.model, num_features, num_classes, seed=args.seed, **hyper)


def _is_checkpoint_path(spec: str) -> bool:
    """Whether a ``--save`` / ``--load`` spec is a file path (vs a registry name).

    Deliberately deterministic: only the spelling of the spec decides
    (``.npz`` suffix or a path separator), never what happens to exist in
    the current directory, so the same spec always addresses the same
    artifact.
    """
    return spec.endswith(".npz") or os.path.sep in spec


def _save_trained_model(model, spec, store, dataset, metrics) -> str:
    """Checkpoint a trained model to a path or into the registry.

    Returns a human-readable description of where it went.
    """
    if _is_checkpoint_path(spec):
        save_checkpoint(model, spec, dataset=dataset, metrics=metrics)
        return checkpoint_path(spec)
    registry = ArtifactRegistry(store)
    name, _, tag = spec.partition(":")
    entry = registry.save(
        model, name, tag=tag or None, dataset=dataset, metrics=metrics
    )
    return f"{entry.spec} ({entry.path})"


def _resolve_checkpoint_spec(spec, store):
    """Resolve a ``--load`` spec (path or registry ``name[:tag]``) to a file."""
    if _is_checkpoint_path(spec):
        # Accept both the path as given and the .npz-suffixed form that
        # save_checkpoint actually wrote.
        return spec if os.path.isfile(spec) else checkpoint_path(spec)
    return ArtifactRegistry(store).resolve(spec)


def _load_saved_model(spec, store):
    """Load a checkpoint (path or registry spec); returns (model, manifest)."""
    return load_checkpoint_with_manifest(_resolve_checkpoint_spec(spec, store))


def cmd_info(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, rng=args.seed)
    rows = [dataset.summary()]
    print(format_table(rows, title=f"Dataset profile: {args.dataset}"))
    counts = dataset.class_counts("train")
    print(
        f"train samples per class: min {counts.min()}, max {counts.max()}, "
        f"mean {counts.mean():.1f}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, rng=args.seed)
    model = _build_model(args, dataset.num_features, dataset.num_classes)
    history = model.fit(dataset.train_features, dataset.train_labels)
    test_accuracy = model.score(dataset.test_features, dataset.test_labels)
    report = model.memory_report()
    rows = [
        {
            "model": model.name,
            "dataset": dataset.name,
            "train_accuracy_%": 100.0 * history.final_train_accuracy,
            "test_accuracy_%": 100.0 * test_accuracy,
            "encoder_KB": report.encoder_kib,
            "am_KB": report.am_kib,
            "total_KB": report.total_kib,
        }
    ]
    print(format_table(rows, float_format="{:.2f}", title="Training result"))
    if args.save:
        metrics = {
            "train_accuracy": history.final_train_accuracy,
            "test_accuracy": test_accuracy,
        }
        try:
            destination = _save_trained_model(
                model, args.save, args.store, dataset, metrics
            )
        except (CheckpointError, RegistryError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"saved checkpoint to {destination}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, rng=args.seed)
    if args.load:
        try:
            model, manifest = _load_saved_model(args.load, args.store)
        except (CheckpointError, RegistryError, FileNotFoundError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if getattr(model, "num_features", dataset.num_features) != dataset.num_features:
            print(
                f"error: checkpoint expects {model.num_features} features but "
                f"dataset {dataset.name!r} has {dataset.num_features}",
                file=sys.stderr,
            )
            return 2
        saved = manifest.dataset
        if saved and saved.get("sha256") != dataset_fingerprint(dataset)["sha256"]:
            print(
                f"warning: checkpoint was trained on "
                f"{saved.get('name', 'unknown')!r} data with a different "
                "fingerprint than the dataset being served",
                file=sys.stderr,
            )
    else:
        print(
            "note: no --load given, so the model is retrained from scratch "
            "on every invocation; run `repro train --save NAME` once and "
            "reuse it with `repro predict --load NAME`",
            file=sys.stderr,
        )
        model = _build_model(args, dataset.num_features, dataset.num_classes)
        model.fit(dataset.train_features, dataset.train_labels)

    engines = ("float", "packed") if args.engine == "both" else (args.engine,)
    if args.prune_topk is not None and callable(
        getattr(model, "configure_pruning", None)
    ):
        model.configure_pruning(args.prune_topk)
    try:
        labels, stats = throughput_comparison(
            model,
            dataset.test_features,
            engines=engines,
            chunk_size=args.batch_size,
            workers=args.workers,
            repeats=args.repeats,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    test_accuracy = accuracy(labels, dataset.test_labels)

    rows = []
    for engine_stats in stats:
        row = engine_stats.as_dict()
        row["backend"] = (
            kernel_backend()
            if engine_stats.engine in ("packed", "pruned")
            else "blas"
        )
        row["elapsed_ms"] = 1000.0 * row.pop("elapsed_s")
        row["accuracy_%"] = 100.0 * test_accuracy
        rows.append(row)
    print(
        format_table(
            rows,
            float_format="{:.2f}",
            title=f"Batched inference on {dataset.name} ({model.name})",
        )
    )
    if len(stats) == 2 and stats[1].elapsed_seconds > 0:
        speedup = stats[0].elapsed_seconds / stats[1].elapsed_seconds
        print(f"packed engine speedup over float64 matmul: {speedup:.2f}x")
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    profile = DATASET_PROFILES[args.dataset]
    array = IMCArrayConfig(args.rows, args.cols)
    memhd_dimension = args.memhd_dimension or array.rows
    reports = full_mapping_report(
        num_features=profile.num_features,
        num_classes=profile.num_classes,
        baseline_dimension=args.baseline_dimension,
        memhd_dimension=memhd_dimension,
        memhd_columns=array.cols,
        partition_counts=tuple(args.partitions),
        array=array,
    )
    print(
        format_table(
            table2_rows(reports),
            title=f"Mapping analysis on {array.label} arrays ({args.dataset})",
        )
    )
    factors = improvement_factors(reports)
    print(
        f"MEMHD vs Basic: {factors['cycle_reduction']:.1f}x fewer cycles, "
        f"{factors['array_reduction']:.1f}x fewer arrays, "
        f"+{factors['utilization_gain'] * 100:.1f} pp utilization"
    )
    return 0


#: Fixed tiny grid used by ``repro sweep run --smoke`` (CI's rot check).
SMOKE_SPEC = SweepSpec(
    models=("memhd", "basichdc"),
    datasets=("mnist",),
    dimensions=(32, 64),
    columns=(16,),
    engines=("float", "packed"),
    scale=0.01,
    epochs=1,
    seed=7,
)

#: Fixed serving-load smoke grid (``--smoke --kind serving-load``):
#: 2 concurrency x 2 worker-count points over one tiny trained model,
#: the minimal capacity-planning matrix CI gates.
SERVING_SMOKE_SPEC = SweepSpec(
    kind="serving-load",
    models=("memhd",),
    datasets=("mnist",),
    dimensions=(32,),
    columns=(16,),
    engines=("packed",),
    scale=0.01,
    epochs=1,
    seed=7,
    serving_concurrency=(2, 4),
    serving_workers=(1, 2),
    serving_batch=(4,),
    serving_requests=32,
)


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    """Build the sweep spec from ``--spec FILE``, ``--smoke`` or axis flags."""
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            return SweepSpec.from_dict(json.load(handle))
    if args.smoke:
        # A fixed preset, independent of the other axis flags, so every CI
        # run exercises the identical tiny grid.
        return SERVING_SMOKE_SPEC if args.kind == "serving-load" else SMOKE_SPEC
    return _settings(SweepSpec, args)


def cmd_sweep_run(args: argparse.Namespace) -> int:
    if args.distributed:
        return _cmd_sweep_run_distributed(args)
    if args.store_dir:
        print("error: --store-dir requires --distributed", file=sys.stderr)
        return 2
    try:
        spec = _spec_from_args(args)
        store = ResultStore(args.results)
        result = run_sweep(
            spec,
            store,
            workers=args.workers,
            resume=not args.no_resume,
            max_jobs=args.max_jobs,
            progress=lambda line: print(line, file=sys.stderr),
        )
        records = spec_records(spec, store)
    except (SweepError, StoreError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.summary())
    if records:
        print(_sweep_tables(records, title=f"Sweep results ({store.path})"))
    if args.save_best:
        try:
            best = best_record(records)
            model, dataset = train_record_model(best)
            registry = ArtifactRegistry(args.store)
            name, _, tag = args.save_best.partition(":")
            entry = registry.save(
                model, name, tag=tag or None, dataset=dataset, metrics=best.metrics
            )
        except (SweepError, CheckpointError, RegistryError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(
            f"saved best cell ({best.config['model']} on "
            f"{best.config['dataset']}, accuracy "
            f"{100.0 * best.metrics['test_accuracy']:.2f}%) to {entry.spec}"
        )
    if result.failed:
        for failure in result.failed:
            print(f"failed cell {failure['key']}: {failure['error']}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep_run_distributed(args: argparse.Namespace) -> int:
    """The ``sweep run --distributed`` path: one elastic pool worker."""
    from repro.eval.distributed import DEFAULT_TTL_S, run_distributed

    if not args.store_dir:
        print("error: --distributed requires --store-dir", file=sys.stderr)
        return 2
    if args.workers != 1:
        print(
            "error: --distributed runs cells inline; scale out by starting "
            "more workers over the same --store-dir, not with --workers",
            file=sys.stderr,
        )
        return 2
    if args.no_resume:
        print(
            "error: --no-resume is meaningless with --distributed (the "
            "shared store is the pool's work ledger)",
            file=sys.stderr,
        )
        return 2
    try:
        spec = _spec_from_args(args)
        result = run_distributed(
            spec,
            args.store_dir,
            worker_id=args.worker_id,
            ttl_s=args.lease_ttl if args.lease_ttl is not None else DEFAULT_TTL_S,
            poll_s=args.poll_interval,
            max_cells=args.max_jobs,
            progress=lambda line: print(line, file=sys.stderr),
        )
        records = spec_records(spec, ResultStore(result_store_path(args.store_dir)))
    except (SweepError, StoreError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.summary())
    if records:
        print(_sweep_tables(records, title=f"Sweep results ({args.store_dir})"))
    if result.failed:
        for failure in result.failed:
            print(f"failed cell {failure['key']}: {failure['error']}", file=sys.stderr)
        return 1
    return 0 if result.grid_complete else 1


def result_store_path(store_dir: str) -> str:
    """``results.jsonl`` inside a distributed store dir (for sweep diff)."""
    from repro.eval.distributed import store_paths

    return str(store_paths(store_dir)["results"])


def _sweep_tables(records, title: str) -> str:
    """Accuracy + serving-load tables for whatever mix the store holds."""
    serving = [r for r in records if r.config.get("kind") == "serving-load"]
    regular = [r for r in records if r.config.get("kind") != "serving-load"]
    parts = []
    if regular:
        parts.append(format_sweep_records(regular, title=title))
    if serving:
        parts.append(
            format_serving_records(serving, title=f"Serving-load results ({title})")
        )
    return "\n\n".join(parts)


def cmd_sweep_status(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args)
        results = (
            result_store_path(args.store_dir) if args.store_dir else args.results
        )
        store = ResultStore(results)
        jobs = spec.expand()
        completed = store.completed_keys()
    except (SweepError, StoreError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    done = [job for job in jobs if job.key in completed]
    pending = [job for job in jobs if job.key not in completed]
    print(
        f"store {store.path}: {len(store)} stored cell(s); spec: "
        f"{len(jobs)} cell(s), {len(done)} completed, {len(pending)} pending"
    )
    for job in pending[:10]:
        print(f"  pending {job.key}: {job.config['model']} on "
              f"{job.config['dataset']} (D={job.config['dimension']})")
    if len(pending) > 10:
        print(f"  ... and {len(pending) - 10} more")
    if args.store_dir:
        from repro.eval.distributed import DEFAULT_TTL_S, pool_status

        status = pool_status(
            args.store_dir,
            ttl_s=args.lease_ttl if args.lease_ttl is not None else DEFAULT_TTL_S,
        )
        if status["workers"]:
            rows = [
                {"worker": worker, **counts}
                for worker, counts in status["workers"].items()
            ]
            print()
            print(format_table(rows, title="per-worker attribution"))
        for label, leases in (
            ("active", status["active_leases"]),
            ("expired", status["expired_leases"]),
        ):
            for lease in leases:
                print(
                    f"  {label} lease {lease['key']}: held by {lease['worker']} "
                    f"(age {lease['age_s']:.1f}s)"
                )
    return 0


def cmd_sweep_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.results)
    try:
        records = list(store.latest().values())
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not records:
        print(f"no results in {store.path}")
        return 0
    print(_sweep_tables(records, title=f"Sweep results ({store.path})"))
    if args.heatmap:
        grid = sweep_grid(records, value=args.value)
        if grid:
            # Accuracy metrics are fractions and render as percentages;
            # anything else (memory, throughput) displays unscaled.
            is_fraction = args.value.endswith("accuracy")
            unit = " (%)" if is_fraction else ""
            print()
            print(
                format_heatmap(
                    grid,
                    title=f"{args.value}{unit} over D (rows) x C (columns)",
                    cell_format="{:6.1f}" if is_fraction else "{:8.4g}",
                    cell_scale=100.0 if is_fraction else 1.0,
                )
            )
        else:
            print("(no ideal cells carry both dimension and columns axes)")
    return 0


def cmd_sweep_diff(args: argparse.Namespace) -> int:
    # Missing or empty stores diff as "no records" rather than erroring:
    # a fresh checkout comparing against a not-yet-run baseline is clean,
    # not broken (the note keeps the situation visible).
    for path in (args.left, args.right):
        if not os.path.isfile(path):
            print(f"note: {path} has no records (missing or empty store)")
    try:
        diff = ResultStore(args.left).diff(
            ResultStore(args.right),
            rtol=args.rtol,
            atol=args.atol,
            metrics=args.metrics,
        )
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_store_diff(diff, title=f"{args.left} vs {args.right}"))
    return 0 if diff.is_clean else 1


SWEEP_COMMANDS = {
    "run": cmd_sweep_run,
    "status": cmd_sweep_status,
    "report": cmd_sweep_report,
    "diff": cmd_sweep_diff,
}


def cmd_sweep(args: argparse.Namespace) -> int:
    return SWEEP_COMMANDS[args.sweep_command](args)


def _on_sigterm(callback) -> None:
    """Install ``callback`` as the SIGTERM handler (main thread only).

    Signal handlers are process-global and may only be installed from the
    main thread; tests drive ``cmd_serve`` from helper threads, where this
    quietly becomes a no-op.
    """
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda *_: callback())


def _serve_banner(
    args: argparse.Namespace, serve: ServeConfig, url: str, pool: str, online
) -> None:
    """The ``repro serve`` banner, identical for both serving modes."""
    served = ", ".join(([args.load] if args.load else []) + list(args.models or ()))
    backend = kernel_backend() if serve.engine in ("packed", "pruned") else "blas"
    batching = (
        f"batching max_batch={serve.max_batch_size} max_wait={serve.max_wait_ms}ms "
        f"queue_depth={serve.queue_depth}"
        if serve.batching
        else "batching disabled"
    )
    print(
        f"serving {served} on {url} [engine={serve.engine}, backend={backend}, "
        f"workers={args.workers} ({pool}), {batching}"
        f"{', online' if online is not None else ''}]"
    )
    print(
        "endpoints: POST /predict, POST /models/<name>/predict, "
        "POST /reload, "
        + ("POST /feedback, " if online is not None else "")
        + "GET /healthz, GET /stats, GET /stats/local, "
        "GET /manifest, GET /models"
    )


def _serve_prefork(
    args: argparse.Namespace, serve: ServeConfig, model, manifest, online
) -> int:
    """``repro serve --workers N`` (N > 1): run the prefork supervisor."""
    store = str(ArtifactRegistry(args.store).root) if args.models else None
    config = WorkerConfig(
        models=tuple(args.models or ()),
        store=store,
        model=model,
        manifest=manifest,
        serve=serve,
        online=online,
    )
    try:
        supervisor = WorkerSupervisor(
            config,
            host=args.host,
            port=args.port,
            workers=args.workers,
            socket_mode=args.socket_mode,
            drain_timeout=args.drain_timeout,
        )
        supervisor.start()
    except (ValueError, RuntimeError, CheckpointError, RegistryError, OSError) as error:
        # OSError covers bind failures: port in use, privileged port, ...
        print(f"error: {error}", file=sys.stderr)
        return 2
    _serve_banner(args, serve, supervisor.url, supervisor.socket_mode, online)
    _on_sigterm(supervisor.request_shutdown)
    try:
        supervisor.wait()
        print("shutting down (draining workers)")
    except KeyboardInterrupt:
        print("shutting down (draining workers)")
    finally:
        supervisor.shutdown(drain=True)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if not args.load and not args.models:
        print("error: provide --load CKPT and/or --models SPEC[,SPEC...]",
              file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.online and not args.models:
        print("error: --online requires registry-backed --models "
              "(promotions are versioned checkpoints)", file=sys.stderr)
        return 2
    try:
        serve = _settings(ServeConfig, args)
        online = _settings(OnlineConfig, args) if args.online else None
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    model = manifest = None
    if args.load:
        try:
            model, manifest = _load_saved_model(args.load, args.store)
        except (CheckpointError, RegistryError, FileNotFoundError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.workers > 1:
        return _serve_prefork(args, serve, model, manifest, online)
    try:
        server = ModelServer(
            model,
            manifest=manifest,
            host=args.host,
            port=args.port,
            models=args.models,
            registry=ArtifactRegistry(args.store),
            online=online,
            **dataclasses.asdict(serve),
        )
    except (ValueError, CheckpointError, RegistryError, OSError) as error:
        # OSError covers bind failures: port in use, privileged port, ...
        print(f"error: {error}", file=sys.stderr)
        return 2
    _serve_banner(args, serve, server.url, "in-process", online)
    # SIGTERM drains like Ctrl-C: stop accepting, answer what's in flight.
    _on_sigterm(
        lambda: threading.Thread(target=server.shutdown, daemon=True).start()
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
    return 0


def _print_worker_attribution(url: str) -> None:
    """After a load test, show how a prefork cluster split the traffic.

    ``GET /stats`` on a ``--workers N`` daemon returns the aggregated
    cluster view with a per-worker ``workers`` map; a single-process
    server has no such key and prints nothing.  Stats are advisory, so
    any failure to fetch them is silently ignored.
    """
    try:
        stats = fetch_server_stats(url)
    except Exception:
        return
    workers = stats.get("workers")
    if not isinstance(workers, dict) or not workers:
        return
    rows = []
    for worker_id in sorted(workers, key=lambda key: int(key)):
        snapshot = workers[worker_id]
        rows.append(
            {
                "worker": int(worker_id),
                "requests": snapshot.get("requests", 0),
                "queries": snapshot.get("queries", 0),
                "errors": snapshot.get("errors", 0),
                "qps": snapshot.get("queries_per_second", 0.0),
            }
        )
    title = (
        f"Per-worker attribution ({stats.get('workers_alive', len(rows))}/"
        f"{stats.get('workers_total', len(rows))} workers alive, "
        f"{stats.get('respawns', 0)} respawns)"
    )
    print(format_table(rows, float_format="{:.2f}", title=title))


def cmd_loadtest(args: argparse.Namespace) -> int:
    concurrency = args.concurrency
    duration = args.duration
    if args.smoke:
        concurrency = min(concurrency, 8)
        duration = min(duration, 1.5)
    try:
        report = run_load(
            args.url,
            num_features=args.num_features,
            model=args.model,
            mode=args.mode,
            concurrency=concurrency,
            duration_seconds=duration,
            batch_size=args.batch,
            rate=args.rate,
            deadline_ms=args.deadline_ms,
            seed=args.seed,
        )
    except (ValueError, RuntimeError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    row = report.as_dict()
    errors_by_status = row.pop("errors_by_status")
    print(
        format_table(
            [row], float_format="{:.2f}", title=f"Load test against {args.url}"
        )
    )
    if errors_by_status:
        shed = ", ".join(
            f"{count}x HTTP {status}" for status, count in errors_by_status.items()
        )
        print(f"non-200 responses: {shed}")
    _print_worker_attribution(args.url)
    if args.fail_on_error and report.errors:
        print(
            f"error: {report.errors}/{report.requests} requests failed",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    registry = ArtifactRegistry(args.store)
    try:
        if args.models_command == "list":
            entries = registry.list_entries(args.name)
            if not entries:
                print(f"no checkpoints in store {registry.root}")
                return 0
            rows = [entry.summary() for entry in entries]
            print(
                format_table(
                    rows,
                    float_format="{:.1f}",
                    title=f"Artifact store: {registry.root}",
                )
            )
            return 0
        if args.models_command == "show":
            manifest = read_manifest(_resolve_checkpoint_spec(args.spec, args.store))
            print(json.dumps(json.loads(manifest.to_json()), indent=2, sort_keys=True))
            return 0
        if args.models_command == "prune":
            removed = registry.prune(name=args.name, keep=args.keep)
            for path in removed:
                print(f"removed {path}")
            kept = len(registry.list_entries(args.name))
            print(f"pruned {len(removed)} checkpoint(s); {kept} kept")
            return 0
    except (CheckpointError, RegistryError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise ValueError(f"unknown models subcommand {args.models_command!r}")


def _load_workflow(args: argparse.Namespace):
    """``(spec, workdir)`` from workflow-command arguments.

    Raises
    ------
    repro.orchestrate.OrchestrationError
        On unreadable or invalid workflow files.
    """
    from repro.orchestrate import parse_workflow

    spec = parse_workflow(args.workflow)
    workdir = args.workdir or spec.workdir or f"{spec.name}-workdir"
    return spec, workdir


def cmd_run(args: argparse.Namespace) -> int:
    from repro.orchestrate import OrchestrationError, run_workflow

    try:
        spec, workdir = _load_workflow(args)
    except OrchestrationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = run_workflow(
        spec,
        workdir,
        workers=args.workers,
        force=args.force,
        progress=print,
    )
    print(result.summary())
    if not result.ok:
        for step in result.steps:
            if step.action == "failed":
                print(f"failed step {step.name}: {step.error}", file=sys.stderr)
        return 1
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from repro.orchestrate import OrchestrationError, workflow_status

    try:
        spec, workdir = _load_workflow(args)
    except OrchestrationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(workflow_status(spec, workdir))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.orchestrate import OrchestrationError, build_report

    try:
        spec, workdir = _load_workflow(args)
    except OrchestrationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rendered = build_report(spec, workdir, fmt=args.fmt)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as stream:
                stream.write(rendered)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"wrote {args.fmt} report to {args.output}")
    else:
        print(rendered, end="")
    return 0


COMMANDS = {
    "info": cmd_info,
    "train": cmd_train,
    "predict": cmd_predict,
    "serve": cmd_serve,
    "loadtest": cmd_loadtest,
    "models": cmd_models,
    "map": cmd_map,
    "sweep": cmd_sweep,
    "run": cmd_run,
    "status": cmd_status,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the console script and ``python -m repro.cli``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
