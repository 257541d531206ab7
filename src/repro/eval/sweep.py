"""Declarative, parallel, resumable experiment-matrix engine.

The paper's headline results are grids -- accuracy over memory budget,
dimension x centroid count, cluster ratio, IMC noise / ADC precision.
:class:`SweepSpec` describes such a grid declaratively; the engine expands
it into concrete jobs, executes them through
:func:`repro.eval.executor.run_graph` (inline, or over a process pool
of ``workers``) with deterministic per-cell seeds, and streams every
finished cell into an append-only
:class:`repro.eval.store.ResultStore` keyed by a config hash.  Because the
store is consulted before running, an interrupted or repeated sweep only
executes the missing cells (**resume**), and two stores can be **diffed**
for regression checks (the golden-metrics test pins one under
``tests/golden/``).

Cell semantics
--------------
One cell is one ``(model, dataset, dimension, columns, cluster ratio,
engine, bit-flip probability, ADC bits)`` combination, canonicalized so
that axes a model ignores never multiply the grid:

* baselines drop the MEMHD-only axes (``columns``, ``cluster_ratio``) and
  only MEMHD cells carry the IMC non-ideality axes;
* projection-encoded models drop ``id_levels``;
* the ``packed`` engine is only generated for models that support it, and
  non-ideal (noise / ADC) cells are simulator evaluations with no engine
  axis at all.

Every cell's model seed is derived from the spec's base seed and the
cell's config hash, so results are reproducible regardless of execution
order, worker count, or which cells were resumed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import time
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.datasets import DATASET_PROFILES, available_datasets, load_dataset
from repro.eval.executor import run_graph
from repro.eval.metrics import accuracy
from repro.eval.store import ResultRecord, ResultStore, config_key

#: Model families a sweep (and the CLI) can construct.
MODEL_CHOICES = ("memhd", "basichdc", "quanthd", "searchd", "lehdc", "onlinehd")

#: Models whose ``predict`` supports the bit-packed popcount engine.
PACKED_MODELS = frozenset({"memhd", "basichdc", "quanthd", "searchd", "lehdc"})

#: Models encoded with the ID-Level encoder (the only users of ``id_levels``).
ID_LEVEL_MODELS = frozenset({"quanthd", "searchd", "lehdc"})

#: Engines a sweep cell can time predictions under.
SWEEP_ENGINES = ("float", "packed")

#: Cell kinds a sweep can expand: accuracy/memory evaluation (the default
#: PR 3 behaviour) or serving-load cells that boot a real server per cell
#: and measure it with the PR 4 load generator.
SWEEP_KINDS = ("accuracy", "serving-load")

#: Loop modes a serving-load cell can drive (mirrors
#: ``repro.runtime.loadtest.MODES`` without importing the runtime stack
#: at sweep-definition time).
SERVING_MODES = ("closed", "open")

#: Test hook: sleep this many seconds at the start of every executed cell.
#: Gives the chaos tests a reliable window to SIGKILL a worker *mid-cell*
#: (between claiming a lease and appending the result).
DELAY_ENV = "REPRO_SWEEP_TEST_DELAY_S"


class SweepError(Exception):
    """A sweep could not be specified or executed (empty grid, bad axis...)."""


# --------------------------------------------------------------------------
# Shared model factory (used by the sweep workers, the CLI and workflows)
# --------------------------------------------------------------------------
#: The one declaration of the training hyperparameters and their defaults.
#: ``repro train`` / ``repro predict`` flags, :class:`SweepSpec`'s scalar
#: and axis defaults and the workflow ``train`` step schema all read it.
MODEL_DEFAULTS = MappingProxyType(
    {
        "dimension": 128,
        "columns": 128,
        "epochs": 5,
        "learning_rate": 0.05,
        "cluster_ratio": 0.8,
        "init_method": "clustering",
        "id_levels": 32,
    }
)

#: Default fraction of the paper-scale per-class sample budget.
DEFAULT_SCALE = 0.02


def build_model(model: str, num_features: int, num_classes: int, *, seed: int, **hyper):
    """Instantiate any supported model family from flat hyperparameters.

    This is the single construction path shared by ``repro train`` /
    ``repro predict``, workflow ``train`` steps and the sweep workers, so
    a sweep cell trains exactly the model the CLI would.  ``hyper`` takes
    any of the :data:`MODEL_DEFAULTS` names; omitted ones take their
    default and any other name is rejected.  Every family gets the values
    as given, so a sweep record states the hyperparameters its model was
    trained with.
    """
    unknown = sorted(set(hyper) - set(MODEL_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown hyperparameter(s) {unknown}; choose from {sorted(MODEL_DEFAULTS)}"
        )
    hyper = {**MODEL_DEFAULTS, **hyper}
    if model == "memhd":
        from repro.core.config import MEMHDConfig
        from repro.core.model import MEMHDModel

        config = MEMHDConfig(
            dimension=hyper["dimension"],
            columns=hyper["columns"],
            cluster_ratio=hyper["cluster_ratio"],
            epochs=hyper["epochs"],
            learning_rate=hyper["learning_rate"],
            init_method=hyper["init_method"],
            seed=seed,
        )
        return MEMHDModel(num_features, num_classes, config, rng=seed)
    if model == "basichdc":
        from repro.baselines import BasicHDC, BasicHDCConfig

        return BasicHDC(
            num_features,
            num_classes,
            BasicHDCConfig(
                dimension=hyper["dimension"],
                refine_epochs=hyper["epochs"],
                learning_rate=hyper["learning_rate"],
                seed=seed,
            ),
        )
    if model == "quanthd":
        from repro.baselines import QuantHD, QuantHDConfig

        return QuantHD(
            num_features,
            num_classes,
            QuantHDConfig(
                dimension=hyper["dimension"],
                num_levels=hyper["id_levels"],
                epochs=hyper["epochs"],
                learning_rate=hyper["learning_rate"],
                seed=seed,
            ),
        )
    if model == "searchd":
        from repro.baselines import SearcHD, SearcHDConfig

        return SearcHD(
            num_features,
            num_classes,
            SearcHDConfig(
                dimension=hyper["dimension"],
                num_levels=hyper["id_levels"],
                num_models=8,
                epochs=hyper["epochs"],
                seed=seed,
            ),
        )
    if model == "lehdc":
        from repro.baselines import LeHDC, LeHDCConfig

        return LeHDC(
            num_features,
            num_classes,
            LeHDCConfig(
                dimension=hyper["dimension"],
                num_levels=hyper["id_levels"],
                epochs=hyper["epochs"],
                learning_rate=hyper["learning_rate"],
                seed=seed,
            ),
        )
    if model == "onlinehd":
        from repro.baselines import OnlineHD, OnlineHDConfig

        return OnlineHD(
            num_features,
            num_classes,
            OnlineHDConfig(
                dimension=hyper["dimension"],
                epochs=hyper["epochs"],
                learning_rate=hyper["learning_rate"],
                seed=seed,
            ),
        )
    raise ValueError(f"unknown model {model!r}; choose from {MODEL_CHOICES}")


#: Config fields that determine the trained model (and hence its seed).
#: Evaluation-only axes (engine, injected noise, ADC resolution) are
#: excluded so that every cell evaluating the same trained model -- the
#: float and packed timings, the ideal and noisy simulator runs -- really
#: does evaluate a bit-identical model.
TRAINING_FIELDS = (
    "model",
    "dataset",
    "scale",
    "dimension",
    "columns",
    "cluster_ratio",
    "init_method",
    "id_levels",
    "epochs",
    "learning_rate",
    "seed",
)


def training_config(config: Dict[str, Any]) -> Dict[str, Any]:
    """The training-relevant subset of a cell configuration."""
    return {field: config[field] for field in TRAINING_FIELDS if field in config}


def derive_job_seed(base_seed: int, config: Dict[str, Any]) -> int:
    """Deterministic per-cell model seed from the training configuration.

    Independent of execution order, worker count and the evaluation-only
    axes, so a resumed sweep trains bit-identical models for the cells it
    re-runs and same-model cells (float vs packed, ideal vs noisy) share
    one model.
    """
    identity = config_key(training_config(config))
    digest = hashlib.sha256(f"{base_seed}:{identity}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)


# --------------------------------------------------------------------------
# Spec and jobs
# --------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """Declarative description of an experiment grid.

    Axes (the cartesian product is canonicalized per model, see the module
    docstring): ``models x datasets x dimensions x columns x
    cluster_ratios x engines x bit_flip_probabilities x adc_bits``.
    Scalars (``scale``, ``epochs``, ``learning_rate``, ``id_levels``,
    ``init_method``, ``seed``) apply to every cell.

    ``kind="serving-load"`` switches the grid to capacity-planning cells:
    each cell trains its model (same deterministic seed derivation as
    accuracy cells -- serving knobs are evaluation-only axes), boots a
    real server and measures it under the cell's ``serving_*`` axes
    (concurrency x worker processes x request batch x loop mode).  Only
    ideal cells exist in this kind (no IMC noise/ADC axes).  Accuracy
    cells carry no ``kind`` or ``serving_*`` config keys, so every
    pre-existing store's config hashes are unchanged.
    """

    models: Tuple[str, ...] = ("memhd",)
    datasets: Tuple[str, ...] = ("mnist",)
    dimensions: Tuple[int, ...] = (MODEL_DEFAULTS["dimension"],)
    columns: Tuple[int, ...] = (MODEL_DEFAULTS["columns"],)
    cluster_ratios: Tuple[float, ...] = (MODEL_DEFAULTS["cluster_ratio"],)
    engines: Tuple[str, ...] = ("float",)
    bit_flip_probabilities: Tuple[float, ...] = (0.0,)
    adc_bits: Tuple[Optional[int], ...] = (None,)
    scale: float = DEFAULT_SCALE
    epochs: int = MODEL_DEFAULTS["epochs"]
    learning_rate: float = MODEL_DEFAULTS["learning_rate"]
    id_levels: int = MODEL_DEFAULTS["id_levels"]
    init_method: str = MODEL_DEFAULTS["init_method"]
    seed: int = 0
    kind: str = "accuracy"
    serving_concurrency: Tuple[int, ...] = (8,)
    serving_workers: Tuple[int, ...] = (1,)
    serving_batch: Tuple[int, ...] = (1,)
    serving_modes: Tuple[str, ...] = ("closed",)
    serving_requests: int = 64
    serving_rate: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "dimensions", tuple(int(d) for d in self.dimensions))
        object.__setattr__(self, "columns", tuple(int(c) for c in self.columns))
        object.__setattr__(
            self, "cluster_ratios", tuple(float(r) for r in self.cluster_ratios)
        )
        object.__setattr__(self, "engines", tuple(self.engines))
        object.__setattr__(
            self,
            "bit_flip_probabilities",
            tuple(float(p) for p in self.bit_flip_probabilities),
        )
        object.__setattr__(
            self,
            "adc_bits",
            tuple(None if b is None else int(b) for b in self.adc_bits),
        )
        for model in self.models:
            if model not in MODEL_CHOICES:
                raise SweepError(
                    f"unknown model {model!r}; choose from {MODEL_CHOICES}"
                )
        for dataset in self.datasets:
            if dataset not in available_datasets():
                raise SweepError(
                    f"unknown dataset {dataset!r}; choose from {available_datasets()}"
                )
        for engine in self.engines:
            if engine not in SWEEP_ENGINES:
                raise SweepError(
                    f"unknown engine {engine!r}; choose from {SWEEP_ENGINES}"
                )
        for probability in self.bit_flip_probabilities:
            if not 0.0 <= probability <= 1.0:
                raise SweepError("bit flip probabilities must be in [0, 1]")
        if self.scale <= 0:
            raise SweepError("scale must be positive")
        if self.epochs < 0:
            raise SweepError("epochs must be non-negative")
        object.__setattr__(
            self,
            "serving_concurrency",
            tuple(int(c) for c in self.serving_concurrency),
        )
        object.__setattr__(
            self, "serving_workers", tuple(int(w) for w in self.serving_workers)
        )
        object.__setattr__(
            self, "serving_batch", tuple(int(b) for b in self.serving_batch)
        )
        object.__setattr__(self, "serving_modes", tuple(self.serving_modes))
        if self.kind not in SWEEP_KINDS:
            raise SweepError(f"unknown kind {self.kind!r}; choose from {SWEEP_KINDS}")
        if self.kind == "serving-load":
            if any(p != 0.0 for p in self.bit_flip_probabilities) or any(
                b is not None for b in self.adc_bits
            ):
                raise SweepError(
                    "serving-load sweeps are ideal-only: drop the "
                    "bit-flip/ADC axes (the IMC simulator has no server)"
                )
            for values, label in (
                (self.serving_concurrency, "serving_concurrency"),
                (self.serving_workers, "serving_workers"),
                (self.serving_batch, "serving_batch"),
            ):
                if not values or any(v < 1 for v in values):
                    raise SweepError(f"{label} axis values must be >= 1")
            for mode in self.serving_modes:
                if mode not in SERVING_MODES:
                    raise SweepError(
                        f"unknown serving mode {mode!r}; choose from {SERVING_MODES}"
                    )
            if int(self.serving_requests) < 1:
                raise SweepError("serving_requests must be >= 1")
            object.__setattr__(self, "serving_requests", int(self.serving_requests))
            if "open" in self.serving_modes and (
                self.serving_rate is None or float(self.serving_rate) <= 0
            ):
                raise SweepError("open-loop serving cells need a positive serving_rate")
            if self.serving_rate is not None:
                object.__setattr__(self, "serving_rate", float(self.serving_rate))

    # -------------------------------------------------------------- (de)spec
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (``repro sweep run --spec`` round-trip)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepSpec":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise SweepError(f"unknown sweep spec fields: {sorted(unknown)}")
        try:
            return cls(**payload)
        except (TypeError, ValueError) as error:
            # Wrong-typed field values (a scalar where an axis list is
            # expected, a non-numeric epoch count, ...) must surface as the
            # same clean SweepError every other bad-spec path raises.
            raise SweepError(f"invalid sweep spec: {error}") from error

    # ------------------------------------------------------------- expansion
    def expand(self) -> List["SweepJob"]:
        """Expand the grid into unique, canonicalized jobs.

        Cells a model cannot realize are dropped (packed engine on a
        model without one, MEMHD column budgets below the dataset's class
        count, non-ideal IMC cells for non-MEMHD models), and cells that
        canonicalize identically -- e.g. two column budgets for a
        baseline that has no columns -- collapse into one job.
        """
        if self.kind == "serving-load":
            return self._expand_serving()
        jobs: Dict[str, SweepJob] = {}
        axes = itertools.product(
            self.models,
            self.datasets,
            self.dimensions,
            self.columns,
            self.cluster_ratios,
            self.bit_flip_probabilities,
            self.adc_bits,
        )
        for model, dataset, dimension, column_count, ratio, flip, adc in axes:
            ideal = flip == 0.0 and adc is None
            if model != "memhd" and not ideal:
                continue  # the IMC simulator maps MEMHD models only
            engines: Tuple[Optional[str], ...]
            if ideal:
                engines = tuple(
                    engine
                    for engine in self.engines
                    if engine == "float" or model in PACKED_MODELS
                )
            else:
                engines = (None,)  # simulator cell: no serving engine
            for engine in engines:
                config = self._cell_config(
                    model, dataset, dimension, column_count, ratio, flip, adc, engine
                )
                if config is None:
                    continue
                key = config_key(config)
                jobs.setdefault(
                    key,
                    SweepJob(
                        key=key,
                        config=config,
                        seed=derive_job_seed(self.seed, config),
                    ),
                )
        return list(jobs.values())

    def _expand_serving(self) -> List["SweepJob"]:
        """Expand serving-load cells: model grid x serving knobs.

        The serving knobs are evaluation-only axes (excluded from
        :data:`TRAINING_FIELDS`), so every serving point of one model
        cell trains the bit-identical model -- and its predictions can be
        digest-compared across concurrency/worker-count points.
        """
        jobs: Dict[str, SweepJob] = {}
        axes = itertools.product(
            self.models,
            self.datasets,
            self.dimensions,
            self.columns,
            self.cluster_ratios,
        )
        for model, dataset, dimension, column_count, ratio in axes:
            engines = tuple(
                engine
                for engine in self.engines
                if engine == "float" or model in PACKED_MODELS
            )
            for engine in engines:
                base = self._cell_config(
                    model, dataset, dimension, column_count, ratio, 0.0, None, engine
                )
                if base is None:
                    continue
                points = itertools.product(
                    self.serving_concurrency,
                    self.serving_workers,
                    self.serving_batch,
                    self.serving_modes,
                )
                for concurrency, workers, batch, mode in points:
                    config = dict(base)
                    config.update(
                        {
                            "kind": "serving-load",
                            "serving_concurrency": concurrency,
                            "serving_workers": workers,
                            "serving_batch": batch,
                            "serving_mode": mode,
                            "serving_requests": self.serving_requests,
                            "serving_rate": (
                                self.serving_rate if mode == "open" else None
                            ),
                        }
                    )
                    key = config_key(config)
                    jobs.setdefault(
                        key,
                        SweepJob(
                            key=key,
                            config=config,
                            seed=derive_job_seed(self.seed, config),
                        ),
                    )
        return list(jobs.values())

    def _cell_config(
        self,
        model: str,
        dataset: str,
        dimension: int,
        column_count: int,
        ratio: float,
        flip: float,
        adc: Optional[int],
        engine: Optional[str],
    ) -> Optional[Dict[str, Any]]:
        config: Dict[str, Any] = {
            "model": model,
            "dataset": dataset,
            "scale": self.scale,
            "dimension": dimension,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
            "engine": engine,
            "bit_flip_probability": flip,
            "adc_bits": adc,
        }
        if model == "memhd":
            if column_count < DATASET_PROFILES[dataset].num_classes:
                return None  # cannot give every class a centroid
            config["columns"] = column_count
            config["cluster_ratio"] = ratio
            config["init_method"] = self.init_method
        if model in ID_LEVEL_MODELS:
            config["id_levels"] = self.id_levels
        return config


@dataclasses.dataclass(frozen=True)
class SweepJob:
    """One expanded grid cell: its canonical config, key and model seed."""

    key: str
    config: Dict[str, Any]
    seed: int

    def as_dict(self) -> Dict[str, Any]:
        return {"key": self.key, "config": dict(self.config), "seed": self.seed}


# --------------------------------------------------------------------------
# Job execution (module-level so process pools can pickle it)
# --------------------------------------------------------------------------
def model_for_config(config: Dict[str, Any], model_seed: int):
    """``(untrained model, dataset)`` for one cell configuration.

    The single config-to-model mapping shared by the sweep workers and
    :func:`train_record_model`, so ``--save-best`` necessarily rebuilds
    exactly the model whose metrics the sweep recorded.
    """
    dataset = load_dataset(config["dataset"], scale=config["scale"], rng=config["seed"])
    model = build_model(
        config["model"],
        dataset.num_features,
        dataset.num_classes,
        seed=model_seed,
        **{name: config[name] for name in MODEL_DEFAULTS if name in config},
    )
    return model, dataset


def execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Train and evaluate one grid cell; returns the record as a dict.

    Pure function of the job payload: the dataset is generated from the
    spec seed, the model from the derived cell seed, so any process (or a
    later resume) produces the same metrics for the same cell.
    """
    delay = float(os.environ.get(DELAY_ENV, "0") or 0.0)
    if delay > 0:
        time.sleep(delay)
    config = payload["config"]
    if config.get("kind") == "serving-load":
        from repro.eval.serving_cell import execute_serving_job

        return execute_serving_job(payload)
    model_seed = int(payload["seed"])
    model, dataset = model_for_config(config, model_seed)
    train_start = time.perf_counter()
    history = model.fit(dataset.train_features, dataset.train_labels)
    train_elapsed = time.perf_counter() - train_start

    report = model.memory_report()
    metrics: Dict[str, Any] = {
        "train_accuracy": float(history.final_train_accuracy),
        "memory_kib": float(report.total_kib),
        "am_memory_kib": float(report.am_kib),
        "train_elapsed_s": float(train_elapsed),
    }

    engine = config.get("engine")
    if engine is None:
        metrics.update(_simulated_metrics(model, dataset, config, model_seed))
    else:
        from repro.runtime.pipeline import InferencePipeline

        pipeline = InferencePipeline(model, engine=engine, chunk_size=1024)
        pipeline.warmup()
        result = pipeline.run(dataset.test_features)
        metrics["test_accuracy"] = float(
            accuracy(result.labels, dataset.test_labels)
        )
        metrics["elapsed_s"] = float(result.stats.elapsed_seconds)
        metrics["queries_per_s"] = float(result.stats.queries_per_second)
    return {"key": payload["key"], "config": config, "metrics": metrics}


def _simulated_metrics(model, dataset, config, model_seed) -> Dict[str, Any]:
    """IMC-simulator evaluation of a non-ideal (noise / ADC) MEMHD cell."""
    from repro.imc.adc import ADCConfig
    from repro.imc.noise import NoiseModel
    from repro.imc.simulator import InMemoryInference

    noise = NoiseModel(bit_flip_probability=config["bit_flip_probability"])
    engine = InMemoryInference(model, noise=noise, rng=model_seed + 1)
    queries = np.atleast_2d(engine.encode(dataset.test_features))
    scores = np.atleast_2d(engine.associative_search(queries))
    if config["adc_bits"] is not None:
        adc = ADCConfig(
            output_bits=config["adc_bits"], full_scale=float(config["dimension"])
        )
        scores = adc.quantize_outputs(scores)
    predictions = engine.column_classes[np.argmax(scores, axis=1)]
    return {
        "test_accuracy": float(np.mean(predictions == dataset.test_labels)),
        "reference_accuracy": float(
            model.score(dataset.test_features, dataset.test_labels)
        ),
    }


# --------------------------------------------------------------------------
# The sweep runner
# --------------------------------------------------------------------------
@dataclasses.dataclass
class SweepRunResult:
    """Accounting of one :func:`run_sweep` call.

    ``completed`` counts cells executed *by this call*; ``skipped`` counts
    resume hits (cells already in the store).  ``records`` holds only the
    newly-executed cells.
    """

    total: int
    completed: int
    skipped: int
    failed: List[Dict[str, str]]
    records: List[ResultRecord]

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        return (
            f"{self.total} cell(s): {self.completed} executed, "
            f"{self.skipped} resumed from store, {len(self.failed)} failed"
        )


def run_sweep(
    spec: SweepSpec,
    store: Union[ResultStore, str],
    workers: int = 1,
    resume: bool = True,
    max_jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepRunResult:
    """Execute a sweep spec, streaming results into ``store``.

    Parameters
    ----------
    spec:
        The grid to run.
    store:
        A :class:`ResultStore` (or a path to one).  Completed cells found
        in it are skipped when ``resume`` is True; newly-finished cells
        are appended (and flushed) one by one, so killing the process
        mid-sweep loses at most the in-flight cells.
    workers:
        Process-pool width.  ``1`` runs jobs inline (no subprocesses),
        which is also the fully-deterministic-ordering mode tests use.
    max_jobs:
        Execute at most this many pending cells (smoke runs, and the
        resume test's stand-in for a killed sweep).
    progress:
        Optional callable invoked with one human-readable line per cell.

    Raises
    ------
    SweepError
        When the spec expands to an empty grid.
    """
    if workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    if isinstance(store, (str,)) or hasattr(store, "__fspath__"):
        store = ResultStore(store)
    jobs = expand_jobs(spec)
    done = store.completed_keys() if resume else set()
    pending = [job for job in jobs if job.key not in done]
    skipped = len(jobs) - len(pending)
    if max_jobs is not None:
        pending = pending[: max(0, int(max_jobs))]

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    note(f"sweep: {len(jobs)} cell(s), {skipped} already in store, "
         f"{len(pending)} to run")

    records: List[ResultRecord] = []
    failed: List[Dict[str, str]] = []

    def settle(job: SweepJob, future) -> None:
        store_cell(store, job, future.result, records, failed, note)

    run_graph(pending, execute_job, SweepJob.as_dict, settle, workers)
    return SweepRunResult(
        total=len(jobs),
        completed=len(records),
        skipped=skipped,
        failed=failed,
        records=records,
    )


def expand_jobs(spec: SweepSpec) -> List[SweepJob]:
    """``spec.expand()``, refusing a grid with no realizable cell."""
    jobs = spec.expand()
    if not jobs:
        raise SweepError(
            "sweep spec expanded to an empty grid (every cell was dropped "
            "as unrealizable -- check model/engine/columns combinations)"
        )
    return jobs


def store_cell(
    store: ResultStore,
    job: SweepJob,
    run: Callable[[], Dict[str, Any]],
    records: List[ResultRecord],
    failed: List[Dict[str, str]],
    note: Callable[[str], None],
) -> Optional[ResultRecord]:
    """Append the outcome of ``run()`` (an :func:`execute_job` dict) to ``store``.

    The new record goes onto ``records``, is noted as ``done`` and is
    returned.  When ``run`` or the append raises, ``{"key", "error"}``
    goes onto ``failed`` instead, a ``FAILED`` line is noted and ``None``
    is returned: one cell never kills the sweep.
    """
    label = _cell_label(job.config)
    try:
        outcome = run()
        record = store.append(outcome["config"], outcome["metrics"], key=outcome["key"])
    except Exception as error:  # noqa: BLE001 - jobs must not kill the sweep
        failed.append({"key": job.key, "error": f"{type(error).__name__}: {error}"})
        note(f"  FAILED {label}: {error}")
        return None
    records.append(record)
    test_accuracy = record.metrics.get("test_accuracy")
    shown = "-" if test_accuracy is None else f"{100.0 * test_accuracy:.2f}%"
    note(f"  done {label}: accuracy {shown}")
    return record


def _cell_label(config: Dict[str, Any]) -> str:
    parts = [config["model"], config["dataset"], f"D={config['dimension']}"]
    if "columns" in config:
        parts.append(f"C={config['columns']}")
    if config.get("engine"):
        parts.append(config["engine"])
    if config.get("bit_flip_probability"):
        parts.append(f"p={config['bit_flip_probability']}")
    if config.get("adc_bits") is not None:
        parts.append(f"adc={config['adc_bits']}b")
    if config.get("kind") == "serving-load":
        parts.append(
            f"serve[{config['serving_mode']} c={config['serving_concurrency']} "
            f"w={config['serving_workers']} b={config['serving_batch']}]"
        )
    return " ".join(parts)


# --------------------------------------------------------------------------
# Post-run helpers
# --------------------------------------------------------------------------
def spec_records(
    spec: SweepSpec, store: Union[ResultStore, str]
) -> List[ResultRecord]:
    """The store's completed records restricted to (and ordered by) the spec."""
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    latest = store.latest()
    records = (latest.get(job.key) for job in spec.expand())
    return [record for record in records if record is not None]


def best_record(
    records: Sequence[ResultRecord], metric: str = "test_accuracy"
) -> ResultRecord:
    """The record maximizing ``metric`` (ties: first in ``records``)."""
    scored = [record for record in records if metric in record.metrics]
    if not scored:
        raise SweepError(f"no completed record carries the metric {metric!r}")
    return max(scored, key=lambda record: record.metrics[metric])


def train_record_model(record: ResultRecord):
    """Re-train the exact model behind a sweep record (for ``--save-best``).

    Sweep workers do not ship fitted models back across process
    boundaries; instead the cell's deterministic seeds let anyone rebuild
    the identical model from its record.  Returns ``(model, dataset)``.
    """
    config = record.config
    model, dataset = model_for_config(config, derive_job_seed(config["seed"], config))
    model.fit(dataset.train_features, dataset.train_labels)
    return model, dataset
