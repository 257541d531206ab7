"""Declarative workflow specs: the ``repro.yml`` layer.

A workflow chains the repository's everyday operations -- dataset prep,
training, sweeps, benchmarks, serving smoke checks -- into one declarative
file executed by ``repro run``:

.. code-block:: yaml

    name: quickstart
    seed: 7
    steps:
      - name: prep
        kind: dataset
        config: {dataset: mnist, scale: 0.01}
      - name: train
        kind: train
        needs: [prep]
        config: {model: memhd, dataset: mnist, scale: 0.01,
                 dimension: 64, columns: 16, epochs: 1, save: "demo:wf"}
      ...

Parsing is **strict by default**, like the checkpoint manifests: unknown
top-level keys, unknown step keys, unknown step kinds and unknown config
keys for a kind all raise :class:`OrchestrationError` naming the offender
instead of being silently ignored.  ``needs:`` must form a DAG; cycles
are rejected with the cycle spelled out.

Every step gets a **config hash**: the truncated SHA-256 of its canonical
(defaults-applied, sorted-keys) JSON configuration, via the same
:func:`repro.eval.store.config_key` the sweep store uses.  The hash is
what the run database keys resume on -- identical across processes,
platforms, key orderings and explicitly-written-out default values.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.eval.store import config_key
from repro.eval.sweep import (
    DEFAULT_SCALE,
    MODEL_CHOICES,
    MODEL_DEFAULTS,
    SweepError,
    SweepSpec,
)
from repro.hdc.engine import ENGINES

try:  # pyyaml is a declared dependency, but degrade loudly, not weirdly.
    import yaml as _yaml
except ModuleNotFoundError:  # pragma: no cover - exercised only without pyyaml
    _yaml = None

#: Step kinds a workflow can chain (the pipeline stages of ROADMAP item 4).
STEP_KINDS = ("dataset", "train", "sweep", "bench", "serve-smoke")

#: Step and workflow names: path-safe (they name result files and DB rows).
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class OrchestrationError(Exception):
    """A workflow could not be parsed, validated or executed."""


# --------------------------------------------------------------------------
# Per-kind config schemas: required keys, and optional keys with defaults.
# ``None`` defaults marked SEED are substituted with the workflow seed at
# resolution time, so hashes reflect the seed that actually applies.
# --------------------------------------------------------------------------
_SEED = object()  # sentinel: default to the workflow-level seed

_KIND_SCHEMAS: Dict[str, Tuple[Tuple[str, ...], Dict[str, Any]]] = {
    "dataset": (
        ("dataset",),
        {"scale": DEFAULT_SCALE, "seed": _SEED},
    ),
    "train": (
        ("model", "dataset", "save"),
        {"scale": DEFAULT_SCALE, "seed": _SEED, **MODEL_DEFAULTS},
    ),
    "sweep": (
        ("spec",),
        {"results": None, "workers": 1, "distributed": None},
    ),
    "bench": (
        ("model", "dataset"),
        {
            "scale": DEFAULT_SCALE,
            "seed": _SEED,
            "engines": ["float", "packed"],
            "batch_size": 256,
            "repeats": 1,
        },
    ),
    "serve-smoke": (
        ("model", "dataset"),
        {
            "scale": DEFAULT_SCALE,
            "seed": _SEED,
            "engine": "packed",
            "requests": 4,
            "batch": 4,
        },
    ),
}


def _check_name(value: Any, what: str) -> str:
    if not isinstance(value, str) or not _NAME_PATTERN.match(value):
        raise OrchestrationError(
            f"invalid {what} {value!r}: use letters, digits, dots, "
            "underscores and dashes (must start alphanumeric)"
        )
    return value


def _resolve_config(
    step_name: str, kind: str, config: Dict[str, Any], workflow_seed: int
) -> Dict[str, Any]:
    """Apply the kind's schema: reject unknown keys, fill defaults.

    The resolved dict is what gets hashed, so a config that writes a
    default out explicitly hashes identically to one that omits it.
    """
    required, optional = _KIND_SCHEMAS[kind]
    known = set(required) | set(optional)
    unknown = set(config) - known
    if unknown:
        raise OrchestrationError(
            f"step {step_name!r}: unknown config key(s) {sorted(unknown)} "
            f"for kind {kind!r} (known: {sorted(known)})"
        )
    missing = [key for key in required if key not in config]
    if missing:
        raise OrchestrationError(
            f"step {step_name!r}: kind {kind!r} requires config key(s) {missing}"
        )
    resolved = dict(config)
    for key, default in optional.items():
        if key not in resolved:
            resolved[key] = workflow_seed if default is _SEED else default
    _validate_config(step_name, kind, resolved)
    return resolved


def _validate_config(step_name: str, kind: str, config: Dict[str, Any]) -> None:
    """Value-level checks beyond key strictness (fail at parse, not mid-run)."""

    def bad(message: str) -> "OrchestrationError":
        return OrchestrationError(f"step {step_name!r}: {message}")

    if kind in ("dataset", "train", "bench", "serve-smoke"):
        from repro.data.datasets import available_datasets

        if config["dataset"] not in available_datasets():
            raise bad(
                f"unknown dataset {config['dataset']!r}; "
                f"choose from {available_datasets()}"
            )
        if not isinstance(config["scale"], (int, float)) or config["scale"] <= 0:
            raise bad("scale must be a positive number")
    if kind == "train":
        if config["model"] not in MODEL_CHOICES:
            raise bad(
                f"unknown model {config['model']!r}; choose from {MODEL_CHOICES}"
            )
        save = config["save"]
        if not isinstance(save, str) or ":" not in save:
            raise bad(
                f"save must be an explicit registry 'name:tag' (got {save!r}); "
                "auto tags would make reruns address different artifacts"
            )
        name, _, tag = save.partition(":")
        _check_name(name, "artifact name")
        if tag == "latest":
            raise bad("save tag 'latest' is reserved for resolution")
        _check_name(tag, "artifact tag")
    if kind == "sweep":
        if not isinstance(config["spec"], dict):
            raise bad("spec must be a mapping of SweepSpec fields")
        try:  # strict nested validation, then store the canonical form
            config["spec"] = SweepSpec.from_dict(config["spec"]).to_dict()
        except SweepError as error:
            raise bad(f"invalid sweep spec: {error}") from error
        if not isinstance(config["workers"], int) or config["workers"] < 1:
            raise bad("workers must be an integer >= 1")
        distributed = config["distributed"]
        if distributed is not None:
            if not isinstance(distributed, dict):
                raise bad(
                    "distributed must be a mapping like "
                    "{workers: 2, ttl_s: 30, poll_s: null}"
                )
            unknown = set(distributed) - {"workers", "ttl_s", "poll_s"}
            if unknown:
                raise bad(
                    f"unknown distributed key(s) {sorted(unknown)} "
                    "(known: ['poll_s', 'ttl_s', 'workers'])"
                )
            resolved = {
                "workers": distributed.get("workers", 2),
                "ttl_s": distributed.get("ttl_s", 30.0),
                "poll_s": distributed.get("poll_s"),
            }
            if not isinstance(resolved["workers"], int) or resolved["workers"] < 1:
                raise bad("distributed.workers must be an integer >= 1")
            if (
                not isinstance(resolved["ttl_s"], (int, float))
                or resolved["ttl_s"] <= 0
            ):
                raise bad("distributed.ttl_s must be a positive number")
            if resolved["poll_s"] is not None and (
                not isinstance(resolved["poll_s"], (int, float))
                or resolved["poll_s"] <= 0
            ):
                raise bad("distributed.poll_s must be a positive number or null")
            config["distributed"] = resolved
    if kind in ("bench", "serve-smoke"):
        if not isinstance(config["model"], str) or ":" not in config["model"]:
            raise bad(
                f"model must be an explicit registry 'name:tag' "
                f"(got {config['model']!r})"
            )
    if kind == "bench":
        engines = config["engines"]
        if not isinstance(engines, (list, tuple)) or not engines:
            raise bad("engines must be a non-empty list")
        for engine in engines:
            if engine not in ENGINES:
                raise bad(f"unknown engine {engine!r}; choose from {ENGINES}")
        config["engines"] = list(engines)
    if kind == "serve-smoke":
        if config["engine"] not in ENGINES:
            raise bad(f"unknown engine {config['engine']!r}; choose from {ENGINES}")
        for key in ("requests", "batch"):
            if not isinstance(config[key], int) or config[key] < 1:
                raise bad(f"{key} must be an integer >= 1")


@dataclasses.dataclass(frozen=True)
class WorkflowStep:
    """One validated workflow step.

    ``config`` is the *resolved* configuration (defaults applied), and
    ``config_hash`` its canonical hash -- the resume key recorded in the
    run database.
    """

    name: str
    kind: str
    needs: Tuple[str, ...]
    config: Dict[str, Any]

    @property
    def config_hash(self) -> str:
        return step_config_hash(self)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "needs": list(self.needs),
            "config": dict(self.config),
        }


def step_config_hash(step: WorkflowStep) -> str:
    """Canonical hash of a step: kind + sorted needs + resolved config.

    Stable across processes, platforms and key orderings (it is the
    SHA-256 of sorted-keys JSON, truncated like the sweep store keys).
    """
    return config_key(
        {
            "kind": step.kind,
            "needs": sorted(step.needs),
            "config": step.config,
        }
    )


@dataclasses.dataclass(frozen=True)
class WorkflowSpec:
    """A parsed, validated workflow: named steps forming a DAG."""

    name: str
    steps: Tuple[WorkflowStep, ...]
    seed: int = 0
    workdir: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    # ------------------------------------------------------------- access
    def step(self, name: str) -> WorkflowStep:
        for step in self.steps:
            if step.name == name:
                return step
        raise OrchestrationError(f"no step named {name!r} in workflow {self.name!r}")

    def step_hashes(self) -> Dict[str, str]:
        """``{step name: config hash}`` for every step."""
        return {step.name: step.config_hash for step in self.steps}

    @property
    def workflow_hash(self) -> str:
        """Hash over the whole workflow (name, seed and every step hash)."""
        return config_key(
            {"name": self.name, "seed": self.seed, "steps": self.step_hashes()}
        )

    def execution_order(self) -> List[WorkflowStep]:
        """Steps in a deterministic topological order (declaration-stable)."""
        return topological_order(self.steps)

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "steps": [step.as_dict() for step in self.steps],
        }
        if self.workdir is not None:
            payload["workdir"] = self.workdir
        return payload

    # ------------------------------------------------------------ parsing
    @classmethod
    def from_dict(cls, payload: Any) -> "WorkflowSpec":
        if not isinstance(payload, dict):
            raise OrchestrationError(
                f"workflow must be a mapping, got {type(payload).__name__}"
            )
        known = {"name", "seed", "workdir", "steps"}
        unknown = set(payload) - known
        if unknown:
            raise OrchestrationError(
                f"unknown workflow key(s) {sorted(unknown)} (known: {sorted(known)})"
            )
        if "name" not in payload:
            raise OrchestrationError("workflow is missing the 'name' key")
        name = _check_name(payload["name"], "workflow name")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise OrchestrationError(f"workflow seed must be an integer, got {seed!r}")
        workdir = payload.get("workdir")
        if workdir is not None and not isinstance(workdir, str):
            raise OrchestrationError("workflow workdir must be a string path")
        raw_steps = payload.get("steps")
        if not isinstance(raw_steps, list) or not raw_steps:
            raise OrchestrationError("workflow needs a non-empty 'steps' list")
        steps = [_parse_step(entry, index, seed) for index, entry in enumerate(raw_steps)]
        names = [step.name for step in steps]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise OrchestrationError(f"duplicate step name(s): {duplicates}")
        for step in steps:
            for need in step.needs:
                if need not in names:
                    raise OrchestrationError(
                        f"step {step.name!r} needs unknown step {need!r}"
                    )
                if need == step.name:
                    raise OrchestrationError(
                        f"step {step.name!r} cannot need itself"
                    )
        spec = cls(name=name, steps=tuple(steps), seed=seed, workdir=workdir)
        spec.execution_order()  # raises on cyclic ``needs:`` graphs
        return spec


def _parse_step(entry: Any, index: int, workflow_seed: int) -> WorkflowStep:
    where = f"steps[{index}]"
    if not isinstance(entry, dict):
        raise OrchestrationError(f"{where} must be a mapping")
    known = {"name", "kind", "needs", "config"}
    unknown = set(entry) - known
    if unknown:
        raise OrchestrationError(
            f"{where}: unknown step key(s) {sorted(unknown)} (known: {sorted(known)})"
        )
    for key in ("name", "kind"):
        if key not in entry:
            raise OrchestrationError(f"{where} is missing the {key!r} key")
    name = _check_name(entry["name"], "step name")
    kind = entry["kind"]
    if kind not in STEP_KINDS:
        raise OrchestrationError(
            f"step {name!r}: unknown kind {kind!r}; choose from {STEP_KINDS}"
        )
    needs = entry.get("needs", [])
    if not isinstance(needs, list) or not all(isinstance(n, str) for n in needs):
        raise OrchestrationError(f"step {name!r}: needs must be a list of step names")
    config = entry.get("config", {})
    if not isinstance(config, dict):
        raise OrchestrationError(f"step {name!r}: config must be a mapping")
    resolved = _resolve_config(name, kind, dict(config), workflow_seed)
    return WorkflowStep(name=name, kind=kind, needs=tuple(needs), config=resolved)


def topological_order(steps: Sequence[WorkflowStep]) -> List[WorkflowStep]:
    """Kahn's algorithm with a deterministic tie-break (declaration order).

    Raises
    ------
    OrchestrationError
        On a cyclic ``needs:`` graph, with the cycle spelled out.
    """
    by_name = {step.name: step for step in steps}
    indegree = {step.name: len(set(step.needs)) for step in steps}
    dependents: Dict[str, List[str]] = {step.name: [] for step in steps}
    for step in steps:
        for need in set(step.needs):
            dependents[need].append(step.name)
    ready = [step.name for step in steps if indegree[step.name] == 0]
    order: List[WorkflowStep] = []
    while ready:
        current = ready.pop(0)
        order.append(by_name[current])
        for child in dependents[current]:
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    if len(order) < len(steps):
        raise OrchestrationError(
            "cyclic `needs:` dependency: " + _describe_cycle(steps, indegree)
        )
    return order


def _describe_cycle(
    steps: Sequence[WorkflowStep], indegree: Dict[str, int]
) -> str:
    """Walk one cycle among the unresolved steps for the error message."""
    stuck = {name for name, degree in indegree.items() if degree > 0}
    by_name = {step.name: step for step in steps}
    start = sorted(stuck)[0]
    path = [start]
    seen = {start}
    current = start
    while True:
        nxt = next(
            (need for need in by_name[current].needs if need in stuck), None
        )
        if nxt is None:  # pragma: no cover - cycles always have a next hop
            break
        if nxt in seen:
            cycle = path[path.index(nxt):] + [nxt]
            return " -> ".join(cycle)
        path.append(nxt)
        seen.add(nxt)
        current = nxt
    return " -> ".join(path)  # pragma: no cover - defensive fallback


# --------------------------------------------------------------------------
# File parsing
# --------------------------------------------------------------------------
def parse_workflow(path) -> WorkflowSpec:
    """Parse a workflow file (YAML, or JSON for ``.json``) into a spec.

    Raises
    ------
    OrchestrationError
        On unreadable files, syntax errors, or any schema violation.
    """
    file_path = Path(path)
    try:
        text = file_path.read_text(encoding="utf-8")
    except OSError as error:
        raise OrchestrationError(f"cannot read workflow file: {error}") from error
    if file_path.suffix.lower() == ".json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise OrchestrationError(
                f"{file_path}: invalid JSON: {error}"
            ) from error
    else:
        if _yaml is None:  # pragma: no cover - exercised only without pyyaml
            raise OrchestrationError(
                "pyyaml is not installed; install it or use a .json workflow file"
            )
        try:
            payload = _yaml.safe_load(text)
        except _yaml.YAMLError as error:
            raise OrchestrationError(
                f"{file_path}: invalid YAML: {error}"
            ) from error
    return WorkflowSpec.from_dict(payload)
