"""Workflow spec layer: strict parsing, DAG validation, canonical hashing."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.eval.sweep import DEFAULT_SCALE, MODEL_DEFAULTS
from repro.orchestrate import (
    OrchestrationError,
    WorkflowSpec,
    parse_workflow,
)

yaml = pytest.importorskip("yaml")


def minimal_payload(**overrides):
    payload = {
        "name": "tiny",
        "seed": 3,
        "steps": [
            {"name": "prep", "kind": "dataset", "config": {"dataset": "mnist"}},
        ],
    }
    payload.update(overrides)
    return payload


def train_step(name="fit", needs=("prep",), **config):
    base = {
        "model": "memhd",
        "dataset": "mnist",
        "save": "tiny-model:wf",
    }
    base.update(config)
    return {"name": name, "kind": "train", "needs": list(needs), "config": base}


# --------------------------------------------------------------------------
# Parsing and defaults
# --------------------------------------------------------------------------
def test_parse_minimal_applies_defaults():
    spec = WorkflowSpec.from_dict(minimal_payload())
    step = spec.step("prep")
    assert step.kind == "dataset"
    assert step.config["scale"] == 0.02  # schema default
    assert step.config["seed"] == 3  # workflow seed substituted
    assert step.needs == ()


def test_train_step_defaults_are_model_defaults():
    payload = minimal_payload()
    payload["steps"].append(train_step())
    config = WorkflowSpec.from_dict(payload).step("fit").config
    assert config == {
        "model": "memhd",
        "dataset": "mnist",
        "save": "tiny-model:wf",
        "seed": 3,
        "scale": DEFAULT_SCALE,
        **MODEL_DEFAULTS,
    }


def test_step_seed_overrides_workflow_seed():
    payload = minimal_payload()
    payload["steps"][0]["config"]["seed"] = 11
    spec = WorkflowSpec.from_dict(payload)
    assert spec.step("prep").config["seed"] == 11


def test_workflow_defaults():
    payload = minimal_payload()
    del payload["seed"]
    spec = WorkflowSpec.from_dict(payload)
    assert spec.seed == 0
    assert spec.workdir is None


# --------------------------------------------------------------------------
# Strict-by-default: unknown anything fails loudly, naming the offender
# --------------------------------------------------------------------------
def test_unknown_workflow_key_rejected():
    with pytest.raises(OrchestrationError, match="sched"):
        WorkflowSpec.from_dict(minimal_payload(sched="hourly"))


def test_unknown_step_key_rejected():
    payload = minimal_payload()
    payload["steps"][0]["retries"] = 3
    with pytest.raises(OrchestrationError, match="retries"):
        WorkflowSpec.from_dict(payload)


def test_unknown_config_key_rejected():
    payload = minimal_payload()
    payload["steps"][0]["config"]["gpu"] = True
    with pytest.raises(OrchestrationError, match="gpu"):
        WorkflowSpec.from_dict(payload)


def test_unknown_kind_rejected():
    payload = minimal_payload()
    payload["steps"][0]["kind"] = "deploy"
    with pytest.raises(OrchestrationError, match="deploy"):
        WorkflowSpec.from_dict(payload)


def test_missing_required_config_key_rejected():
    payload = minimal_payload()
    payload["steps"].append(
        {"name": "fit", "kind": "train", "config": {"model": "memhd"}}
    )
    with pytest.raises(OrchestrationError, match="requires"):
        WorkflowSpec.from_dict(payload)


def test_unknown_dataset_rejected():
    payload = minimal_payload()
    payload["steps"][0]["config"]["dataset"] = "imagenet"
    with pytest.raises(OrchestrationError, match="imagenet"):
        WorkflowSpec.from_dict(payload)


def test_train_save_requires_explicit_tag():
    payload = minimal_payload()
    payload["steps"].append(train_step(save="tiny-model"))
    with pytest.raises(OrchestrationError, match="name:tag"):
        WorkflowSpec.from_dict(payload)


def test_nested_sweep_spec_is_strict():
    payload = minimal_payload()
    payload["steps"].append(
        {
            "name": "grid",
            "kind": "sweep",
            "config": {"spec": {"models": ["memhd"], "bogus_axis": [1]}},
        }
    )
    with pytest.raises(OrchestrationError, match="bogus_axis"):
        WorkflowSpec.from_dict(payload)


def test_duplicate_step_names_rejected():
    payload = minimal_payload()
    payload["steps"].append(dict(payload["steps"][0]))
    with pytest.raises(OrchestrationError, match="duplicate"):
        WorkflowSpec.from_dict(payload)


def test_unknown_needs_target_rejected():
    payload = minimal_payload()
    payload["steps"].append(train_step(needs=("ghost",)))
    with pytest.raises(OrchestrationError, match="ghost"):
        WorkflowSpec.from_dict(payload)


def test_self_need_rejected():
    payload = minimal_payload()
    payload["steps"][0]["needs"] = ["prep"]
    with pytest.raises(OrchestrationError, match="itself"):
        WorkflowSpec.from_dict(payload)


def test_empty_steps_rejected():
    with pytest.raises(OrchestrationError, match="non-empty"):
        WorkflowSpec.from_dict(minimal_payload(steps=[]))


def test_non_integer_seed_rejected():
    with pytest.raises(OrchestrationError, match="seed"):
        WorkflowSpec.from_dict(minimal_payload(seed="lucky"))


# --------------------------------------------------------------------------
# DAG validation
# --------------------------------------------------------------------------
def cyclic_payload():
    return {
        "name": "loop",
        "steps": [
            {
                "name": "a",
                "kind": "dataset",
                "needs": ["b"],
                "config": {"dataset": "mnist"},
            },
            {
                "name": "b",
                "kind": "dataset",
                "needs": ["a"],
                "config": {"dataset": "mnist"},
            },
        ],
    }


def test_cyclic_needs_rejected_with_named_cycle():
    with pytest.raises(OrchestrationError) as excinfo:
        WorkflowSpec.from_dict(cyclic_payload())
    message = str(excinfo.value)
    assert "cyclic" in message
    assert "a" in message and "b" in message and "->" in message


def test_three_step_cycle_rejected():
    payload = cyclic_payload()
    payload["steps"][0]["needs"] = ["c"]
    payload["steps"].append(
        {
            "name": "c",
            "kind": "dataset",
            "needs": ["b"],
            "config": {"dataset": "mnist"},
        }
    )
    with pytest.raises(OrchestrationError, match="cyclic"):
        WorkflowSpec.from_dict(payload)


def test_execution_order_respects_needs():
    payload = minimal_payload()
    payload["steps"].append(train_step())
    spec = WorkflowSpec.from_dict(payload)
    order = [step.name for step in spec.execution_order()]
    assert order.index("prep") < order.index("fit")


# --------------------------------------------------------------------------
# Canonical hashing
# --------------------------------------------------------------------------
def test_explicit_defaults_hash_like_omitted():
    implicit = WorkflowSpec.from_dict(minimal_payload())
    payload = minimal_payload()
    payload["steps"][0]["config"]["scale"] = 0.02  # the schema default
    payload["steps"][0]["config"]["seed"] = 3  # the workflow seed
    explicit = WorkflowSpec.from_dict(payload)
    assert implicit.step("prep").config_hash == explicit.step("prep").config_hash
    assert implicit.workflow_hash == explicit.workflow_hash


def test_config_change_changes_hash():
    base = WorkflowSpec.from_dict(minimal_payload())
    payload = minimal_payload()
    payload["steps"][0]["config"]["scale"] = 0.03
    changed = WorkflowSpec.from_dict(payload)
    assert base.step("prep").config_hash != changed.step("prep").config_hash
    assert base.workflow_hash != changed.workflow_hash


def test_needs_order_does_not_change_hash():
    payload = minimal_payload()
    payload["steps"].append(
        {"name": "prep2", "kind": "dataset", "config": {"dataset": "mnist"}}
    )
    payload["steps"].append(train_step(needs=("prep", "prep2")))
    forward = WorkflowSpec.from_dict(payload)
    payload["steps"][-1]["needs"] = ["prep2", "prep"]
    backward = WorkflowSpec.from_dict(payload)
    assert forward.step("fit").config_hash == backward.step("fit").config_hash


_TRAIN_OPTIONALS = {
    "scale": st.sampled_from([0.01, 0.02, 0.5]),
    "seed": st.integers(min_value=0, max_value=99),
    "dimension": st.sampled_from([32, 64, 128]),
    "columns": st.sampled_from([16, 32, 128]),
    "epochs": st.integers(min_value=1, max_value=9),
    "learning_rate": st.sampled_from([0.01, 0.05]),
    "cluster_ratio": st.sampled_from([0.5, 0.8]),
    "init_method": st.sampled_from(["clustering", "random"]),
    "id_levels": st.sampled_from([16, 32]),
}


@st.composite
def train_configs(draw):
    keys = draw(
        st.lists(
            st.sampled_from(sorted(_TRAIN_OPTIONALS)), unique=True, max_size=9
        )
    )
    return {key: draw(_TRAIN_OPTIONALS[key]) for key in keys}


@settings(max_examples=50, deadline=None)
@given(config=train_configs(), data=st.data())
def test_hash_invariant_under_key_order(config, data):
    """Any insertion order of the same config keys hashes identically."""
    payload = minimal_payload()
    payload["steps"].append(train_step(**config))
    reference = WorkflowSpec.from_dict(payload).step("fit").config_hash

    shuffled_keys = data.draw(st.permutations(sorted(config)))
    shuffled = {key: config[key] for key in shuffled_keys}
    payload = minimal_payload()
    payload["steps"].append(train_step(**shuffled))
    assert WorkflowSpec.from_dict(payload).step("fit").config_hash == reference


@settings(max_examples=25, deadline=None)
@given(config=train_configs())
def test_hash_roundtrips_through_yaml(config, tmp_path_factory):
    """YAML serialize -> parse produces the same canonical hashes."""
    payload = minimal_payload()
    payload["steps"].append(train_step(**config))
    direct = WorkflowSpec.from_dict(payload)
    target = tmp_path_factory.mktemp("wf") / "workflow.yml"
    target.write_text(yaml.safe_dump(payload), encoding="utf-8")
    parsed = parse_workflow(target)
    assert parsed.workflow_hash == direct.workflow_hash
    assert parsed.step_hashes() == direct.step_hashes()


def test_hash_stable_across_process_boundaries(tmp_path):
    """A fresh interpreter (different hash randomization) agrees on hashes."""
    payload = minimal_payload()
    payload["steps"].append(train_step(dimension=64, epochs=2))
    local = WorkflowSpec.from_dict(payload)
    workflow_file = tmp_path / "workflow.json"
    workflow_file.write_text(json.dumps(payload), encoding="utf-8")

    script = (
        "import json, sys\n"
        "from repro.orchestrate import parse_workflow\n"
        f"spec = parse_workflow({str(workflow_file)!r})\n"
        "print(json.dumps({'workflow': spec.workflow_hash,"
        " 'steps': spec.step_hashes()}))\n"
    )
    src_root = str(Path(repro.__file__).resolve().parents[1])
    for hashseed in ("0", "4242"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": src_root,
                "PYTHONHASHSEED": hashseed,
                "PATH": "/usr/bin:/bin",
            },
        )
        assert proc.returncode == 0, proc.stderr
        remote = json.loads(proc.stdout)
        assert remote["workflow"] == local.workflow_hash
        assert remote["steps"] == local.step_hashes()


# --------------------------------------------------------------------------
# File parsing
# --------------------------------------------------------------------------
def test_parse_yaml_and_json_agree(tmp_path):
    payload = minimal_payload()
    yaml_file = tmp_path / "wf.yml"
    yaml_file.write_text(yaml.safe_dump(payload), encoding="utf-8")
    json_file = tmp_path / "wf.json"
    json_file.write_text(json.dumps(payload), encoding="utf-8")
    assert (
        parse_workflow(yaml_file).workflow_hash
        == parse_workflow(json_file).workflow_hash
    )


def test_parse_missing_file_raises():
    with pytest.raises(OrchestrationError, match="cannot read"):
        parse_workflow("/no/such/workflow.yml")


def test_parse_invalid_yaml_raises(tmp_path):
    bad = tmp_path / "bad.yml"
    bad.write_text("steps: [unclosed", encoding="utf-8")
    with pytest.raises(OrchestrationError, match="invalid YAML"):
        parse_workflow(bad)


def test_parse_invalid_json_raises(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(OrchestrationError, match="invalid JSON"):
        parse_workflow(bad)


def test_example_workflow_parses():
    example = Path(__file__).resolve().parents[1] / "examples" / "workflow.yml"
    spec = parse_workflow(example)
    assert [step.kind for step in spec.execution_order()] == [
        "dataset",
        "train",
        "sweep",
        "bench",
        "serve-smoke",
    ]
