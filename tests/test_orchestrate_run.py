"""End-to-end workflow execution: run, resume-skip, force, selective rerun."""

import copy
import json
import multiprocessing
import os

import pytest

from repro.cli import main
from repro.io.registry import ArtifactRegistry
from repro.orchestrate import (
    RunDB,
    WorkflowSpec,
    run_workflow,
    workdir_paths,
)
from repro.orchestrate import runner

pytest.importorskip("yaml")


def tiny_payload():
    return {
        "name": "tiny",
        "seed": 5,
        "steps": [
            {
                "name": "prep",
                "kind": "dataset",
                "config": {"dataset": "mnist", "scale": 0.01},
            },
            {
                "name": "train",
                "kind": "train",
                "needs": ["prep"],
                "config": {
                    "model": "memhd",
                    "dataset": "mnist",
                    "scale": 0.01,
                    "dimension": 32,
                    "columns": 16,
                    "epochs": 1,
                    "save": "tiny-model:wf",
                },
            },
            {
                "name": "grid",
                "kind": "sweep",
                "needs": ["prep"],
                "config": {
                    "spec": {
                        "models": ["memhd"],
                        "datasets": ["mnist"],
                        "dimensions": [32],
                        "columns": [16],
                        "epochs": 1,
                        "scale": 0.01,
                        "seed": 5,
                    }
                },
            },
            {
                "name": "bench",
                "kind": "bench",
                "needs": ["train"],
                "config": {
                    "model": "tiny-model:wf",
                    "dataset": "mnist",
                    "scale": 0.01,
                    "engines": ["float", "packed"],
                },
            },
            {
                "name": "smoke",
                "kind": "serve-smoke",
                "needs": ["bench"],
                "config": {
                    "model": "tiny-model:wf",
                    "dataset": "mnist",
                    "scale": 0.01,
                    "engine": "packed",
                    "requests": 2,
                    "batch": 2,
                },
            },
        ],
    }


def tiny_spec(**tweaks):
    payload = tiny_payload()
    payload.update(tweaks)
    return WorkflowSpec.from_dict(payload)


def actions(result):
    return {step.name: step.action for step in result.steps}


def end_state(workdir):
    with RunDB(workdir_paths(workdir)["rundb"]) as db:
        return db.end_state()


@pytest.fixture(scope="module")
def completed_workdir(tmp_path_factory):
    """One full execution shared by the read-only assertions below."""
    workdir = tmp_path_factory.mktemp("wf-run")
    result = run_workflow(tiny_spec(), workdir)
    return workdir, result


def test_first_run_executes_every_step(completed_workdir):
    _, result = completed_workdir
    assert result.ok
    assert actions(result) == {
        name: "executed" for name in ("prep", "train", "grid", "bench", "smoke")
    }
    assert "5 executed" in result.summary()


def test_run_populates_registry_and_stores(completed_workdir):
    workdir, _ = completed_workdir
    paths = workdir_paths(workdir)
    registry = ArtifactRegistry(paths["store"])
    assert registry.tags("tiny-model") == ["wf"]
    assert list(paths["sweeps"].glob("*.jsonl"))
    assert paths["rundb"].is_file()


def test_run_records_full_provenance(completed_workdir):
    workdir, _ = completed_workdir
    state = end_state(workdir)
    assert set(state) == {"prep", "train", "grid", "bench", "smoke"}
    # the train step links the dataset it consumed to the checkpoint it made
    train = state["train"]
    assert [a["name"] for a in train["artifacts"]["consumed"]] == [
        "dataset:mnist?scale=0.01&seed=5"
    ]
    assert [a["name"] for a in train["artifacts"]["produced"]] == [
        "checkpoint:tiny-model:wf"
    ]
    # metrics carry no timing noise
    for step in state.values():
        for metric in step["metrics"]:
            assert "elapsed" not in metric and "queries_per_s" not in metric
    assert state["smoke"]["metrics"]["bit_exact"] is True


def test_step_rows_carry_tails_and_git_rev(completed_workdir):
    workdir, _ = completed_workdir
    with RunDB(workdir_paths(workdir)["rundb"]) as db:
        record = db.latest_completed("train")
    assert "saved tiny-model:wf" in record.stdout_tail
    assert record.config["epochs"] == 1
    assert record.wall_s is not None and record.wall_s > 0


def test_second_run_skips_everything(completed_workdir):
    workdir, _ = completed_workdir
    before = end_state(workdir)
    lines = []
    result = run_workflow(tiny_spec(), workdir, progress=lines.append)
    assert result.ok
    assert set(actions(result).values()) == {"skipped"}
    assert end_state(workdir) == before
    # workers=1 walks execution_order() strictly
    assert lines == [
        f"[{i}/5] {name}: skipped (up-to-date)"
        for i, name in enumerate(("prep", "train", "grid", "bench", "smoke"), 1)
    ]


def test_end_state_deterministic_across_workdirs(completed_workdir, tmp_path):
    """Same spec, fresh workdir: identical artifact hashes and metrics.

    This is the property the chaos tests build on -- reruns are
    content-identical, so interrupted+resumed can be compared to oneshot.
    """
    workdir, _ = completed_workdir
    other = tmp_path / "other"
    result = run_workflow(tiny_spec(), other)
    assert result.ok
    assert end_state(other) == end_state(workdir)


def test_force_reruns_all(tmp_path):
    run_workflow(tiny_spec(), tmp_path)
    result = run_workflow(tiny_spec(), tmp_path, force=True)
    assert result.ok
    assert set(actions(result).values()) == {"executed"}


def test_perturbed_config_reruns_only_affected_steps(tmp_path):
    run_workflow(tiny_spec(), tmp_path)
    payload = tiny_payload()
    payload["steps"][1]["config"]["epochs"] = 2  # perturb the train step
    result = run_workflow(WorkflowSpec.from_dict(payload), tmp_path)
    assert result.ok
    what = actions(result)
    assert what["prep"] == "skipped"  # untouched upstream
    assert what["grid"] == "skipped"  # independent branch
    assert what["train"] == "executed"  # config changed
    # bench/smoke configs are unchanged, but their consumed checkpoint
    # now fingerprints differently -> artifact-driven rerun
    assert what["bench"] == "executed"
    assert what["smoke"] == "executed"


def test_deleted_artifact_triggers_rerun(tmp_path):
    run_workflow(tiny_spec(), tmp_path)
    paths = workdir_paths(tmp_path)
    ArtifactRegistry(paths["store"]).remove("tiny-model:wf")
    result = run_workflow(tiny_spec(), tmp_path)
    assert result.ok
    what = actions(result)
    assert what["prep"] == "skipped" and what["grid"] == "skipped"
    assert what["train"] == "executed"  # produced artifact vanished


def test_failed_step_blocks_dependents_and_fails_run(tmp_path):
    _check_failed_step_blocks_dependents(tmp_path, workers=1)


def test_failed_step_blocks_dependents_and_fails_run_in_pool(tmp_path):
    _check_failed_step_blocks_dependents(tmp_path, workers=2)


def _check_failed_step_blocks_dependents(tmp_path, workers):
    payload = tiny_payload()
    # bench addresses a model nobody trains -> the step itself fails
    payload["steps"] = [
        payload["steps"][0],
        {
            "name": "bench",
            "kind": "bench",
            "needs": ["prep"],
            "config": {"model": "ghost:wf", "dataset": "mnist", "scale": 0.01},
        },
        {
            "name": "smoke",
            "kind": "serve-smoke",
            "needs": ["bench"],
            "config": {
                "model": "ghost:wf",
                "dataset": "mnist",
                "scale": 0.01,
            },
        },
    ]
    lines = []
    result = run_workflow(
        WorkflowSpec.from_dict(payload),
        tmp_path,
        workers=workers,
        progress=lines.append,
    )
    assert not result.ok
    what = actions(result)
    assert what == {"prep": "executed", "bench": "failed", "smoke": "blocked"}
    assert [line for line in lines if line.startswith("[")] == [
        "[1/3] prep: executing (never completed)",
        "[2/3] bench: executing (never completed)",
        "[3/3] smoke: blocked (needs bench)",
    ]
    failed = next(step for step in result.steps if step.name == "bench")
    assert "ghost" in failed.error
    with RunDB(workdir_paths(tmp_path)["rundb"]) as db:
        record = db.step_rows()[-1]
        assert record.step == "bench" and record.outcome == "failed"
        assert "ghost" in (record.error or "")
        assert db.runs()[-1].outcome == "failed"


def _die(payload):
    os._exit(3)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the patched step executor",
)
def test_dead_step_process_fails_step_and_blocks_dependents(tmp_path, monkeypatch):
    """A step process that dies fails its step instead of aborting the run."""
    monkeypatch.setitem(runner._KIND_EXECUTORS, "dataset", _die)
    result = run_workflow(tiny_spec(), tmp_path, workers=2)
    assert not result.ok
    assert actions(result) == {
        "prep": "failed",
        "train": "blocked",
        "grid": "blocked",
        "bench": "blocked",
        "smoke": "blocked",
    }
    assert result.steps[0].error.startswith("BrokenProcessPool: ")
    with RunDB(workdir_paths(tmp_path)["rundb"]) as db:
        rows = db.step_rows()
        assert [(row.step, row.outcome) for row in rows] == [("prep", "failed")]
        assert rows[0].error.startswith("BrokenProcessPool: ")
        assert db.runs()[-1].outcome == "failed"


def test_worker_pool_matches_inline_end_state(completed_workdir, tmp_path):
    workdir, _ = completed_workdir
    result = run_workflow(tiny_spec(), tmp_path, workers=2)
    assert result.ok
    assert set(actions(result).values()) == {"executed"}
    assert end_state(tmp_path) == end_state(workdir)


# --------------------------------------------------------------------------
# CLI entry points
# --------------------------------------------------------------------------
def write_workflow(tmp_path, payload):
    target = tmp_path / "workflow.json"
    target.write_text(json.dumps(payload), encoding="utf-8")
    return str(target)


def test_cli_run_and_rerun(tmp_path, capsys):
    workflow = write_workflow(tmp_path, tiny_payload())
    workdir = str(tmp_path / "wd")
    assert main(["run", workflow, "--workdir", workdir]) == 0
    output = capsys.readouterr().out
    assert "5 executed" in output
    assert main(["run", workflow, "--workdir", workdir]) == 0
    assert "5 skipped" in capsys.readouterr().out


def test_cli_run_invalid_workflow_exits_2(tmp_path, capsys):
    payload = tiny_payload()
    payload["steps"][0]["config"]["bogus"] = 1
    workflow = write_workflow(tmp_path, payload)
    assert main(["run", workflow]) == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_run_missing_workflow_exits_2(capsys):
    assert main(["run", "/no/such/wf.yml"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_run_failed_step_exits_1(tmp_path, capsys):
    payload = copy.deepcopy(tiny_payload())
    payload["steps"] = [
        {
            "name": "bench",
            "kind": "bench",
            "config": {"model": "ghost:wf", "dataset": "mnist", "scale": 0.01},
        }
    ]
    workflow = write_workflow(tmp_path, payload)
    assert main(["run", workflow, "--workdir", str(tmp_path / "wd")]) == 1
    captured = capsys.readouterr()
    assert "failed step bench" in captured.err


def test_cli_status_without_runs_exits_0(tmp_path, capsys):
    workflow = write_workflow(tmp_path, tiny_payload())
    assert main(["status", workflow, "--workdir", str(tmp_path / "wd")]) == 0
    assert "no runs recorded" in capsys.readouterr().out


def test_cli_report_without_runs_exits_0(tmp_path, capsys):
    workflow = write_workflow(tmp_path, tiny_payload())
    assert main(["report", workflow, "--workdir", str(tmp_path / "wd")]) == 0
    assert "No runs recorded" in capsys.readouterr().out
