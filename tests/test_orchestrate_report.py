"""Golden-gated ``repro status`` and ``repro report`` output.

A fixed-seed tiny workflow is run once, one step's config is perturbed,
and the workflow is run again; the status view (clean + "what changed")
and the markdown QA report are then pinned against ``tests/golden/``.
Volatile output -- the workdir path, wall times, git revisions -- is
scrubbed before comparison.  Regenerate intentionally-changed pins
with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_orchestrate_report.py
"""

import os
import re
from pathlib import Path

import pytest

from repro.orchestrate import (
    WorkflowSpec,
    build_report,
    markdown_to_html,
    run_workflow,
    workflow_status,
)
from repro.orchestrate import runner

pytest.importorskip("yaml")

GOLDEN_DIR = Path(__file__).parent / "golden"
STATUS_GOLDEN = GOLDEN_DIR / "workflow_status.txt"
STATUS_CHANGED_GOLDEN = GOLDEN_DIR / "workflow_status_changed.txt"
REPORT_GOLDEN = GOLDEN_DIR / "workflow_report.md"
PINNED_REV = "0123456789abcdef0123456789abcdef01234567"


def base_payload():
    return {
        "name": "golden",
        "seed": 20250808,
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
                    "save": "golden-model:wf",
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
                        "seed": 20250808,
                    }
                },
            },
        ],
    }


def perturbed_payload():
    payload = base_payload()
    payload["steps"][1]["config"]["epochs"] = 2  # train config changes
    payload["steps"][2]["config"]["spec"]["dimensions"] = [32, 64]  # sweep grows
    return payload


def scrub(text: str, workdir) -> str:
    """Normalize volatile output: paths, wall times, git revs, padding."""
    text = text.replace(str(workdir), "<WORKDIR>")
    text = re.sub(r"\b[0-9a-f]{40}\b", "<REV>", text)
    text = re.sub(r"\b\d+\.\d+s\b", "<T>", text)
    # Wall-time widths vary run to run; collapse alignment padding so the
    # comparison is about content, not column widths.
    return "\n".join(
        re.sub(r" +", " ", line).rstrip() for line in text.splitlines()
    ) + "\n"


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    """Run base + perturbed workflow once; render every gated view."""
    workdir = tmp_path_factory.mktemp("golden-wf")
    base = WorkflowSpec.from_dict(base_payload())
    perturbed = WorkflowSpec.from_dict(perturbed_payload())

    with pytest.MonkeyPatch.context() as patch:
        # A fixed revision, so the pins hold in an export without .git too.
        patch.setattr(runner, "current_git_rev", lambda: PINNED_REV)
        result = run_workflow(base, workdir)
        assert result.ok
        status_clean = workflow_status(base, workdir)
        # Before rerunning: the perturbed spec sees stale steps ("what changed").
        status_changed = workflow_status(perturbed, workdir)
        result = run_workflow(perturbed, workdir)
        assert result.ok
        report = build_report(perturbed, workdir, fmt="markdown")
    return {
        "workdir": workdir,
        "status_clean": scrub(status_clean, workdir),
        "status_changed": scrub(status_changed, workdir),
        "report": scrub(report, workdir),
    }


def check_golden(golden_path: Path, actual: str) -> None:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(actual, encoding="utf-8")
    assert golden_path.is_file(), (
        f"{golden_path.name} missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert actual == golden_path.read_text(encoding="utf-8"), (
        f"output drifted from {golden_path.name}; regenerate with "
        "REPRO_REGEN_GOLDEN=1 if the change is intentional"
    )


def test_status_matches_golden(rendered):
    check_golden(STATUS_GOLDEN, rendered["status_clean"])


def test_status_with_perturbed_config_matches_golden(rendered):
    check_golden(STATUS_CHANGED_GOLDEN, rendered["status_changed"])
    # sanity on the semantics, independent of the pin: the perturbed
    # steps are stale, the untouched one is not
    assert "stale: config changed" in rendered["status_changed"]
    assert re.search(r"prep.*up-to-date", rendered["status_changed"])


def test_report_matches_golden(rendered):
    check_golden(REPORT_GOLDEN, rendered["report"])


def test_report_what_changed_section(rendered):
    """The perturbation is visible in the report without reading the pin."""
    report = rendered["report"]
    assert "## What changed" in report
    assert "epochs: 1 -> 2" in report
    assert "sweep store diff" in report  # format_store_diff rendered


def test_html_report_renders(rendered):
    html = build_report(
        WorkflowSpec.from_dict(perturbed_payload()), rendered["workdir"], fmt="html"
    )
    assert html.startswith("<!DOCTYPE html>")
    assert "<h1>Workflow report: golden</h1>" in html
    assert "<table>" in html and "<pre>" in html
    assert "&lt;" not in html.split("<body>")[0]  # head stays clean


def test_markdown_to_html_escapes_content():
    html = markdown_to_html("# T\n\n<script>alert(1)</script>\n")
    assert "<script>" not in html.split("<body>")[1].replace("</script>", "")
    assert "&lt;script&gt;" in html
