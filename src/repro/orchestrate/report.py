"""Status and QA-report rendering from the run database.

``repro status`` answers "what ran, with what, and what changed since":
for every step of the workflow it compares the spec's current config
hash and the recorded artifact fingerprints against the latest completed
execution, the same check resume uses -- so ``status`` is a dry-run of
``repro run --resume``.

``repro report`` renders a full QA report (markdown, or self-contained
HTML) from the RunDB plus the sweep ResultStores: per-step metrics
(timings dropped, so reports are deterministic for golden-gating), sweep
tables and heatmaps via the PR 3 renderers, artifact provenance, and a
"what changed" section diffing each step against its previous completed
execution (config key diffs, plus :func:`format_store_diff` for sweeps).
"""

from __future__ import annotations

import html as html_module
import json
from typing import Any, Dict, List, Optional

from repro.eval.reporting import (
    format_heatmap,
    format_markdown_table,
    format_serving_records,
    format_store_diff,
    format_sweep_records,
    format_table,
    sweep_grid,
)
from repro.eval.store import is_volatile_metric
from repro.orchestrate.rundb import RunDB, StepRecord
from repro.orchestrate.runner import reason_to_run, workdir_paths
from repro.orchestrate.spec import WorkflowSpec


def _deterministic_metrics(record: StepRecord) -> Dict[str, Any]:
    return {
        key: value
        for key, value in sorted(record.metrics.items())
        if not is_volatile_metric(key)
    }


def _wall(record: Optional[StepRecord]) -> str:
    if record is None or record.wall_s is None:
        return "-"
    return f"{record.wall_s:.2f}s"


# --------------------------------------------------------------------------
# status
# --------------------------------------------------------------------------
def workflow_status(spec: WorkflowSpec, workdir) -> str:
    """Render the "what ran, with what, and what changed since" view."""
    paths = workdir_paths(workdir)
    lines = [
        f"workflow: {spec.name}",
        f"workflow hash: {spec.workflow_hash}",
        f"workdir: {paths['root']}",
    ]
    if not paths["rundb"].exists():
        lines.append("no runs recorded")
        return "\n".join(lines)
    with RunDB(paths["rundb"]) as db:
        runs = db.runs()
        if not runs:
            lines.append("no runs recorded")
            return "\n".join(lines)
        last_run = runs[-1]
        lines.append(
            f"runs recorded: {len(runs)} (last outcome: {last_run.outcome}, "
            f"git {last_run.git_rev or 'unknown'})"
        )
        lines.append("")
        rows = []
        for step in spec.execution_order():
            last = db.latest_completed(step.name)
            reason = reason_to_run(db, step)
            if last is None:
                state = "never completed"
            elif reason is None:
                state = "up-to-date"
            else:
                state = f"stale: {reason}"
            rows.append(
                {
                    "step": step.name,
                    "kind": step.kind,
                    "config": step.config_hash,
                    "state": state,
                    "wall": _wall(last),
                }
            )
        lines.append(format_table(rows, title="steps"))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------
def _sweep_section(record: StepRecord, db: RunDB) -> List[str]:
    """Sweep tables + heatmap rendered from the step's result store."""
    from repro.eval.store import ResultStore
    from repro.eval.sweep import SweepSpec, spec_records

    lines: List[str] = []
    store_path = next(
        (
            artifact.path
            for artifact in db.artifacts_for(record.id)
            if artifact.direction == "produced"
            and artifact.name.startswith("results:")
        ),
        None,
    )
    if not store_path:
        return lines
    store = ResultStore(store_path)
    try:
        sweep_spec = SweepSpec.from_dict(record.config["spec"])
        records = spec_records(sweep_spec, store)
    except Exception:  # noqa: BLE001 - stale store; report what we can
        records = list(store.latest().values())
    if not records:
        lines.append("(sweep store has no records)")
        return lines
    serving = [
        record
        for record in records
        if record.config.get("kind") == "serving-load"
    ]
    accuracy_records = [
        record
        for record in records
        if record.config.get("kind") != "serving-load"
    ]
    lines.append("```")
    if accuracy_records:
        # Timing columns are dropped so reports are deterministic
        # (golden-gated).
        lines.append(
            format_sweep_records(
                accuracy_records,
                metrics=("test_accuracy", "memory_kib"),
                title="sweep results",
            )
        )
        grid = sweep_grid(accuracy_records)
        if grid:
            lines.append("")
            lines.append(format_heatmap(grid, title="test accuracy (%)"))
    if serving:
        # The capacity-planning view: p99/QPS per serving point.  These
        # columns are volatile by nature -- golden-gated workflows use
        # accuracy sweeps; serving tables are for operators.
        if accuracy_records:
            lines.append("")
        lines.append(
            format_serving_records(serving, title="serving-load results")
        )
    lines.append("```")
    return lines


def _changes_for(record: StepRecord, db: RunDB) -> List[str]:
    """Config + result diffs against the step's previous completed run."""
    from repro.eval.store import ResultStore

    previous = db.previous_completed(record.step, record.id)
    if previous is None:
        return ["first completed execution (nothing to compare against)"]
    lines: List[str] = []
    if previous.config_hash != record.config_hash:
        lines.append(
            f"config hash {previous.config_hash} -> {record.config_hash}:"
        )
        keys = sorted(set(previous.config) | set(record.config))
        for key in keys:
            old = previous.config.get(key, "<absent>")
            new = record.config.get(key, "<absent>")
            if old != new:
                lines.append(
                    f"  - {key}: {json.dumps(old, sort_keys=True)} -> "
                    f"{json.dumps(new, sort_keys=True)}"
                )
    old_metrics = _deterministic_metrics(previous)
    new_metrics = _deterministic_metrics(record)
    for key in sorted(set(old_metrics) | set(new_metrics)):
        old = old_metrics.get(key, "<absent>")
        new = new_metrics.get(key, "<absent>")
        if old != new:
            lines.append(f"  - metric {key}: {old} -> {new}")
    if record.kind == "sweep":
        old_path = next(
            (
                artifact.path
                for artifact in db.artifacts_for(previous.id)
                if artifact.name.startswith("results:")
            ),
            None,
        )
        new_path = next(
            (
                artifact.path
                for artifact in db.artifacts_for(record.id)
                if artifact.name.startswith("results:")
            ),
            None,
        )
        if old_path and new_path and old_path != new_path:
            diff = ResultStore(old_path).diff(ResultStore(new_path))
            lines.append("```")
            lines.append(format_store_diff(diff, title="sweep store diff"))
            lines.append("```")
    if not lines:
        lines.append("no changes vs previous execution")
    return lines


def build_report(spec: WorkflowSpec, workdir, fmt: str = "markdown") -> str:
    """Build the QA report for ``spec`` from the RunDB under ``workdir``.

    ``fmt`` is ``"markdown"`` or ``"html"`` (markdown converted through
    the small self-contained renderer below; no external dependencies).
    """
    if fmt not in ("markdown", "html"):
        raise ValueError(f"format must be 'markdown' or 'html', got {fmt!r}")
    markdown = _build_markdown(spec, workdir)
    if fmt == "markdown":
        return markdown
    return markdown_to_html(markdown, title=f"Workflow report: {spec.name}")


def _build_markdown(spec: WorkflowSpec, workdir) -> str:
    paths = workdir_paths(workdir)
    lines = [
        f"# Workflow report: {spec.name}",
        "",
        f"- workflow hash: `{spec.workflow_hash}`",
        f"- workdir: `{paths['root']}`",
    ]
    if not paths["rundb"].exists():
        lines.extend(["", "No runs recorded."])
        return "\n".join(lines) + "\n"
    with RunDB(paths["rundb"]) as db:
        runs = db.runs()
        if not runs:
            lines.extend(["", "No runs recorded."])
            return "\n".join(lines) + "\n"
        lines.append(f"- runs recorded: {len(runs)}")
        lines.append(f"- last run outcome: {runs[-1].outcome}")
        lines.append(f"- git rev: `{runs[-1].git_rev or 'unknown'}`")

        order = spec.execution_order()
        summary_rows = []
        for step in order:
            last = db.latest_completed(step.name)
            summary_rows.append(
                {
                    "step": step.name,
                    "kind": step.kind,
                    "config": f"`{step.config_hash}`",
                    "outcome": last.outcome if last else "never completed",
                    "wall": _wall(last),
                }
            )
        lines.extend(["", "## Summary", "", format_markdown_table(summary_rows)])

        for step in order:
            last = db.latest_completed(step.name)
            lines.extend(["", f"## Step: {step.name} ({step.kind})", ""])
            if last is None:
                lines.append("never completed")
                continue
            metrics = _deterministic_metrics(last)
            if metrics:
                lines.append(
                    format_markdown_table(
                        [{"metric": key, "value": value} for key, value in metrics.items()],
                        columns=["metric", "value"],
                        float_format="{:.6g}",
                    )
                )
            artifacts = db.artifacts_for(last.id)
            if artifacts:
                lines.append("")
                for artifact in artifacts:
                    lines.append(
                        f"- {artifact.direction} `{artifact.name}` "
                        f"(sha256 `{artifact.sha256[:16]}`)"
                    )
            if step.kind == "sweep":
                section = _sweep_section(last, db)
                if section:
                    lines.append("")
                    lines.extend(section)

        lines.extend(["", "## What changed", ""])
        for step in order:
            last = db.latest_completed(step.name)
            lines.append(f"### {step.name}")
            lines.append("")
            if last is None:
                lines.append("never completed")
            else:
                lines.extend(_changes_for(last, db))
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# --------------------------------------------------------------------------
# Minimal markdown -> HTML (headings, fenced blocks, tables, lists)
# --------------------------------------------------------------------------
def markdown_to_html(markdown: str, title: str = "Workflow report") -> str:
    """Convert the report's markdown subset to a self-contained HTML page."""
    body: List[str] = []
    lines = markdown.splitlines()
    index = 0
    in_code = False
    code: List[str] = []
    while index < len(lines):
        line = lines[index]
        if line.startswith("```"):
            if in_code:
                body.append(
                    "<pre>" + html_module.escape("\n".join(code)) + "</pre>"
                )
                code = []
            in_code = not in_code
            index += 1
            continue
        if in_code:
            code.append(line)
            index += 1
            continue
        if line.startswith("#"):
            level = len(line) - len(line.lstrip("#"))
            level = min(level, 6)
            text = _inline_html(line[level:].strip())
            body.append(f"<h{level}>{text}</h{level}>")
            index += 1
            continue
        if line.startswith("|"):
            table = []
            while index < len(lines) and lines[index].startswith("|"):
                table.append(lines[index])
                index += 1
            body.append(_table_html(table))
            continue
        if line.startswith("- "):
            items = []
            while index < len(lines) and lines[index].startswith("- "):
                items.append(f"<li>{_inline_html(lines[index][2:])}</li>")
                index += 1
            body.append("<ul>" + "".join(items) + "</ul>")
            continue
        if line.strip():
            body.append(f"<p>{_inline_html(line.strip())}</p>")
        index += 1
    if in_code and code:  # unterminated fence: still show the content
        body.append("<pre>" + html_module.escape("\n".join(code)) + "</pre>")
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{html_module.escape(title)}</title>"
        "<style>body{font-family:sans-serif;margin:2em;}"
        "table{border-collapse:collapse;}td,th{border:1px solid #999;"
        "padding:4px 8px;}pre{background:#f4f4f4;padding:1em;"
        "overflow-x:auto;}code{background:#f4f4f4;}</style>"
        "</head><body>\n" + "\n".join(body) + "\n</body></html>\n"
    )


def _inline_html(text: str) -> str:
    """Escape, then re-introduce `code` spans (the only inline markup used)."""
    escaped = html_module.escape(text)
    parts = escaped.split("`")
    for position in range(1, len(parts), 2):
        parts[position] = f"<code>{parts[position]}</code>"
    if len(parts) % 2 == 0:  # unbalanced backtick: keep it literal
        return escaped
    return "".join(parts)


def _table_html(rows: List[str]) -> str:
    parsed = []
    for row in rows:
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if all(set(cell) <= {"-", ":", " "} and cell for cell in cells):
            continue  # the markdown separator row
        parsed.append(cells)
    if not parsed:
        return ""
    html_rows = []
    for position, cells in enumerate(parsed):
        tag = "th" if position == 0 else "td"
        html_rows.append(
            "<tr>"
            + "".join(f"<{tag}>{_inline_html(cell)}</{tag}>" for cell in cells)
            + "</tr>"
        )
    return "<table>" + "".join(html_rows) + "</table>"
