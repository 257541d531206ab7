"""Plain-text report formatting for tables and figures.

The benchmark harness prints its results as aligned ASCII tables (and
simple text heatmaps) so the paper's tables and figure series can be read
straight from the pytest output or the ``*_output.txt`` capture files --
no plotting dependencies required.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.4g}",
    title: Optional[str] = None,
) -> str:
    """Render a list of dictionaries as an aligned ASCII table."""
    rows = list(rows)
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), max(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    header = " | ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    separator = "-+-".join("-" * w for w in widths)
    body = "\n".join(
        " | ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in rendered
    )
    parts = []
    if title:
        parts.append(title)
    parts.extend([header, separator, body])
    return "\n".join(parts)


def format_markdown_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.4g}",
) -> str:
    """Render a list of dictionaries as a GitHub-flavoured markdown table.

    The markdown sibling of :func:`format_table`, used by the workflow QA
    reports (``repro report``).  Pipe characters inside cells are escaped
    so arbitrary metric values cannot break the table.
    """
    rows = list(rows)
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            text = float_format.format(value)
        else:
            text = str(value)
        return text.replace("|", "\\|")

    lines = [
        "| " + " | ".join(str(column) for column in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(render(row.get(column, "")) for column in columns) + " |"
        )
    return "\n".join(lines)


def format_accuracy_memory(
    records: Iterable,
    title: Optional[str] = None,
) -> str:
    """Fig. 3 style listing: model, size label, memory (KB) and accuracy."""
    rows = []
    for record in records:
        data = record.as_dict() if hasattr(record, "as_dict") else dict(record)
        rows.append(
            {
                "model": data.get("model", "?"),
                "config": data.get("label", data.get("config", "?")),
                "memory_kib": data.get("memory_kib", float("nan")),
                "accuracy_%": 100.0 * float(data.get("test_accuracy", float("nan"))),
            }
        )
    rows.sort(key=lambda row: row["memory_kib"])
    return format_table(rows, title=title, float_format="{:.2f}")


def _record_fields(record) -> Tuple[Dict[str, object], Dict[str, object]]:
    """``(config, metrics)`` of a sweep record (ResultRecord or plain dict)."""
    if hasattr(record, "config") and hasattr(record, "metrics"):
        return dict(record.config), dict(record.metrics)
    data = dict(record)
    return dict(data.get("config", {})), dict(data.get("metrics", {}))


def format_sweep_records(
    records: Iterable,
    metrics: Sequence[str] = ("test_accuracy", "memory_kib", "queries_per_s"),
    title: Optional[str] = None,
) -> str:
    """Sweep result listing: one aligned row per completed grid cell.

    Accuracy-like metrics (anything ending in ``accuracy``) are shown as
    percentages; config axes a cell does not carry render blank.
    """
    rows = []
    for record in records:
        config, cell_metrics = _record_fields(record)
        row: Dict[str, object] = {
            "model": config.get("model", "?"),
            "dataset": config.get("dataset", "?"),
            "D": config.get("dimension", ""),
            "C": config.get("columns", ""),
            "engine": config.get("engine") or "-",
        }
        if config.get("bit_flip_probability"):
            row["flip_p"] = config["bit_flip_probability"]
        if config.get("adc_bits") is not None:
            row["adc_bits"] = config["adc_bits"]
        for name in metrics:
            value = cell_metrics.get(name)
            if name.endswith("accuracy"):
                row[f"{name}_%"] = (
                    100.0 * float(value) if value is not None else float("nan")
                )
            else:
                row[name] = value if value is not None else ""
        rows.append(row)
    # Stable, readable ordering: by model family, dataset, then size.
    rows.sort(key=lambda r: (str(r["model"]), str(r["dataset"]), str(r["D"]), str(r["C"])))
    columns = sorted({key for row in rows for key in row}, key=lambda name: name)
    if rows:
        # Preserve the natural column order of the first row, appending any
        # extras (flip_p / adc_bits) that only later rows introduce.
        leading = list(rows[0].keys())
        columns = leading + [name for name in columns if name not in leading]
    return format_table(rows, columns=columns or None, float_format="{:.2f}", title=title)


def format_serving_records(
    records: Iterable,
    title: Optional[str] = None,
) -> str:
    """Serving-load cell listing: the capacity-planning table.

    One row per (model config x serving point) with the request/error
    accounting (deterministic) and the measured QPS + p50/p95/p99 latency
    quantiles (volatile -- informative here, never drift-gated).
    """
    rows = []
    for record in records:
        config, metrics = _record_fields(record)
        rows.append(
            {
                "model": config.get("model", "?"),
                "dataset": config.get("dataset", "?"),
                "D": config.get("dimension", ""),
                "engine": config.get("engine") or "-",
                "mode": config.get("serving_mode", "?"),
                "workers": config.get("serving_workers", ""),
                "conc": config.get("serving_concurrency", ""),
                "batch": config.get("serving_batch", ""),
                "requests": metrics.get("requests", ""),
                "errors": metrics.get("errors", ""),
                "qps": metrics.get("qps", ""),
                "p50_ms": metrics.get("p50_ms", ""),
                "p95_ms": metrics.get("p95_ms", ""),
                "p99_ms": metrics.get("p99_ms", ""),
            }
        )
    rows.sort(
        key=lambda r: (
            str(r["model"]),
            str(r["dataset"]),
            str(r["D"]),
            str(r["engine"]),
            str(r["mode"]),
            int(r["workers"] or 0),
            int(r["conc"] or 0),
            int(r["batch"] or 0),
        )
    )
    return format_table(rows, float_format="{:.2f}", title=title)


def sweep_grid(
    records: Iterable,
    row_axis: str = "dimension",
    col_axis: str = "columns",
    value: str = "test_accuracy",
    ideal_only: bool = True,
) -> Dict[Tuple[int, int], float]:
    """Pivot sweep records into the ``{(row, col): value}`` heatmap form.

    Cells missing either axis or the metric are skipped, so mixed-model
    stores pivot cleanly on the MEMHD-only axes.  By default, non-ideal
    cells (injected bit flips or a finite ADC) are skipped too: they share
    the pivot key of their ideal sibling and would otherwise overwrite it
    with degraded numbers, last-write-wins.  Pass ``ideal_only=False``
    after pre-filtering records to one non-ideality setting.
    """
    grid: Dict[Tuple[int, int], float] = {}
    for record in records:
        config, metrics = _record_fields(record)
        if row_axis not in config or col_axis not in config or value not in metrics:
            continue
        if ideal_only and (
            config.get("bit_flip_probability") or config.get("adc_bits") is not None
        ):
            continue
        grid[(int(config[row_axis]), int(config[col_axis]))] = float(metrics[value])
    return grid


def format_store_diff(diff, title: Optional[str] = None) -> str:
    """Render a :class:`repro.eval.store.StoreDiff` for terminal output."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(diff.summary())
    if diff.changed:
        rows = [change.as_dict() for change in diff.changed]
        lines.append(format_table(rows, float_format="{:.6g}"))
    for label, keys in (("only-left", diff.only_left), ("only-right", diff.only_right)):
        if keys:
            lines.append(f"{label}: {', '.join(keys)}")
    if diff.is_clean:
        lines.append("stores are identical (within tolerance)")
    return "\n".join(lines)


def format_heatmap(
    grid: Dict[Tuple[int, int], float],
    title: Optional[str] = None,
    cell_format: str = "{:6.1f}",
    cell_scale: float = 100.0,
) -> str:
    """Fig. 4 style text heatmap: rows are dimensions, columns are AM columns.

    ``cell_scale`` converts stored values to display units -- the default
    of 100 renders accuracy fractions as percentages; pass 1.0 for
    metrics that are not fractions (memory KiB, throughput, ...).
    """
    if not grid:
        return "(empty heatmap)"
    dimensions = sorted({key[0] for key in grid})
    columns = sorted({key[1] for key in grid})
    header = "D \\ C |" + "".join(f"{c:>8d}" for c in columns)
    lines = [header, "-" * len(header)]
    for dimension in dimensions:
        cells = []
        for column in columns:
            value = grid.get((dimension, column))
            cells.append(
                cell_format.format(cell_scale * value) if value is not None else "     --"
            )
        lines.append(f"{dimension:>6d}|" + " ".join(f"{c:>7s}" for c in cells))
    if title:
        lines.insert(0, title)
    return "\n".join(lines)
