"""Unit tests for repro.eval.reporting."""

import pytest

from repro.eval.reporting import (
    format_accuracy_memory,
    format_heatmap,
    format_store_diff,
    format_sweep_records,
    format_table,
    sweep_grid,
)


class TestFormatTable:
    def test_contains_headers_and_values(self):
        rows = [{"model": "MEMHD", "accuracy": 0.95}, {"model": "BasicHDC", "accuracy": 0.9}]
        text = format_table(rows)
        assert "model" in text
        assert "MEMHD" in text
        assert "0.95" in text

    def test_empty_rows(self):
        assert format_table([]) == "(empty table)"

    def test_title_included(self):
        text = format_table([{"a": 1}], title="Table II")
        assert text.splitlines()[0] == "Table II"

    def test_explicit_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_missing_keys_render_empty(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "1" in text and "2" in text

    def test_float_formatting(self):
        text = format_table([{"x": 0.123456}], float_format="{:.2f}")
        assert "0.12" in text

    def test_alignment_consistent(self):
        rows = [{"name": "a", "value": 1}, {"name": "longer-name", "value": 22}]
        lines = format_table(rows).splitlines()
        assert len({len(line) for line in lines[0:1] + lines[2:]}) == 1


class TestFormatAccuracyMemory:
    def test_sorted_by_memory(self):
        records = [
            {"model": "big", "label": "big", "memory_kib": 100.0, "test_accuracy": 0.9},
            {"model": "small", "label": "small", "memory_kib": 1.0, "test_accuracy": 0.8},
        ]
        text = format_accuracy_memory(records)
        assert text.index("small") < text.index("big")

    def test_accepts_record_objects(self, tiny_dataset):
        from repro.baselines import BasicHDC, BasicHDCConfig
        from repro.eval.experiments import evaluate_classifier

        model = BasicHDC(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            BasicHDCConfig(dimension=32, seed=0),
        )
        record = evaluate_classifier(model, tiny_dataset, record_history=False)
        text = format_accuracy_memory([record], title="Fig. 3")
        assert "Fig. 3" in text
        assert "BasicHDC" in text


class TestFormatHeatmap:
    def test_grid_rendering(self):
        grid = {(64, 64): 0.5, (64, 128): 0.6, (128, 64): 0.7, (128, 128): 0.8}
        text = format_heatmap(grid, title="Fig. 4")
        assert "Fig. 4" in text
        assert "64" in text and "128" in text
        assert "80.0" in text  # 0.8 rendered as a percentage

    def test_missing_cells_rendered_as_dashes(self):
        grid = {(64, 64): 0.5, (128, 128): 0.9}
        text = format_heatmap(grid)
        assert "--" in text

    def test_empty_grid(self):
        assert format_heatmap({}) == "(empty heatmap)"

    def test_cell_scale_for_non_fraction_metrics(self):
        grid = {(64, 64): 3.125, (128, 64): 6.25}
        text = format_heatmap(grid, cell_format="{:8.4g}", cell_scale=1.0)
        assert "3.125" in text
        assert "312.5" not in text


class TestSweepRenderers:
    IDEAL = {
        "config": {
            "model": "memhd",
            "dataset": "mnist",
            "dimension": 64,
            "columns": 16,
            "engine": "float",
            "bit_flip_probability": 0.0,
            "adc_bits": None,
        },
        "metrics": {"test_accuracy": 0.8, "memory_kib": 6.25},
    }
    NOISY = {
        "config": {
            "model": "memhd",
            "dataset": "mnist",
            "dimension": 64,
            "columns": 16,
            "engine": None,
            "bit_flip_probability": 0.05,
            "adc_bits": None,
        },
        "metrics": {"test_accuracy": 0.3, "memory_kib": 6.25},
    }

    def test_format_sweep_records_lists_cells(self):
        text = format_sweep_records([self.IDEAL, self.NOISY], title="Sweep")
        assert "Sweep" in text
        assert "memhd" in text
        assert "80.00" in text  # accuracy rendered as a percentage
        assert "flip_p" in text  # the noise axis appears for noisy cells

    def test_sweep_grid_skips_non_ideal_cells_by_default(self):
        """Noisy cells share the (D, C) key; they must not clobber ideal ones."""
        grid = sweep_grid([self.IDEAL, self.NOISY])
        assert grid == {(64, 16): pytest.approx(0.8)}
        # Opting out pivots whatever the caller pre-filtered.
        noisy_only = sweep_grid([self.NOISY], ideal_only=False)
        assert noisy_only == {(64, 16): pytest.approx(0.3)}

    def test_format_store_diff_renders_changes(self, tmp_path):
        from repro.eval.store import ResultStore

        left = ResultStore(tmp_path / "a.jsonl")
        right = ResultStore(tmp_path / "b.jsonl")
        left.append({"model": "memhd"}, {"test_accuracy": 0.8})
        right.append({"model": "memhd"}, {"test_accuracy": 0.6})
        text = format_store_diff(left.diff(right), title="golden vs fresh")
        assert "golden vs fresh" in text
        assert "test_accuracy" in text
        assert "0.8" in text and "0.6" in text
        clean = format_store_diff(left.diff(left))
        assert "identical" in clean
