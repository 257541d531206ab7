"""Serving-load sweep cells: differential + schema tests.

The serving-load cell promises a clean split: *deterministic* metrics
(request/error accounting, the prediction digest) that the drift gates
compare, and *volatile* ones (QPS, latency quantiles) that they skip.
Locked down three ways:

* a **differential test** -- the sweep cell vs a hand-rolled
  train + serve + ``run_load`` + ``prediction_digest`` session must agree
  on every deterministic metric, bit-exact digest included;
* a **golden metrics schema** (``tests/golden/serving_cell_schema.json``,
  regenerate with ``REPRO_REGEN_GOLDEN=1``) so a metric silently changing
  name, type, or determinism class fails loudly;
* **reporting coverage** -- ``repro sweep report`` and the orchestrate QA
  report render the p99/QPS capacity-planning table for serving records.
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval.serving_cell import DIGEST_BATCHES, execute_serving_job
from repro.eval.sweep import (
    SERVING_MODES,
    SweepError,
    SweepSpec,
    execute_job,
    model_for_config,
)
from repro.eval.store import ResultStore, is_volatile_metric
from repro.eval.reporting import format_serving_records
from repro.runtime.loadtest import MODES, prediction_digest, run_load
from repro.runtime.server import ModelServer

GOLDEN_SCHEMA = Path(__file__).parent / "golden" / "serving_cell_schema.json"

#: One serving-load cell, kept tiny: 16 requests against a packed memhd.
SERVING_SPEC = SweepSpec(
    kind="serving-load",
    models=("memhd",),
    datasets=("mnist",),
    dimensions=(32,),
    columns=(16,),
    engines=("packed",),
    scale=0.01,
    epochs=1,
    seed=7,
    serving_concurrency=(2,),
    serving_workers=(1,),
    serving_batch=(4,),
    serving_requests=16,
)

#: Deterministic metrics: compared by the differential test and drift
#: gates.  Everything else the cell emits must be volatile.
DETERMINISTIC = {
    "train_accuracy",
    "test_accuracy",
    "memory_kib",
    "requests",
    "queries",
    "errors",
    "error_rate",
    "predictions_sha256",
}


@pytest.fixture(scope="module")
def cell_job():
    jobs = SERVING_SPEC.expand()
    assert len(jobs) == 1
    return jobs[0]


@pytest.fixture(scope="module")
def cell_result(cell_job):
    """The sweep engine's view of the cell (via the execute_job dispatcher)."""
    return execute_job(cell_job.as_dict())


class TestDifferential:
    def test_cell_agrees_with_direct_loadtest_session(self, cell_job, cell_result):
        """Sweep cell == hand-rolled serve/load/digest on deterministic metrics."""
        config = cell_job.config
        model, dataset = model_for_config(config, cell_job.seed)
        model.fit(dataset.train_features, dataset.train_labels)
        server = ModelServer(
            model, engine=config["engine"], host="127.0.0.1", port=0
        ).start()
        try:
            load = run_load(
                server.url,
                num_features=dataset.num_features,
                mode=config["serving_mode"],
                concurrency=config["serving_concurrency"],
                batch_size=config["serving_batch"],
                seed=cell_job.seed,
                total_requests=config["serving_requests"],
            )
            digest = prediction_digest(
                server.url,
                num_features=dataset.num_features,
                batch_size=config["serving_batch"],
                count=DIGEST_BATCHES,
                seed=cell_job.seed,
            )
        finally:
            server.shutdown()
        row = load.as_dict()
        metrics = cell_result["metrics"]
        assert metrics["requests"] == row["requests"] == 16
        assert metrics["queries"] == row["queries"] == 16 * 4
        assert metrics["errors"] == row["errors"] == 0
        assert metrics["error_rate"] == 0.0
        # Bit-exact predictions: same model bits on both sides.
        assert metrics["predictions_sha256"] == digest

    def test_cell_is_reproducible_across_runs(self, cell_job, cell_result):
        """A second execution reproduces every deterministic metric exactly."""
        again = execute_serving_job(cell_job.as_dict())
        for name in DETERMINISTIC:
            assert again["metrics"][name] == cell_result["metrics"][name], name

    def test_prefork_pool_serves_identical_predictions(self, cell_job, cell_result):
        """workers=2 (prefork supervisor) changes nothing deterministic."""
        from repro.runtime.workers import fork_available

        if not fork_available():
            pytest.skip("prefork pool requires fork()")
        payload = cell_job.as_dict()
        payload["config"] = dict(payload["config"], serving_workers=2)
        pooled = execute_serving_job(payload)
        for name in DETERMINISTIC:
            assert pooled["metrics"][name] == cell_result["metrics"][name], name


class TestMetricsSchema:
    def test_schema_matches_golden(self, cell_result):
        """Name -> (type, determinism class) of every cell metric, pinned."""
        schema = {
            name: {
                "type": type(value).__name__,
                "volatile": is_volatile_metric(name),
            }
            for name, value in sorted(cell_result["metrics"].items())
        }
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_SCHEMA.parent.mkdir(parents=True, exist_ok=True)
            rendered = json.dumps(schema, indent=2, sort_keys=True)
            GOLDEN_SCHEMA.write_text(rendered + "\n")
        assert GOLDEN_SCHEMA.is_file(), (
            f"golden schema missing; regenerate with REPRO_REGEN_GOLDEN=1 "
            f"({GOLDEN_SCHEMA})"
        )
        assert schema == json.loads(GOLDEN_SCHEMA.read_text())

    def test_deterministic_and_volatile_metrics_partition_cleanly(self, cell_result):
        """Every metric is either drift-gated or explicitly volatile."""
        for name in cell_result["metrics"]:
            assert (name in DETERMINISTIC) != is_volatile_metric(name), name

    def test_store_diff_gates_deterministic_but_skips_volatile(
        self, tmp_path, cell_result
    ):
        left = ResultStore(tmp_path / "left.jsonl")
        right = ResultStore(tmp_path / "right.jsonl")
        left.append(
            cell_result["config"], cell_result["metrics"], key=cell_result["key"]
        )
        # A rerun with different machine measurements but identical
        # deterministic metrics must diff clean...
        noisy = dict(cell_result["metrics"], qps=1.0, p99_ms=9999.0, duration_s=42.0)
        right.append(cell_result["config"], noisy, key=cell_result["key"])
        assert left.diff(right).is_clean
        # ... while a deterministic drift (digest changed) must not.
        tampered = ResultStore(tmp_path / "tampered.jsonl")
        bad = dict(cell_result["metrics"], predictions_sha256="0" * 16)
        tampered.append(cell_result["config"], bad, key=cell_result["key"])
        diff = left.diff(tampered)
        assert not diff.is_clean
        assert {change.metric for change in diff.changed} == {"predictions_sha256"}


class TestSpecValidation:
    def test_serving_load_is_ideal_only(self):
        with pytest.raises(SweepError, match="ideal-only"):
            SweepSpec(kind="serving-load", bit_flip_probabilities=(0.0, 0.01))
        with pytest.raises(SweepError, match="ideal-only"):
            SweepSpec(kind="serving-load", adc_bits=(4,))

    def test_open_mode_requires_rate(self):
        with pytest.raises(SweepError, match="rate"):
            SweepSpec(kind="serving-load", serving_modes=("open",))
        spec = SweepSpec(
            kind="serving-load", serving_modes=("open",), serving_rate=50.0
        )
        assert spec.serving_rate == 50.0

    def test_unknown_kind_and_mode_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(kind="latency")
        with pytest.raises(SweepError):
            SweepSpec(kind="serving-load", serving_modes=("bursty",))
        # The sweep copies the modes to stay import-light; keep them equal.
        assert SERVING_MODES == MODES

    def test_accuracy_cells_carry_no_serving_keys(self):
        """Pinned: accuracy configs are byte-identical to pre-serving repros."""
        spec = SweepSpec(models=("memhd",), dimensions=(32,), columns=(16,))
        for job in spec.expand():
            assert "kind" not in job.config
            assert not any(key.startswith("serving_") for key in job.config)

    def test_serving_points_share_one_trained_model_seed(self):
        """Serving knobs are not training fields: one model, many points."""
        spec = SweepSpec(
            kind="serving-load",
            models=("memhd",),
            dimensions=(32,),
            columns=(16,),
            serving_concurrency=(1, 2, 4),
            serving_workers=(1, 2),
        )
        jobs = spec.expand()
        assert len(jobs) == 6
        assert len({job.seed for job in jobs}) == 1
        assert len({job.key for job in jobs}) == 6  # ... but distinct cells


class TestReporting:
    def _fabricated_records(self):
        config = {
            "model": "memhd",
            "dataset": "mnist",
            "dimension": 32,
            "engine": "packed",
            "kind": "serving-load",
            "serving_mode": "closed",
            "serving_workers": 2,
            "serving_concurrency": 4,
            "serving_batch": 1,
        }
        metrics = {
            "requests": 64,
            "errors": 0,
            "qps": 1234.5,
            "p50_ms": 1.25,
            "p95_ms": 2.5,
            "p99_ms": 3.75,
            "test_accuracy": 0.5,
        }
        return [{"config": config, "metrics": metrics}]

    def test_format_serving_records_renders_capacity_columns(self):
        table = format_serving_records(self._fabricated_records(), title="serving")
        assert "p99_ms" in table and "qps" in table
        assert "1234.50" in table and "3.75" in table

    def test_sweep_report_renders_serving_table(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "results.jsonl")
        record = self._fabricated_records()[0]
        store.append(record["config"], record["metrics"])
        assert main(["sweep", "report", "--results", str(store.path)]) == 0
        out = capsys.readouterr().out
        assert "Serving-load results" in out
        assert "p99_ms" in out
