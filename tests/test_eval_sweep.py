"""Tests for the experiment-matrix engine (repro.eval.sweep).

Covers spec validation and canonicalized expansion, deterministic
per-cell seeding, parallel execution, the resume contract (a killed sweep
re-run completes only the missing cells), ``--save-best`` reconstruction,
and the golden-metrics regression gate pinned under ``tests/golden/``.
"""

import os
from pathlib import Path

import pytest

from repro.eval.store import ResultStore
from repro.eval.sweep import (
    MODEL_DEFAULTS,
    SweepError,
    SweepSpec,
    best_record,
    build_model,
    execute_job,
    run_sweep,
    spec_records,
    train_record_model,
)

#: The tiny grid used by most execution tests: fast, but still crossing
#: model families, engines and a non-ideal IMC cell.
TINY = SweepSpec(
    models=("memhd", "basichdc"),
    datasets=("mnist",),
    dimensions=(32,),
    columns=(16,),
    engines=("float", "packed"),
    bit_flip_probabilities=(0.0, 0.05),
    scale=0.01,
    epochs=1,
    seed=3,
)


class TestBuildModel:
    def test_omitted_hyperparameters_take_model_defaults(self):
        model = build_model("memhd", 8, 2, seed=0, epochs=1)
        assert model.config.epochs == 1
        assert model.config.dimension == MODEL_DEFAULTS["dimension"]
        assert model.config.init_method == MODEL_DEFAULTS["init_method"]

    def test_rejects_unknown_hyperparameter(self):
        with pytest.raises(ValueError, match="dimensions"):
            build_model("memhd", 8, 2, seed=0, dimensions=64)

    @pytest.mark.parametrize(
        "model, fields",
        [
            ("memhd", {"dimension": 96, "epochs": 7, "learning_rate": 0.01}),
            ("basichdc", {"dimension": 96, "refine_epochs": 7, "learning_rate": 0.01}),
            ("quanthd", {"dimension": 96, "num_levels": 8, "epochs": 7,
                         "learning_rate": 0.01}),
            ("searchd", {"dimension": 96, "num_levels": 8, "epochs": 7}),
            ("lehdc", {"dimension": 96, "num_levels": 8, "epochs": 7,
                       "learning_rate": 0.01}),
            ("onlinehd", {"dimension": 96, "epochs": 7, "learning_rate": 0.01}),
        ],
    )
    def test_built_config_equals_requested_hyperparameters(self, model, fields):
        """No family overrides what the caller (and the sweep record) asked for."""
        config = build_model(
            model, 8, 2, seed=0, dimension=96, epochs=7, learning_rate=0.01,
            id_levels=8,
        ).config
        assert {name: getattr(config, name) for name in fields} == fields


class TestSweepSpec:
    def test_rejects_unknown_axes_values(self):
        with pytest.raises(SweepError):
            SweepSpec(models=("notamodel",))
        with pytest.raises(SweepError):
            SweepSpec(datasets=("cifar",))
        with pytest.raises(SweepError):
            SweepSpec(engines=("quantum",))
        with pytest.raises(SweepError):
            SweepSpec(bit_flip_probabilities=(1.5,))
        with pytest.raises(SweepError):
            SweepSpec(scale=0.0)

    def test_dict_round_trip(self):
        spec = SweepSpec.from_dict(TINY.to_dict())
        assert spec == TINY
        with pytest.raises(SweepError):
            SweepSpec.from_dict({"models": ["memhd"], "bogus_field": 1})

    def test_from_dict_wraps_type_errors(self):
        """Wrong-typed spec values surface as SweepError, not a traceback."""
        with pytest.raises(SweepError, match="invalid sweep spec"):
            SweepSpec.from_dict({"dimensions": 32})  # scalar, not a list
        with pytest.raises(SweepError, match="invalid sweep spec"):
            SweepSpec.from_dict({"epochs": "five"})
        with pytest.raises(SweepError, match="invalid sweep spec"):
            SweepSpec.from_dict({"dimensions": ["x"]})

    def test_expansion_is_canonical(self):
        """Axes a model ignores must not multiply its cells."""
        spec = SweepSpec(
            models=("basichdc",),
            columns=(16, 32, 64),  # no columns axis on baselines
            cluster_ratios=(0.5, 0.9),  # nor cluster ratios
            dimensions=(32,),
            scale=0.01,
            epochs=1,
        )
        jobs = spec.expand()
        assert len(jobs) == 1
        assert "columns" not in jobs[0].config
        assert "cluster_ratio" not in jobs[0].config

    def test_packed_cells_only_for_capable_models(self):
        spec = SweepSpec(
            models=("onlinehd", "searchd"),
            engines=("float", "packed"),
            dimensions=(32,),
            scale=0.01,
            epochs=1,
        )
        engines = {
            (job.config["model"], job.config["engine"]) for job in spec.expand()
        }
        assert engines == {
            ("onlinehd", "float"),
            ("searchd", "float"),
            ("searchd", "packed"),
        }

    def test_memhd_column_budget_below_class_count_dropped(self):
        spec = SweepSpec(
            models=("memhd",),
            datasets=("isolet",),  # 26 classes
            dimensions=(32,),
            columns=(16, 32),
            scale=0.01,
            epochs=1,
        )
        jobs = spec.expand()
        assert [job.config["columns"] for job in jobs] == [32]

    def test_non_ideal_cells_are_memhd_simulator_cells(self):
        jobs = TINY.expand()
        noisy = [job for job in jobs if job.config["bit_flip_probability"] > 0]
        assert noisy
        assert all(job.config["model"] == "memhd" for job in noisy)
        assert all(job.config["engine"] is None for job in noisy)

    def test_empty_grid_raises(self, tmp_path):
        spec = SweepSpec(
            models=("onlinehd",),
            engines=("packed",),  # unavailable on a floating-point AM
            dimensions=(32,),
            scale=0.01,
            epochs=1,
        )
        assert spec.expand() == []
        with pytest.raises(SweepError, match="empty grid"):
            run_sweep(spec, ResultStore(tmp_path / "r.jsonl"))

    def test_job_seeds_are_deterministic_and_engine_invariant(self):
        jobs = {job.key: job for job in TINY.expand()}
        again = {job.key: job for job in TINY.expand()}
        assert {k: j.seed for k, j in jobs.items()} == {
            k: j.seed for k, j in again.items()
        }
        # Cells that evaluate the same trained model (float vs packed vs
        # noisy-simulator) share one model seed...
        memhd_seeds = {
            job.seed for job in jobs.values() if job.config["model"] == "memhd"
        }
        assert len(memhd_seeds) == 1
        # ...while a different base seed moves every model seed.
        other = SweepSpec.from_dict({**TINY.to_dict(), "seed": 4}).expand()
        assert all(jobs[j.key].seed != j.seed for j in other if j.key in jobs)


class TestRunSweep:
    def test_run_executes_all_cells(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        result = run_sweep(TINY, store, workers=1)
        assert result.ok
        assert result.completed == result.total == len(TINY.expand())
        assert store.completed_keys() == {job.key for job in TINY.expand()}

    def test_float_and_packed_cells_agree(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        assert run_sweep(TINY, store, workers=1).ok
        by_engine = {}
        for record in spec_records(TINY, store):
            config = record.config
            by_engine.setdefault((config["model"], config["dimension"]), {})[
                config["engine"]
            ] = record.metrics
        for cell, engines in by_engine.items():
            if "float" in engines and "packed" in engines:
                assert engines["float"]["test_accuracy"] == pytest.approx(
                    engines["packed"]["test_accuracy"]
                ), cell

    def test_killed_sweep_resumes_only_missing_cells(self, tmp_path):
        """The acceptance-criteria resume check.

        The first run is cut short after three cells (the observable state
        of a killed process: a store with a prefix of the grid).  The
        re-run with the same spec must execute exactly the missing cells
        and leave the store complete.
        """
        store = ResultStore(tmp_path / "r.jsonl")
        total = len(TINY.expand())
        first = run_sweep(TINY, store, workers=1, max_jobs=3)
        assert first.completed == 3
        assert len(store) == 3

        second = run_sweep(TINY, store, workers=1)
        assert second.ok
        assert second.skipped == 3
        assert second.completed == total - 3
        assert len(store) == total

        # A third run has nothing left to do.
        third = run_sweep(TINY, store, workers=1)
        assert third.completed == 0
        assert third.skipped == total

    def test_resumed_cells_match_uninterrupted_run(self, tmp_path):
        """Resume must not change results: interrupted+resumed == one-shot."""
        interrupted = ResultStore(tmp_path / "interrupted.jsonl")
        run_sweep(TINY, interrupted, workers=1, max_jobs=3)
        run_sweep(TINY, interrupted, workers=1)
        oneshot = ResultStore(tmp_path / "oneshot.jsonl")
        run_sweep(TINY, oneshot, workers=1)
        assert interrupted.diff(oneshot).is_clean

    def test_no_resume_reexecutes_everything(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        run_sweep(TINY, store, workers=1)
        result = run_sweep(TINY, store, workers=1, resume=False)
        assert result.completed == result.total

    def test_parallel_run_matches_serial(self, tmp_path):
        serial = ResultStore(tmp_path / "serial.jsonl")
        parallel = ResultStore(tmp_path / "parallel.jsonl")
        run_sweep(TINY, serial, workers=1)
        result = run_sweep(TINY, parallel, workers=2)
        assert result.ok
        assert serial.diff(parallel).is_clean

    def test_failed_cells_are_reported_not_stored(self, tmp_path, monkeypatch):
        import repro.eval.sweep as sweep_module

        real = sweep_module.execute_job
        doomed = TINY.expand()[0].key

        def flaky(payload):
            if payload["key"] == doomed:
                raise RuntimeError("injected failure")
            return real(payload)

        monkeypatch.setattr(sweep_module, "execute_job", flaky)
        store = ResultStore(tmp_path / "r.jsonl")
        result = run_sweep(TINY, store, workers=1)
        assert not result.ok
        assert [failure["key"] for failure in result.failed] == [doomed]
        assert doomed not in store.completed_keys()
        # The failed cell is retried (and heals) on the next run.
        monkeypatch.setattr(sweep_module, "execute_job", real)
        heal = run_sweep(TINY, store, workers=1)
        assert heal.ok and heal.completed == 1

    def test_progress_callback_receives_lines(self, tmp_path):
        lines = []
        run_sweep(
            SweepSpec(models=("basichdc",), dimensions=(32,), scale=0.01, epochs=1),
            ResultStore(tmp_path / "r.jsonl"),
            progress=lines.append,
        )
        assert any("to run" in line for line in lines)
        assert any("done" in line for line in lines)


class TestRecordHelpers:
    def test_spec_records_orders_and_filters(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        run_sweep(TINY, store, workers=1)
        store.append({"model": "unrelated"}, {"test_accuracy": 9.9})
        records = spec_records(TINY, store)
        assert [record.key for record in records] == [
            job.key for job in TINY.expand()
        ]

    def test_best_record_and_reconstruction(self, tmp_path):
        """``--save-best``: the retrained best model reproduces its metrics."""
        store = ResultStore(tmp_path / "r.jsonl")
        run_sweep(TINY, store, workers=1)
        records = spec_records(TINY, store)
        best = best_record(records)
        assert all(
            best.metrics["test_accuracy"] >= record.metrics["test_accuracy"]
            for record in records
            if "test_accuracy" in record.metrics
        )
        model, dataset = train_record_model(best)
        accuracy = model.score(dataset.test_features, dataset.test_labels)
        assert accuracy == pytest.approx(best.metrics["test_accuracy"])

    def test_best_record_requires_metric(self):
        with pytest.raises(SweepError):
            best_record([], metric="test_accuracy")

    def test_execute_job_is_reproducible(self):
        job = TINY.expand()[0].as_dict()
        first = execute_job(job)
        second = execute_job(job)
        assert first["metrics"]["test_accuracy"] == pytest.approx(
            second["metrics"]["test_accuracy"]
        )
        assert first["metrics"]["memory_kib"] == pytest.approx(
            second["metrics"]["memory_kib"]
        )


# --------------------------------------------------------------------------
# Golden-metrics regression gate
# --------------------------------------------------------------------------
#: The pinned spec behind ``tests/golden/sweep_mnist_tiny.jsonl``.  Every
#: quantity feeding its metrics is deterministic (synthetic data from a
#: seeded generator, derived per-cell model seeds, discrete accuracy
#: ratios), so the stored values are exact across platforms; timing
#: metrics are excluded from the diff by default.
GOLDEN_SPEC = SweepSpec(
    models=("memhd", "basichdc"),
    datasets=("mnist",),
    dimensions=(32, 64),
    columns=(16,),
    engines=("float",),
    scale=0.01,
    epochs=1,
    seed=20250726,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "sweep_mnist_tiny.jsonl"


class TestGoldenMetrics:
    def test_sweep_matches_golden_store(self, tmp_path):
        """Accuracy drift against the pinned store fails loudly.

        Regenerate the pin (after an intentional behaviour change) with::

            REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_eval_sweep.py -k golden
        """
        fresh = ResultStore(tmp_path / "fresh.jsonl")
        result = run_sweep(GOLDEN_SPEC, fresh, workers=1)
        assert result.ok
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_PATH.unlink(missing_ok=True)
            ResultStore(GOLDEN_PATH).extend(spec_records(GOLDEN_SPEC, fresh))
        golden = ResultStore(GOLDEN_PATH)
        assert golden.path.is_file(), (
            "golden store missing; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        diff = golden.diff(fresh)
        assert diff.is_clean, f"metrics drifted from golden store: {diff.summary()}"

    def test_injected_drift_is_detected(self, tmp_path):
        """The gate actually bites: a perturbed metric flips the diff."""
        golden = ResultStore(GOLDEN_PATH)
        records = golden.records()
        assert records, "golden store missing"
        tampered = ResultStore(tmp_path / "tampered.jsonl")
        tampered.extend(records[:-1])
        last = records[-1]
        tampered.append(
            last.config,
            {**last.metrics, "test_accuracy": last.metrics["test_accuracy"] + 0.01},
            key=last.key,
        )
        diff = golden.diff(tampered)
        assert not diff.is_clean
        assert any(change.metric == "test_accuracy" for change in diff.changed)

    def test_golden_metrics_within_sane_ranges(self):
        """The pinned metrics themselves stay physically meaningful."""
        records = ResultStore(GOLDEN_PATH).records()
        assert len(records) == len(GOLDEN_SPEC.expand())
        for record in records:
            assert 0.0 <= record.metrics["test_accuracy"] <= 1.0
            assert record.metrics["memory_kib"] > 0.0
