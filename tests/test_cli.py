"""Unit tests for the command-line interface (repro.cli)."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from repro.cli import (
    _int_list,
    _is_checkpoint_path,
    _settings,
    _spec_from_args,
    build_parser,
    main,
)
from repro.eval.sweep import MODEL_DEFAULTS, SweepSpec
from repro.io.checkpoint import load_checkpoint, read_manifest
from repro.io.registry import ArtifactRegistry
from repro.runtime.config import ServeConfig
from repro.runtime.online import OnlineConfig
from repro.runtime.server import DRAIN_TIMEOUT_S, ModelServer
from repro.runtime.workers import WorkerSupervisor


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"
        assert args.dataset == "mnist"
        assert args.scale == pytest.approx(0.02)

    def test_train_arguments(self):
        args = build_parser().parse_args(
            [
                "train",
                "--dataset",
                "fmnist",
                "--model",
                "memhd",
                "--dimension",
                "64",
                "--columns",
                "32",
                "--epochs",
                "3",
            ]
        )
        assert args.model == "memhd"
        assert args.dimension == 64
        assert args.columns == 32

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "notamodel"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--dataset", "cifar"])

    def test_int_list_parsing(self):
        assert _int_list("64,128,256") == [64, 128, 256]
        with pytest.raises(Exception):
            _int_list("64,abc")
        with pytest.raises(Exception):
            _int_list(",")

    def test_map_partition_list(self):
        args = build_parser().parse_args(["map", "--partitions", "2,4"])
        assert args.partitions == [2, 4]

    def test_predict_defaults(self):
        args = build_parser().parse_args(["predict"])
        assert args.command == "predict"
        assert args.engine == "packed"
        assert args.batch_size == 1024
        assert args.workers == 1

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_model_defaults_are_model_defaults(self, command):
        """Every hyperparameter is declared once, in MODEL_DEFAULTS."""
        args = build_parser().parse_args([command])
        for name, default in MODEL_DEFAULTS.items():
            if (command, name) == ("train", "epochs"):
                continue  # the one deliberate CLI departure, checked below
            assert getattr(args, name) == default, name
        assert build_parser().parse_args(["train"]).epochs == 20

    def test_map_takes_no_sampling_options(self):
        # The mapping analysis reads the dataset profile, not samples.
        for flag in ("--scale", "--seed"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["map", flag, "1"])
            assert excinfo.value.code == 2

    def test_bare_sweep_run_is_the_default_spec(self):
        """A bare `sweep run` expands the same grid as an empty --spec."""
        for sub in ("run", "status"):
            args = build_parser().parse_args(["sweep", sub])
            assert _spec_from_args(args) == SweepSpec() == SweepSpec.from_dict({})

    @pytest.mark.parametrize(
        "flag, value, field, expected",
        [
            ("--models", "memhd,quanthd", "models", ("memhd", "quanthd")),
            ("--datasets", "fmnist", "datasets", ("fmnist",)),
            ("--dimensions", "32,64", "dimensions", (32, 64)),
            ("--columns", "16", "columns", (16,)),
            ("--engines", "float,packed", "engines", ("float", "packed")),
            ("--cluster-ratios", "0.5", "cluster_ratios", (0.5,)),
            ("--noise", "0,0.05", "bit_flip_probabilities", (0.0, 0.05)),
            ("--adc-bits", "4,ideal", "adc_bits", (4, None)),
            ("--scale", "0.01", "scale", 0.01),
            ("--epochs", "2", "epochs", 2),
            ("--learning-rate", "0.1", "learning_rate", 0.1),
            ("--id-levels", "8", "id_levels", 8),
            ("--init", "random", "init_method", "random"),
            ("--seed", "9", "seed", 9),
            ("--kind", "serving-load", "kind", "serving-load"),
            ("--serving-concurrency", "2,4", "serving_concurrency", (2, 4)),
            ("--serving-workers", "2", "serving_workers", (2,)),
            ("--serving-batch", "4", "serving_batch", (4,)),
            ("--serving-modes", "closed,open", "serving_modes", ("closed", "open")),
            ("--serving-requests", "8", "serving_requests", 8),
            ("--serving-rate", "5", "serving_rate", 5.0),
        ],
    )
    def test_sweep_flag_sets_its_spec_field(self, flag, value, field, expected):
        argv = ["sweep", "run", flag, value]
        if field == "serving_modes":
            argv += ["--serving-rate", "5"]  # open loop needs a rate
        spec = _spec_from_args(build_parser().parse_args(argv))
        assert getattr(spec, field) == expected != getattr(SweepSpec(), field)

    def test_sweep_flags_cover_every_spec_field(self):
        args = build_parser().parse_args(["sweep", "run"])
        for field in dataclasses.fields(SweepSpec):
            assert hasattr(args, field.name), field.name

    def test_bare_online_flags_are_online_config(self):
        args = build_parser().parse_args(["serve", "--models", "m", "--online"])
        assert _settings(OnlineConfig, args) == OnlineConfig()

    @pytest.mark.parametrize(
        "flag, value, field, expected",
        [
            ("--promote-threshold", "0.5", "promote_threshold", 0.5),
            ("--promote-margin", "0.1", "promote_margin", 0.1),
            ("--min-feedback", "8", "min_feedback", 8),
            ("--feedback-buffer", "64", "buffer_size", 64),
            ("--shadow-interval", "0.05", "interval_s", 0.05),
            ("--eval-fraction", "0.125", "eval_fraction", 0.125),
            ("--eval-window", "16", "eval_window", 16),
            ("--online-lr", "0.5", "learning_rate", 0.5),
            ("--online-results", "drift.jsonl", "results_path", "drift.jsonl"),
        ],
    )
    def test_online_flag_sets_its_config_field(self, flag, value, field, expected):
        argv = ["serve", "--models", "m", "--online", flag, value]
        online = _settings(OnlineConfig, build_parser().parse_args(argv))
        assert expected != getattr(OnlineConfig(), field)
        assert online == dataclasses.replace(OnlineConfig(), **{field: expected})

    def test_predict_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "--engine", "quantum"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--load", "mnist-memhd"])
        assert args.command == "serve"
        assert args.load == "mnist-memhd"
        assert args.host == "127.0.0.1"
        assert args.port == 8000
        assert args.engine == "packed"
        assert args.max_batch_size == 64
        assert args.max_wait_ms == 0.0
        assert args.queue_depth == 128
        assert args.batching

    def test_serve_multi_model_flags(self):
        args = build_parser().parse_args(
            ["serve", "--models", "a:latest,b:v3", "--max-batch", "32",
             "--max-wait-ms", "1.5", "--queue-depth", "16", "--no-batching"]
        )
        assert args.models == ["a:latest", "b:v3"]
        assert args.max_batch_size == 32
        assert args.max_wait_ms == 1.5
        assert args.queue_depth == 16
        assert not args.batching

    def test_serve_defaults_are_serve_config_defaults(self):
        """Every serving setting is declared once, in ServeConfig."""
        args = build_parser().parse_args(["serve", "--load", "x"])
        defaults = ServeConfig()
        for field in dataclasses.fields(ServeConfig):
            if field.name == "engine":
                continue  # the one deliberate CLI departure, checked below
            assert getattr(args, field.name) == getattr(defaults, field.name), (
                field.name
            )
        assert (args.engine, defaults.engine) == ("packed", "float")
        # --drain-timeout is not a ServeConfig field; its one declaration
        # is the server's, shared by the supervisor and ModelServer.drain.
        assert args.drain_timeout == DRAIN_TIMEOUT_S
        supervisor = inspect.signature(WorkerSupervisor).parameters["drain_timeout"]
        drain = inspect.signature(ModelServer.drain).parameters["timeout"]
        assert supervisor.default == drain.default == DRAIN_TIMEOUT_S

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--max-wait-ms", "inf", "max_wait_ms"),
            ("--max-wait-ms", "nan", "max_wait_ms"),
            ("--max-wait-ms", "-1", "max_wait_ms"),
            ("--max-batch", "0", "max_batch_size"),
            ("--queue-depth", "0", "queue_depth"),
            ("--prune-topk", "0", "prune_topk"),
        ],
    )
    def test_serve_rejects_bad_settings(self, flag, value, field, capsys):
        # Rejected before any checkpoint is looked up.
        assert main(["serve", "--load", "ghost", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert field in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--pipeline-threads", "2"],
            ["--batch-size", "64"],
            ["--mapped"],
            ["--no-mapped"],
        ],
    )
    def test_serve_no_longer_accepts_removed_knobs(self, flags):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--load", "x", *flags])
        assert excinfo.value.code == 2

    def test_serve_requires_load_or_models(self, capsys):
        # Parsing succeeds (either flag satisfies the requirement) but
        # running with neither is a usage error.
        args = build_parser().parse_args(["serve"])
        assert args.load is None and args.models is None
        assert main(["serve"]) == 2
        assert "--load" in capsys.readouterr().err

    def test_loadtest_defaults(self):
        args = build_parser().parse_args(["loadtest"])
        assert args.command == "loadtest"
        assert args.mode == "closed"
        assert args.concurrency == 32
        assert args.batch == 1
        assert not args.fail_on_error

    def test_loadtest_unreachable_server_is_an_error(self, capsys):
        # Port 1 is essentially never listening; the command must fail
        # cleanly (exit 2) rather than traceback.
        assert main(
            ["loadtest", "--url", "http://127.0.0.1:1", "--duration", "0.2",
             "--concurrency", "1"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_models_subcommands(self):
        args = build_parser().parse_args(["models", "list"])
        assert args.models_command == "list"
        args = build_parser().parse_args(["models", "show", "demo:v1"])
        assert args.spec == "demo:v1"
        args = build_parser().parse_args(["models", "prune", "--keep", "1"])
        assert args.keep == 1
        with pytest.raises(SystemExit):
            build_parser().parse_args(["models"])

    def test_checkpoint_spec_classification(self, tmp_path, monkeypatch):
        assert _is_checkpoint_path("model.npz")
        assert _is_checkpoint_path("some/dir/ckpt")
        assert _is_checkpoint_path(str(tmp_path / "anything"))
        assert not _is_checkpoint_path("mnist-memhd:v1")
        # Classification is by spelling only: a same-named file in the cwd
        # must not flip a registry name into a path spec.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mnist-memhd").write_text("decoy")
        assert not _is_checkpoint_path("mnist-memhd")


class TestCommands:
    def test_info_command(self, capsys):
        exit_code = main(["info", "--dataset", "isolet", "--scale", "0.1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "isolet" in output
        assert "num_classes" in output

    def test_train_memhd_command(self, capsys):
        exit_code = main(
            [
                "train",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--model",
                "memhd",
                "--dimension",
                "64",
                "--columns",
                "32",
                "--epochs",
                "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "MEMHD" in output
        assert "test_accuracy_%" in output

    def test_train_basichdc_command(self, capsys):
        exit_code = main(
            [
                "train",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--model",
                "basichdc",
                "--dimension",
                "128",
                "--epochs",
                "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "BasicHDC" in output

    def test_train_save_checkpoint_file(self, tmp_path, capsys):
        path = tmp_path / "model.npz"
        exit_code = main(
            [
                "train",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--model",
                "memhd",
                "--dimension",
                "64",
                "--columns",
                "16",
                "--epochs",
                "1",
                "--save",
                str(path),
            ]
        )
        assert exit_code == 0
        assert "saved checkpoint to" in capsys.readouterr().out
        manifest = read_manifest(path)
        assert manifest.model_class == "MEMHDModel"
        assert manifest.dataset["name"] == "mnist"
        assert 0.0 <= manifest.metrics["test_accuracy"] <= 1.0
        model = load_checkpoint(path)
        assert model.config.dimension == 64
        assert model.associative_memory.binary_memory.shape == (16, 64)

    def test_train_save_into_registry(self, tmp_path, capsys):
        store = tmp_path / "store"
        exit_code = main(
            [
                "train",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--model",
                "basichdc",
                "--dimension",
                "64",
                "--epochs",
                "1",
                "--save",
                "mnist-basic",
                "--store",
                str(store),
            ]
        )
        assert exit_code == 0
        assert "mnist-basic:v1" in capsys.readouterr().out
        registry = ArtifactRegistry(store)
        assert registry.tags("mnist-basic") == ["v1"]
        assert registry.inspect("mnist-basic").model_class == "BasicHDC"

    def test_predict_command_both_engines(self, capsys):
        exit_code = main(
            [
                "predict",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--dimension",
                "64",
                "--columns",
                "32",
                "--epochs",
                "1",
                "--engine",
                "both",
                "--batch-size",
                "32",
                "--repeats",
                "1",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "packed" in output
        assert "float" in output
        assert "queries_per_s" in output
        assert "speedup" in output

    def test_predict_command_packed_engine_with_workers(self, capsys):
        exit_code = main(
            [
                "predict",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--dimension",
                "64",
                "--columns",
                "32",
                "--epochs",
                "1",
                "--engine",
                "packed",
                "--batch-size",
                "16",
                "--workers",
                "2",
                "--repeats",
                "1",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "packed" in output

    def test_predict_command_rejects_unwired_model(self, capsys):
        # OnlineHD keeps a floating-point AM, so it is the one model family
        # the packed popcount engine cannot serve.
        exit_code = main(
            [
                "predict",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--model",
                "onlinehd",
                "--epochs",
                "1",
                "--engine",
                "packed",
            ]
        )
        assert exit_code == 2
        assert "packed engine" in capsys.readouterr().err

    def test_predict_command_packed_serves_searchd(self, capsys):
        # SearcHD gained a packed path; `--engine both` asserts bit-equality.
        exit_code = main(
            [
                "predict",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--model",
                "searchd",
                "--dimension",
                "64",
                "--epochs",
                "1",
                "--engine",
                "both",
                "--batch-size",
                "64",
                "--repeats",
                "1",
            ]
        )
        assert exit_code == 0
        assert "packed" in capsys.readouterr().out

    def test_predict_without_load_prints_retrain_notice(self, capsys):
        exit_code = main(
            [
                "predict",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--dimension",
                "64",
                "--columns",
                "32",
                "--epochs",
                "1",
                "--engine",
                "float",
                "--repeats",
                "1",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "retrained from scratch" in captured.err
        assert "--load" in captured.err

    def test_map_command_prints_table2(self, capsys):
        exit_code = main(["map", "--dataset", "mnist", "--rows", "128", "--cols", "128"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "MEMHD" in output
        assert "80.0x fewer cycles" in output

    def test_sweep_run_command(self, tmp_path, capsys):
        results = str(tmp_path / "r.jsonl")
        exit_code = main(
            [
                "sweep",
                "run",
                "--models",
                "memhd",
                "--datasets",
                "mnist",
                "--scale",
                "0.01",
                "--dimensions",
                "32,64",
                "--columns",
                "16",
                "--epochs",
                "1",
                "--results",
                results,
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "2 executed" in captured.out
        assert "test_accuracy_%" in captured.out
        # Re-running the identical spec resumes: nothing left to execute.
        assert main(["sweep", "run", "--models", "memhd", "--datasets", "mnist",
                     "--scale", "0.01", "--dimensions", "32,64", "--columns", "16",
                     "--epochs", "1", "--results", results]) == 0
        assert "0 executed" in capsys.readouterr().out


class TestPersistenceWorkflow:
    """train --save -> predict --load -> models, end to end through main()."""

    TRAIN_ARGS = [
        "train",
        "--dataset",
        "mnist",
        "--scale",
        "0.01",
        "--model",
        "memhd",
        "--dimension",
        "64",
        "--columns",
        "16",
        "--epochs",
        "1",
    ]

    @pytest.fixture()
    def store(self, tmp_path):
        return str(tmp_path / "store")

    @pytest.fixture()
    def saved(self, store, capsys):
        assert main(self.TRAIN_ARGS + ["--save", "ckpt", "--store", store]) == 0
        capsys.readouterr()
        return store

    def test_predict_load_skips_retraining(self, saved, capsys, monkeypatch):
        def poisoned_fit(self, *args, **kwargs):
            raise AssertionError("predict --load must not retrain")

        import repro.core.model

        monkeypatch.setattr(repro.core.model.MEMHDModel, "fit", poisoned_fit)
        exit_code = main(
            [
                "predict",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--load",
                "ckpt",
                "--store",
                saved,
                "--engine",
                "both",
                "--batch-size",
                "64",
                "--repeats",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "retrained from scratch" not in captured.err
        assert "queries_per_s" in captured.out

    def test_predict_load_is_bit_identical_to_in_process_model(self, saved):
        from repro.data.datasets import load_dataset

        registry = ArtifactRegistry(saved)
        model = registry.load("ckpt")
        dataset = load_dataset("mnist", scale=0.01, rng=0)
        for engine in ("float", "packed"):
            direct = model.predict(dataset.test_features, engine=engine)
            reloaded = load_checkpoint(registry.resolve("ckpt")).predict(
                dataset.test_features, engine=engine
            )
            assert np.array_equal(direct, reloaded)

    def test_predict_load_missing_checkpoint_fails(self, store, capsys):
        exit_code = main(
            [
                "predict",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--load",
                "ghost",
                "--store",
                store,
                "--repeats",
                "1",
            ]
        )
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_predict_load_warns_on_dataset_mismatch(self, saved, capsys):
        exit_code = main(
            [
                "predict",
                "--dataset",
                "mnist",
                "--scale",
                "0.02",
                "--load",
                "ckpt",
                "--store",
                saved,
                "--engine",
                "float",
                "--repeats",
                "1",
            ]
        )
        assert exit_code == 0
        assert "different" in capsys.readouterr().err

    def test_models_list_and_show(self, saved, capsys):
        assert main(["models", "list", "--store", saved]) == 0
        output = capsys.readouterr().out
        assert "ckpt:v1" in output
        assert "MEMHD" in output
        assert main(["models", "show", "ckpt", "--store", saved]) == 0
        output = capsys.readouterr().out
        assert '"model_class": "MEMHDModel"' in output

    def test_models_list_empty_store(self, store, capsys):
        assert main(["models", "list", "--store", store]) == 0
        assert "no checkpoints" in capsys.readouterr().out

    def test_models_show_unknown_fails(self, store, capsys):
        assert main(["models", "show", "ghost", "--store", store]) == 2
        assert "error:" in capsys.readouterr().err

    def test_models_prune(self, saved, capsys):
        for _ in range(3):
            assert main(self.TRAIN_ARGS + ["--save", "ckpt", "--store", saved]) == 0
        capsys.readouterr()
        assert main(["models", "prune", "--keep", "1", "--store", saved]) == 0
        output = capsys.readouterr().out
        assert "pruned 3 checkpoint(s); 1 kept" in output
        registry = ArtifactRegistry(saved)
        assert len(registry.tags("ckpt")) == 1

    def test_serve_command_rejects_missing_checkpoint(self, store, capsys):
        exit_code = main(["serve", "--load", "ghost", "--store", store])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_save_and_load_path_without_npz_suffix(self, tmp_path, capsys):
        spec = str(tmp_path / "nested" / "model")
        exit_code = main(self.TRAIN_ARGS + ["--save", spec])
        assert exit_code == 0
        # numpy appends .npz; the CLI must print (and reload by) the real path.
        assert f"saved checkpoint to {spec}.npz" in capsys.readouterr().out
        exit_code = main(
            [
                "predict",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--load",
                spec,
                "--engine",
                "float",
                "--repeats",
                "1",
            ]
        )
        assert exit_code == 0
        assert "retrained from scratch" not in capsys.readouterr().err

    def test_serve_command_reports_bind_failure(self, saved, capsys):
        import socket

        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            exit_code = main(
                ["serve", "--load", "ckpt", "--store", saved, "--port", str(port)]
            )
        finally:
            blocker.close()
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err


class TestErrorPaths:
    """Exit codes and stderr messages of the failure modes users hit."""

    def test_unknown_model_name_rejected_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--model", "notamodel"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "notamodel" in err

    def test_predict_load_corrupt_checkpoint_manifest(self, tmp_path, capsys):
        """A checkpoint whose manifest cannot be read fails with exit 2."""
        bad = tmp_path / "corrupt.npz"
        bad.write_bytes(b"PK\x03\x04 this is not a valid checkpoint archive")
        exit_code = main(
            [
                "predict",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--load",
                str(bad),
                "--repeats",
                "1",
            ]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "retrained from scratch" not in err

    def test_predict_load_tampered_manifest_json(self, tmp_path, capsys):
        """A structurally-valid archive with manifest garbage also exits 2."""
        import numpy as np

        bad = tmp_path / "tampered.npz"
        np.savez(bad, __manifest__=np.frombuffer(b"{not json", dtype=np.uint8))
        exit_code = main(
            [
                "predict",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--load",
                str(bad),
                "--repeats",
                "1",
            ]
        )
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_run_empty_grid(self, tmp_path, capsys):
        """A grid where every cell is unrealizable must refuse to run."""
        exit_code = main(
            [
                "sweep",
                "run",
                "--models",
                "onlinehd",
                "--engines",
                "packed",
                "--dimensions",
                "32",
                "--results",
                str(tmp_path / "r.jsonl"),
            ]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "empty grid" in err
        assert not (tmp_path / "r.jsonl").exists()

    def test_models_show_missing_tag(self, tmp_path, capsys):
        """`models show name:tag` on a tag that was never saved exits 2."""
        store = str(tmp_path / "store")
        assert main(
            [
                "train",
                "--dataset",
                "mnist",
                "--scale",
                "0.01",
                "--dimension",
                "64",
                "--columns",
                "16",
                "--epochs",
                "1",
                "--save",
                "demo",
                "--store",
                store,
            ]
        ) == 0
        capsys.readouterr()
        exit_code = main(["models", "show", "demo:v99", "--store", store])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "demo:v99" in err


class TestSweepCLI:
    """The sweep subcommands end to end through main()."""

    RUN_ARGS = [
        "sweep",
        "run",
        "--models",
        "memhd,basichdc",
        "--datasets",
        "mnist",
        "--scale",
        "0.01",
        "--dimensions",
        "32",
        "--columns",
        "16",
        "--engines",
        "float,packed",
        "--epochs",
        "1",
        "--seed",
        "5",
    ]

    def test_smoke_preset_runs(self, tmp_path, capsys):
        results = str(tmp_path / "smoke.jsonl")
        assert main(["sweep", "run", "--smoke", "--results", results]) == 0
        out = capsys.readouterr().out
        assert "8 cell(s): 8 executed" in out

    def test_status_reports_pending_and_completed(self, tmp_path, capsys):
        results = str(tmp_path / "r.jsonl")
        assert main(self.RUN_ARGS + ["--results", results, "--max-jobs", "1"]) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "status"] + self.RUN_ARGS[2:] + ["--results", results]
        ) == 0
        out = capsys.readouterr().out
        assert "4 cell(s), 1 completed, 3 pending" in out

    def test_report_renders_table_and_heatmap(self, tmp_path, capsys):
        results = str(tmp_path / "r.jsonl")
        assert main(self.RUN_ARGS + ["--results", results]) == 0
        capsys.readouterr()
        assert main(["sweep", "report", "--results", results, "--heatmap"]) == 0
        out = capsys.readouterr().out
        assert "test_accuracy_%" in out
        assert "D \\ C" in out

    def test_report_empty_store(self, tmp_path, capsys):
        assert main(["sweep", "report", "--results", str(tmp_path / "x.jsonl")]) == 0
        assert "no results" in capsys.readouterr().out

    def test_diff_clean_and_drifted(self, tmp_path, capsys):
        import json

        left = str(tmp_path / "left.jsonl")
        right = str(tmp_path / "right.jsonl")
        assert main(self.RUN_ARGS + ["--results", left]) == 0
        assert main(self.RUN_ARGS + ["--results", right]) == 0
        capsys.readouterr()
        assert main(["sweep", "diff", left, right]) == 0
        assert "identical" in capsys.readouterr().out

        # Inject a metric change: diff must flag it and exit 1.
        lines = [json.loads(line) for line in open(right)]
        lines[0]["metrics"]["test_accuracy"] += 0.5
        with open(right, "w") as handle:
            handle.write("\n".join(json.dumps(line) for line in lines) + "\n")
        assert main(["sweep", "diff", left, right]) == 1
        assert "test_accuracy" in capsys.readouterr().out

    def test_diff_missing_stores_are_clean_no_records(self, tmp_path, capsys):
        """Missing/empty stores diff cleanly (exit 0) instead of erroring."""
        left = str(tmp_path / "ghost_a.jsonl")
        right = str(tmp_path / "ghost_b.jsonl")
        assert main(["sweep", "diff", left, right]) == 0
        out = capsys.readouterr().out
        assert "has no records" in out
        assert "0 matching" in out
        assert "identical" in out

    def test_diff_populated_vs_missing_store_reports_drift(self, tmp_path, capsys):
        """One-sided records are real drift (exit 1), not an error (exit 2)."""
        present = str(tmp_path / "a.jsonl")
        assert main(["sweep", "run", "--smoke", "--results", present]) == 0
        capsys.readouterr()
        exit_code = main(["sweep", "diff", present, str(tmp_path / "ghost.jsonl")])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert "only-left" in captured.out
        assert "error:" not in captured.err

    def test_status_missing_store_exits_0(self, tmp_path, capsys):
        """sweep status on a store that was never written is a clean report."""
        missing = str(tmp_path / "never.jsonl")
        assert main(["sweep", "status", "--smoke", "--results", missing]) == 0
        out = capsys.readouterr().out
        assert "0 stored cell(s)" in out
        assert "pending" in out

    def test_spec_file_round_trip(self, tmp_path, capsys):
        import json

        from repro.eval.sweep import SweepSpec

        spec = SweepSpec(
            models=("basichdc",), dimensions=(32,), scale=0.01, epochs=1, seed=9
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        results = str(tmp_path / "r.jsonl")
        assert main(
            ["sweep", "run", "--spec", str(spec_path), "--results", results]
        ) == 0
        assert "1 executed" in capsys.readouterr().out

    def test_save_best_lands_in_registry(self, tmp_path, capsys):
        results = str(tmp_path / "r.jsonl")
        store = str(tmp_path / "registry")
        assert main(
            self.RUN_ARGS
            + ["--results", results, "--save-best", "sweep-best", "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert "saved best cell" in out
        assert "sweep-best:v1" in out
        registry = ArtifactRegistry(store)
        manifest = registry.inspect("sweep-best")
        assert manifest.metrics["test_accuracy"] == pytest.approx(
            max(
                json.loads(line)["metrics"]["test_accuracy"]
                for line in open(results)
                if "test_accuracy" in json.loads(line)["metrics"]
            )
        )
