"""Checkpoint round-trip and validation tests (repro.io.checkpoint)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    BasicHDC,
    BasicHDCConfig,
    LeHDC,
    LeHDCConfig,
    OnlineHD,
    OnlineHDConfig,
    QuantHD,
    QuantHDConfig,
    SearcHD,
    SearcHDConfig,
)
from repro.core.associative_memory import MultiCentroidAM
from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel
from repro.hdc.packed import PackedAM
from repro.io.checkpoint import (
    ARRAY_PREFIX,
    MAGIC,
    MANIFEST_KEY,
    SCHEMA_VERSION,
    CheckpointError,
    CheckpointManifest,
    checkpoint_path,
    content_fingerprint,
    dataset_fingerprint,
    load_checkpoint,
    load_checkpoint_with_manifest,
    load_mapped,
    load_mapped_with_manifest,
    read_manifest,
    save_checkpoint,
)


def _fit_model(kind: str, dataset, dimension: int = 48):
    """Train a tiny instance of one model family on the shared dataset."""
    f, k = dataset.num_features, dataset.num_classes
    if kind == "memhd":
        model = MEMHDModel(
            f,
            k,
            MEMHDConfig(dimension=dimension, columns=max(12, k), epochs=2, seed=3),
            rng=3,
        )
    elif kind == "basichdc":
        model = BasicHDC(
            f, k, BasicHDCConfig(dimension=dimension, refine_epochs=2, seed=3)
        )
    elif kind == "quanthd":
        model = QuantHD(
            f, k, QuantHDConfig(dimension=dimension, num_levels=8, epochs=2, seed=3)
        )
    elif kind == "searchd":
        model = SearcHD(
            f,
            k,
            SearcHDConfig(
                dimension=dimension, num_models=4, num_levels=8, epochs=1, seed=3
            ),
        )
    elif kind == "lehdc":
        model = LeHDC(
            f, k, LeHDCConfig(dimension=dimension, num_levels=8, epochs=2, seed=3)
        )
    elif kind == "onlinehd":
        model = OnlineHD(f, k, OnlineHDConfig(dimension=dimension, epochs=2, seed=3))
    else:
        raise ValueError(kind)
    model.fit(dataset.train_features, dataset.train_labels)
    return model


def _rewrite(source, destination, mutate=None, add=None, drop=()):
    """Copy a checkpoint, optionally tampering with manifest or arrays."""
    with np.load(source) as archive:
        payload = {key: archive[key] for key in archive.files if key not in drop}
    if mutate is not None:
        manifest = json.loads(payload[MANIFEST_KEY].tobytes().decode("utf-8"))
        mutate(manifest)
        payload[MANIFEST_KEY] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
    if add:
        payload.update(add)
    np.savez_compressed(destination, **payload)
    return destination


ALL_KINDS = ("memhd", "basichdc", "quanthd", "searchd", "lehdc", "onlinehd")
PACKED_KINDS = ("memhd", "basichdc", "quanthd")


class TestModelRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_predictions_bit_identical(self, kind, tiny_dataset, tmp_path):
        model = _fit_model(kind, tiny_dataset)
        path = tmp_path / f"{kind}.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert type(restored) is type(model)
        assert np.array_equal(
            model.predict(tiny_dataset.test_features),
            restored.predict(tiny_dataset.test_features),
        )

    @pytest.mark.parametrize("kind", PACKED_KINDS)
    @pytest.mark.parametrize("dimension", [48, 37])
    def test_both_engines_survive_round_trip(
        self, kind, dimension, tiny_dataset, tmp_path
    ):
        """Float and packed engines stay bit-exact, including odd tail dims."""
        model = _fit_model(kind, tiny_dataset, dimension=dimension)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        for engine in ("float", "packed"):
            assert np.array_equal(
                model.predict(tiny_dataset.test_features, engine=engine),
                restored.predict(tiny_dataset.test_features, engine=engine),
            ), engine

    def test_restored_model_can_keep_training(self, tiny_dataset, tmp_path):
        model = _fit_model("memhd", tiny_dataset)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        history = restored.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        assert history.epochs > 0

    def test_custom_idlevel_encoder_round_trips(self, tiny_dataset, tmp_path):
        """Adopted-encoder hyperparameters (value_range) survive the manifest."""
        from repro.hdc.encoders import IDLevelEncoder

        f, k = tiny_dataset.num_features, tiny_dataset.num_classes
        encoder = IDLevelEncoder(f, 48, num_levels=8, value_range=(0.0, 255.0), rng=3)
        model = QuantHD(
            f,
            k,
            QuantHDConfig(dimension=48, num_levels=8, epochs=1, seed=3),
            encoder=encoder,
        )
        scaled = tiny_dataset.train_features * 255.0
        model.fit(scaled, tiny_dataset.train_labels)
        path = tmp_path / "custom.npz"
        manifest = save_checkpoint(model, path)
        assert manifest.encoder["value_high"] == 255.0
        restored = load_checkpoint(path)
        queries = tiny_dataset.test_features * 255.0
        assert np.array_equal(model.predict(queries), restored.predict(queries))

    def test_custom_float_projection_encoder_round_trips(self, tiny_dataset, tmp_path):
        """A non-binary adopted projection must not be truncated to int8."""
        from repro.hdc.encoders import RandomProjectionEncoder

        f, k = tiny_dataset.num_features, tiny_dataset.num_classes
        encoder = RandomProjectionEncoder(f, 48, binary_projection=False, rng=3)
        model = BasicHDC(
            f,
            k,
            BasicHDCConfig(dimension=48, refine_epochs=1, seed=3),
            encoder=encoder,
        )
        model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        path = tmp_path / "floatproj.npz"
        manifest = save_checkpoint(model, path)
        assert manifest.encoder["binary_projection"] is False
        restored = load_checkpoint(path)
        assert restored.encoder.projection.dtype == np.float64
        assert np.array_equal(
            model.predict(tiny_dataset.test_features),
            restored.predict(tiny_dataset.test_features),
        )

    def test_load_with_manifest_single_open(self, tiny_dataset, tmp_path):
        model = _fit_model("memhd", tiny_dataset)
        path = tmp_path / "model.npz"
        written = save_checkpoint(model, path)
        restored, manifest = load_checkpoint_with_manifest(path)
        assert manifest == written
        assert np.array_equal(
            model.predict(tiny_dataset.test_features),
            restored.predict(tiny_dataset.test_features),
        )

    def test_checkpoint_file_honors_umask(self, trained_memhd, tmp_path):
        """Not the 0600 mkstemp mode: ordinary umask-derived permissions."""
        from repro.io.checkpoint import _UMASK

        model, _ = trained_memhd
        path = tmp_path / "mode.npz"
        save_checkpoint(model, path)
        assert (path.stat().st_mode & 0o777) == (0o666 & ~_UMASK)

    def test_config_round_trips_exactly(self, tiny_dataset, tmp_path):
        model = _fit_model("memhd", tiny_dataset)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert restored.config == model.config

    def test_unfitted_model_refuses_to_save(self, tiny_dataset, tmp_path):
        model = MEMHDModel(
            tiny_dataset.num_features,
            tiny_dataset.num_classes,
            MEMHDConfig(dimension=32, columns=8, seed=0),
        )
        with pytest.raises(RuntimeError):
            save_checkpoint(model, tmp_path / "unfit.npz")

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot checkpoint"):
            save_checkpoint(object(), tmp_path / "nope.npz")

    def test_save_appends_npz_suffix(self, trained_memhd, tmp_path):
        """numpy appends .npz silently; checkpoint_path makes that explicit."""
        model, _ = trained_memhd
        spec = tmp_path / "model"
        save_checkpoint(model, spec)
        resolved = checkpoint_path(spec)
        assert resolved == str(spec) + ".npz"
        assert load_checkpoint(resolved) is not None

    def test_save_creates_parent_directories(self, trained_memhd, tmp_path):
        model, _ = trained_memhd
        nested = tmp_path / "a" / "b" / "model.npz"
        save_checkpoint(model, nested)
        assert nested.is_file()

    def test_save_is_atomic(self, trained_memhd, tmp_path, monkeypatch):
        """A failed save leaves no scratch file and no truncated checkpoint."""
        model, _ = trained_memhd
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        good = path.read_bytes()

        def explode(stream, **payload):
            stream.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", explode)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, path)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]


class TestBareMemoryRoundTrip:
    def test_multicentroid_am(self, trained_memhd, tmp_path):
        model, _ = trained_memhd
        am = model.associative_memory
        path = tmp_path / "am.npz"
        save_checkpoint(am, path)
        restored = load_checkpoint(path)
        assert isinstance(restored, MultiCentroidAM)
        queries = (np.arange(am.dimension * 5) % 2).reshape(5, -1)
        for packed in (False, True):
            assert np.array_equal(
                am.predict(queries, packed=packed),
                restored.predict(queries, packed=packed),
            )
        assert np.array_equal(am.binary_memory, restored.binary_memory)
        assert np.array_equal(am.fp_memory, restored.fp_memory)

    def test_packed_am(self, trained_memhd, tmp_path):
        model, _ = trained_memhd
        packed = model.associative_memory.packed()
        path = tmp_path / "packed.npz"
        save_checkpoint(packed, path)
        restored = load_checkpoint(path)
        assert isinstance(restored, PackedAM)
        assert restored.dimension == packed.dimension
        assert restored.memory.alphabet == packed.memory.alphabet
        assert np.array_equal(restored.memory.words, packed.memory.words)
        queries = (np.arange(packed.dimension * 4) % 2).reshape(4, -1)
        assert np.array_equal(packed.scores(queries), restored.scores(queries))


class TestManifest:
    def test_manifest_contents(self, tiny_dataset, tmp_path):
        model = _fit_model("memhd", tiny_dataset)
        path = tmp_path / "model.npz"
        written = save_checkpoint(
            model, path, dataset=tiny_dataset, metrics={"test_accuracy": 0.9}
        )
        manifest = read_manifest(path)
        assert manifest == written
        assert manifest.schema_version == SCHEMA_VERSION
        assert manifest.model_class == "MEMHDModel"
        assert manifest.model_name == "MEMHD"
        assert manifest.num_features == tiny_dataset.num_features
        assert manifest.num_classes == tiny_dataset.num_classes
        assert manifest.metrics == {"test_accuracy": 0.9}
        assert manifest.dataset["name"] == tiny_dataset.name
        assert len(manifest.dataset["sha256"]) == 64
        assert set(manifest.arrays) == {
            "encoder_projection",
            "fp_memory",
            "binary_memory",
            "column_classes",
        }
        spec = manifest.arrays["binary_memory"]
        assert spec["dtype"] == "int8"
        assert spec["shape"] == [model.config.columns, model.config.dimension]

    def test_fingerprint_is_stable_and_sensitive(self, tiny_dataset):
        first = dataset_fingerprint(tiny_dataset)
        second = dataset_fingerprint(tiny_dataset)
        assert first == second
        mutated = type(tiny_dataset)(
            name=tiny_dataset.name,
            train_features=tiny_dataset.train_features + 1e-9,
            train_labels=tiny_dataset.train_labels,
            test_features=tiny_dataset.test_features,
            test_labels=tiny_dataset.test_labels,
        )
        assert dataset_fingerprint(mutated)["sha256"] != first["sha256"]

    def test_manifest_json_rejects_wrong_magic(self):
        payload = {"magic": "something-else", "schema_version": 1}
        with pytest.raises(CheckpointError, match="magic"):
            CheckpointManifest.from_json(json.dumps(payload))


class TestContentFingerprint:
    """content_fingerprint: content-level identity across re-saves."""

    def test_stable_across_resaves_of_same_model(self, tiny_dataset, tmp_path):
        model = _fit_model("memhd", tiny_dataset)
        first = save_checkpoint(model, tmp_path / "a.npz")
        # Force a different creation timestamp on the second save so the
        # files genuinely differ byte-for-byte.
        second = _rewrite(
            tmp_path / "a.npz",
            tmp_path / "b.npz",
            mutate=lambda m: m.update(created_unix=m["created_unix"] + 3600),
        )
        assert first.created_unix != read_manifest(second).created_unix
        assert (tmp_path / "a.npz").read_bytes() != second.read_bytes()
        assert content_fingerprint(tmp_path / "a.npz") == content_fingerprint(second)

    def test_sensitive_to_weight_changes(self, tiny_dataset, tmp_path):
        model = _fit_model("memhd", tiny_dataset)
        save_checkpoint(model, tmp_path / "a.npz")
        model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        save_checkpoint(model, tmp_path / "b.npz")
        assert content_fingerprint(tmp_path / "a.npz") != content_fingerprint(
            tmp_path / "b.npz"
        )

    def test_sensitive_to_manifest_changes(self, tiny_dataset, tmp_path):
        model = _fit_model("memhd", tiny_dataset)
        save_checkpoint(model, tmp_path / "a.npz")
        tweaked = _rewrite(
            tmp_path / "a.npz",
            tmp_path / "b.npz",
            mutate=lambda m: m.update(metrics={"test_accuracy": 0.99}),
        )
        assert content_fingerprint(tmp_path / "a.npz") != content_fingerprint(tweaked)

    def test_is_hex_digest(self, tiny_dataset, tmp_path):
        model = _fit_model("memhd", tiny_dataset)
        save_checkpoint(model, tmp_path / "a.npz")
        digest = content_fingerprint(tmp_path / "a.npz")
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(CheckpointError):
            content_fingerprint(path)


class TestValidation:
    @pytest.fixture()
    def checkpoint(self, tiny_dataset, tmp_path):
        model = _fit_model("memhd", tiny_dataset)
        path = tmp_path / "good.npz"
        save_checkpoint(model, path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.npz")

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, checkpoint, tmp_path):
        clipped = tmp_path / "clipped.npz"
        clipped.write_bytes(checkpoint.read_bytes()[:100])
        with pytest.raises(CheckpointError):
            load_checkpoint(clipped)

    def test_npz_without_manifest_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez_compressed(path, some_array=np.zeros(3))
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(path)

    def test_newer_schema_version_rejected(self, checkpoint, tmp_path):
        def bump(manifest):
            manifest["schema_version"] = SCHEMA_VERSION + 1

        path = _rewrite(checkpoint, tmp_path / "future.npz", mutate=bump)
        with pytest.raises(CheckpointError, match="newer"):
            load_checkpoint(path)

    def test_invalid_schema_version_rejected(self, checkpoint, tmp_path):
        def clobber(manifest):
            manifest["schema_version"] = 0

        path = _rewrite(checkpoint, tmp_path / "zero.npz", mutate=clobber)
        with pytest.raises(CheckpointError, match="schema version"):
            load_checkpoint(path)

    def test_unknown_model_class_rejected(self, checkpoint, tmp_path):
        def rename(manifest):
            manifest["model_class"] = "TotallyNewModel"

        path = _rewrite(checkpoint, tmp_path / "unknown.npz", mutate=rename)
        with pytest.raises(CheckpointError, match="unknown model class"):
            load_checkpoint(path)

    def test_expected_class_mismatch(self, checkpoint):
        with pytest.raises(CheckpointError, match="expected"):
            load_checkpoint(checkpoint, expected_class="QuantHD")

    def test_missing_array_rejected(self, checkpoint, tmp_path):
        path = _rewrite(
            checkpoint,
            tmp_path / "missing.npz",
            drop=(ARRAY_PREFIX + "binary_memory",),
        )
        with pytest.raises(CheckpointError, match="missing arrays"):
            load_checkpoint(path)

    def test_extra_array_rejected_only_when_strict(self, checkpoint, tmp_path):
        path = _rewrite(
            checkpoint,
            tmp_path / "extra.npz",
            add={ARRAY_PREFIX + "surprise": np.zeros(4)},
        )
        with pytest.raises(CheckpointError, match="absent from its manifest"):
            load_checkpoint(path)
        assert load_checkpoint(path, strict=False) is not None

    def test_dtype_mismatch_rejected(self, checkpoint, tmp_path):
        def retype(manifest):
            manifest["arrays"]["binary_memory"]["dtype"] = "float32"

        path = _rewrite(checkpoint, tmp_path / "retyped.npz", mutate=retype)
        with pytest.raises(CheckpointError, match="dtype"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, checkpoint, tmp_path):
        def reshape(manifest):
            manifest["arrays"]["binary_memory"]["shape"] = [1, 1]

        path = _rewrite(checkpoint, tmp_path / "reshaped.npz", mutate=reshape)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path)

    def test_manifest_missing_required_field_rejected(self, checkpoint, tmp_path):
        def strip(manifest):
            del manifest["num_features"]

        path = _rewrite(checkpoint, tmp_path / "stripped.npz", mutate=strip)
        with pytest.raises(CheckpointError, match="missing fields"):
            load_checkpoint(path)

    def test_invalid_config_rejected(self, checkpoint, tmp_path):
        def poison(manifest):
            manifest["config"]["dimension"] = -5

        path = _rewrite(checkpoint, tmp_path / "badconfig.npz", mutate=poison)
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(path)

    def test_unknown_config_key_strict_vs_lenient(self, checkpoint, tmp_path):
        def extend(manifest):
            manifest["config"]["a_future_knob"] = True

        path = _rewrite(checkpoint, tmp_path / "futurecfg.npz", mutate=extend)
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(path)
        assert load_checkpoint(path, strict=False) is not None

    def test_manifest_magic_in_file(self, checkpoint):
        with np.load(checkpoint) as archive:
            manifest = json.loads(archive[MANIFEST_KEY].tobytes().decode("utf-8"))
        assert manifest["magic"] == MAGIC


class TestLoadMapped:
    """Zero-copy loader: mapped arrays must be byte-identical to eager ones."""

    @pytest.mark.parametrize("kind", PACKED_KINDS)
    @pytest.mark.parametrize("dimension", [48, 37])
    def test_mapped_matches_eager(self, kind, dimension, tiny_dataset, tmp_path):
        model = _fit_model(kind, tiny_dataset, dimension=dimension)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        eager = load_checkpoint(path)
        mapped = load_mapped(path)
        assert type(mapped) is type(eager)
        for engine in ("float", "packed"):
            assert np.array_equal(
                eager.predict(tiny_dataset.test_features, engine=engine),
                mapped.predict(tiny_dataset.test_features, engine=engine),
            ), engine

    def test_extraction_cache_layout_and_reuse(self, tiny_dataset, tmp_path):
        model = _fit_model("memhd", tiny_dataset)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        load_mapped(path)
        root = tmp_path / "model.npz.mapped"
        extractions = sorted(entry for entry in root.iterdir() if entry.is_dir())
        assert len(extractions) == 1
        marker = extractions[0] / "manifest.json"
        assert marker.exists()
        assert list(extractions[0].glob("*.npy"))
        stamps = {
            member.name: member.stat().st_mtime_ns
            for member in extractions[0].iterdir()
        }
        load_mapped(path)  # second load: pure cache hit, nothing rewritten
        assert stamps == {
            member.name: member.stat().st_mtime_ns
            for member in extractions[0].iterdir()
        }

    def test_extracted_files_honor_umask(self, tiny_dataset, tmp_path):
        """Every ``.npy`` and the marker get the checkpoint's umask mode."""
        from repro.io.checkpoint import _UMASK

        path = tmp_path / "model.npz"
        save_checkpoint(_fit_model("memhd", tiny_dataset), path)
        load_mapped(path)
        (extraction,) = (tmp_path / "model.npz.mapped").iterdir()
        files = list(extraction.iterdir())
        assert {member.suffix for member in files} == {".npy", ".json"}
        assert {member.stat().st_mode & 0o777 for member in files} == {0o666 & ~_UMASK}

    def test_rewritten_checkpoint_invalidates_cache(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(_fit_model("memhd", tiny_dataset), path)
        load_mapped(path)
        root = tmp_path / "model.npz.mapped"
        (old_extraction,) = (entry for entry in root.iterdir() if entry.is_dir())
        # Re-save a *different* model at the same path with a bumped mtime.
        save_checkpoint(_fit_model("memhd", tiny_dataset, dimension=64), path)
        os.utime(path, ns=(0, path.stat().st_mtime_ns + 1_000_000_000))
        restored = load_mapped(path)
        assert restored.config.dimension == 64
        (new_extraction,) = (entry for entry in root.iterdir() if entry.is_dir())
        assert new_extraction != old_extraction
        assert not old_extraction.exists(), "stale extraction must be pruned"

    def test_mapped_manifest_and_expected_class(self, tiny_dataset, tmp_path):
        model = _fit_model("memhd", tiny_dataset)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        _, mapped_manifest = load_mapped_with_manifest(path)
        assert mapped_manifest.to_json() == read_manifest(path).to_json()
        with pytest.raises(CheckpointError, match="expected a"):
            load_mapped(path, expected_class="BasicHDC")

    def test_mapped_arrays_are_read_only(self, tiny_dataset, tmp_path):
        """Mapped arrays are shared pages: in-place writes must be refused.

        (``fit`` on a mapped model still works -- training builds fresh
        private arrays -- so a stray write can never corrupt the shared
        extraction other workers are mapping.)
        """
        path = tmp_path / "model.npz"
        save_checkpoint(_fit_model("memhd", tiny_dataset), path)
        mapped = load_mapped(path)
        am = mapped._am
        for array in (am.binary_memory, am.fp_memory, am.column_classes):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            am.binary_memory[0, 0] = 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mapped(tmp_path / "absent.npz")

    @given(dimension=st.integers(min_value=17, max_value=96))
    @settings(max_examples=6, deadline=None)
    def test_mapped_bit_exact_any_dimension(
        self, dimension, tiny_dataset, tmp_path_factory
    ):
        """Property: eager/mapped equivalence holds at every D, odd tails
        included (packed words at D % 64 != 0 exercise the masked path)."""
        model = _fit_model("memhd", tiny_dataset, dimension=dimension)
        path = tmp_path_factory.mktemp("mapped-prop") / "model.npz"
        save_checkpoint(model, path)
        eager = load_checkpoint(path)
        mapped = load_mapped(path)
        for engine in ("float", "packed"):
            assert np.array_equal(
                eager.predict(tiny_dataset.test_features, engine=engine),
                mapped.predict(tiny_dataset.test_features, engine=engine),
            ), f"mapped != eager at D={dimension} ({engine})"
