"""Versioned, compressed checkpoints for every trainable model.

Training an HDC model is the expensive phase; inference is a handful of
popcounts.  This module makes the repository train-once/serve-forever by
persisting any fitted model -- :class:`repro.core.model.MEMHDModel`, the
five baselines, a bare :class:`repro.core.associative_memory.MultiCentroidAM`
or a :class:`repro.hdc.packed.PackedAM` -- into a single compressed
``.npz`` file that round-trips bit-exactly:

* every array the model needs at inference time (encoder codebooks, float
  shadow memories, 1-bit memories, packed ``uint64`` words) is stored
  verbatim, so a restored model predicts identically to the saved one on
  both the float and the packed engine;
* a JSON **manifest** rides inside the archive recording the schema
  version, the model class and configuration, dataset fingerprint,
  metrics, and a dtype/shape spec of every stored array;
* loading is **strict by default**: bad magic, schema versions from a
  newer library, unknown model classes, missing/extra arrays and
  dtype/shape mismatches all raise :class:`CheckpointError` instead of
  silently producing a subtly-wrong model.

File layout (one ``numpy.savez_compressed`` archive)::

    __manifest__        uint8 array holding the UTF-8 JSON manifest
    array__<name>.npy   one entry per model array (verbatim dtype/shape)

The format specification (manifest fields, versioning policy) lives in
``docs/architecture.md``.  The on-disk *naming* of checkpoints (named +
tagged artifacts, ``latest`` resolution, pruning) is layered on top by
:mod:`repro.io.registry`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from typing import Any, BinaryIO, Callable, Dict, Optional, Tuple, Type

import numpy as np

from repro.baselines.base import HDCClassifier
from repro.baselines.basic_hdc import BasicHDC, BasicHDCConfig
from repro.baselines.lehdc import LeHDC, LeHDCConfig
from repro.baselines.onlinehd import OnlineHD, OnlineHDConfig
from repro.baselines.quanthd import QuantHD, QuantHDConfig
from repro.baselines.searchd import SearcHD, SearcHDConfig
from repro.core.associative_memory import MultiCentroidAM
from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel
from repro.hdc.encoders import IDLevelEncoder, RandomProjectionEncoder
from repro.hdc.packed import PackedAM

#: Identifies a file as one of ours (stored in the manifest).
MAGIC = "memhd-repro-checkpoint"

#: Current checkpoint schema version.  Bumped on layout changes; loaders
#: accept any version ``<= SCHEMA_VERSION`` (older layouts are upgraded in
#: place when the schema evolves) and reject newer ones.
SCHEMA_VERSION = 1

#: Archive key holding the UTF-8 JSON manifest.
MANIFEST_KEY = "__manifest__"

#: Prefix of every model-array key inside the archive.
ARRAY_PREFIX = "array__"

#: Process umask, sampled once at import (under the import lock) because
#: os.umask() is a set-and-read global and flipping it per save would race
#: across threads.  Checkpoints are chmod-ed to ``0o666 & ~_UMASK``.
_UMASK = os.umask(0)
os.umask(_UMASK)

#: Checkpointable classifier families: class name -> (class, config class).
MODEL_REGISTRY: Dict[str, Tuple[Type[HDCClassifier], type]] = {
    "MEMHDModel": (MEMHDModel, MEMHDConfig),
    "BasicHDC": (BasicHDC, BasicHDCConfig),
    "QuantHD": (QuantHD, QuantHDConfig),
    "SearcHD": (SearcHD, SearcHDConfig),
    "LeHDC": (LeHDC, LeHDCConfig),
    "OnlineHD": (OnlineHD, OnlineHDConfig),
}

#: Checkpointable non-classifier objects (bare associative memories).
_AM_CLASSES = ("MultiCentroidAM", "PackedAM")


class CheckpointError(Exception):
    """A checkpoint could not be written, read or validated."""


def checkpoint_path(path) -> str:
    """Normalize a checkpoint destination to its on-disk ``.npz`` path.

    ``numpy.savez_compressed`` silently appends ``.npz`` to paths missing
    the suffix; this helper applies the same rule up front so callers
    always know (and can print / reload) the real file name.
    """
    text = os.fspath(path)
    return text if text.endswith(".npz") else text + ".npz"


def _library_version() -> str:
    from repro import __version__

    return __version__


@dataclasses.dataclass(frozen=True)
class CheckpointManifest:
    """Self-describing metadata stored inside every checkpoint.

    Attributes
    ----------
    schema_version:
        Layout version of the archive (see :data:`SCHEMA_VERSION`).
    model_class:
        Python class name of the stored object (a key of
        :data:`MODEL_REGISTRY`, ``"MultiCentroidAM"`` or ``"PackedAM"``).
    model_name:
        Human-readable family name (e.g. ``"MEMHD"``).
    config:
        JSON-able configuration mapping.  For classifiers this is the
        ``dataclasses.asdict`` of the model's config; for bare AMs it holds
        the constructor metadata (``num_classes``, quantization modes, ...).
    num_features / num_classes:
        Input dimensionality and label count (``num_features`` is ``None``
        for bare AMs, which never see raw features).
    arrays:
        Per-array spec mapping name to ``{"dtype": ..., "shape": [...]}``,
        cross-checked against the stored arrays on strict loads.
    library_version:
        ``repro.__version__`` that wrote the checkpoint.
    created_unix:
        POSIX timestamp of the save.
    dataset:
        Optional dataset fingerprint (see :func:`dataset_fingerprint`).
    metrics:
        Optional free-form metrics mapping (e.g. train/test accuracy).
    encoder:
        Encoder hyperparameters that are not part of the model config
        (``quantize_output``, ``binary_projection``, ``value_low`` /
        ``value_high``), captured so models built around a custom adopted
        encoder still restore bit-identically.  ``None`` for bare AMs.
    lineage:
        Optional incremental-checkpoint provenance: for checkpoints
        produced by folding online feedback into a parent artifact, this
        records (at minimum) the parent's resolved ``name:tag`` spec and
        the feedback counts that separate child from parent, so a
        promotion chain can be audited and rolled back tag by tag.
        ``None`` for from-scratch training checkpoints.  An optional
        field within ``schema_version`` 1: older readers drop it, older
        checkpoints default it to ``None``.
    """

    schema_version: int
    model_class: str
    model_name: str
    config: Dict[str, Any]
    num_features: Optional[int]
    num_classes: Optional[int]
    arrays: Dict[str, Dict[str, Any]]
    library_version: str
    created_unix: float
    dataset: Optional[Dict[str, Any]] = None
    metrics: Optional[Dict[str, Any]] = None
    encoder: Optional[Dict[str, Any]] = None
    lineage: Optional[Dict[str, Any]] = None

    def to_json(self) -> str:
        """Serialize the manifest (plus the format magic) to JSON."""
        payload = {"magic": MAGIC}
        payload.update(dataclasses.asdict(self))
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CheckpointManifest":
        """Parse and validate a manifest JSON payload.

        Raises
        ------
        CheckpointError
            On malformed JSON, wrong magic, or a schema version newer than
            this library understands.
        """
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CheckpointError(f"corrupted checkpoint manifest: {error}") from error
        if not isinstance(payload, dict) or payload.get("magic") != MAGIC:
            raise CheckpointError(
                "not a memhd-repro checkpoint (manifest magic mismatch)"
            )
        version = payload.get("schema_version")
        if not isinstance(version, int) or version < 1:
            raise CheckpointError(f"invalid checkpoint schema version: {version!r}")
        if version > SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint schema version {version} is newer than this "
                f"library supports (max {SCHEMA_VERSION}); upgrade memhd-repro"
            )
        payload.pop("magic")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            # Forward-compatible metadata additions within one schema
            # version are tolerated (dropped), never silently persisted.
            payload = {key: payload[key] for key in payload if key in known}
        required = {
            field.name
            for field in dataclasses.fields(cls)
            if field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        }
        missing = required - set(payload)
        if missing:
            raise CheckpointError(
                f"checkpoint manifest missing fields: {sorted(missing)}"
            )
        try:
            return cls(**payload)
        except TypeError as error:
            raise CheckpointError(f"malformed checkpoint manifest: {error}") from error

    def summary(self) -> Dict[str, Any]:
        """Compact single-row description (used by ``repro models list``)."""
        return {
            "model": self.model_name,
            "class": self.model_class,
            "features": self.num_features,
            "classes": self.num_classes,
            "version": self.library_version,
            "created": time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(self.created_unix)
            ),
        }


def dataset_fingerprint(dataset) -> Dict[str, Any]:
    """Fingerprint a :class:`repro.data.datasets.Dataset` for provenance.

    The fingerprint records the structural profile (name, feature/class
    counts, split sizes) plus a SHA-256 digest over the raw split arrays,
    so a checkpoint can later tell whether it is being served against the
    data it was trained on (``repro predict --load`` warns on mismatch).

    Parameters
    ----------
    dataset:
        Any object with ``train_features`` / ``train_labels`` /
        ``test_features`` / ``test_labels`` arrays and ``name`` /
        ``num_features`` / ``num_classes`` attributes.

    Returns
    -------
    dict
        JSON-able fingerprint mapping.
    """
    digest = hashlib.sha256()
    for split in (
        dataset.train_features,
        dataset.train_labels,
        dataset.test_features,
        dataset.test_labels,
    ):
        arr = np.ascontiguousarray(np.asarray(split))
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return {
        "name": str(dataset.name),
        "num_features": int(dataset.num_features),
        "num_classes": int(dataset.num_classes),
        "num_train": int(np.asarray(dataset.train_labels).shape[0]),
        "num_test": int(np.asarray(dataset.test_labels).shape[0]),
        "synthetic": bool(getattr(dataset, "synthetic", True)),
        "sha256": digest.hexdigest(),
    }


def _encoder_meta(obj) -> Optional[Dict[str, Any]]:
    """Hyperparameters of a model's encoder that live outside its config.

    A model may adopt a custom encoder (``encoder=`` constructor
    parameter), so flags like ``quantize_output`` or the ID-Level
    ``value_range`` cannot be re-derived from the model config alone;
    they are recorded here and replayed by ``from_checkpoint``.
    """
    encoder = getattr(obj, "encoder", None)
    if isinstance(encoder, RandomProjectionEncoder):
        return {
            "type": "projection",
            "binary_projection": bool(encoder.binary_projection),
            "quantize_output": bool(encoder.quantize_output),
        }
    if isinstance(encoder, IDLevelEncoder):
        return {
            "type": "id-level",
            "value_low": float(encoder.value_low),
            "value_high": float(encoder.value_high),
            "quantize_output": bool(encoder.quantize_output),
        }
    return None


def _array_spec(arrays: Dict[str, np.ndarray]) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"dtype": str(np.asarray(value).dtype), "shape": list(np.shape(value))}
        for name, value in arrays.items()
    }


def _describe(obj) -> Tuple[str, str, Dict[str, Any], Optional[int], Optional[int]]:
    """Return ``(model_class, model_name, config, num_features, num_classes)``."""
    if isinstance(obj, HDCClassifier):
        class_name = type(obj).__name__
        if class_name not in MODEL_REGISTRY:
            raise CheckpointError(
                f"cannot checkpoint unregistered model class {class_name!r}; "
                f"known classes: {sorted(MODEL_REGISTRY)}"
            )
        return (
            class_name,
            obj.name,
            dataclasses.asdict(obj.config),
            int(obj.num_features),
            int(obj.num_classes),
        )
    if isinstance(obj, MultiCentroidAM):
        config = {
            "threshold_mode": obj.threshold_mode,
            "normalization": obj.normalization,
        }
        return "MultiCentroidAM", "MultiCentroidAM", config, None, int(obj.num_classes)
    if isinstance(obj, PackedAM):
        config = {
            "dimension": int(obj.dimension),
            "alphabet": obj.memory.alphabet,
        }
        return "PackedAM", "PackedAM", config, None, int(obj.num_classes)
    raise CheckpointError(
        f"cannot checkpoint objects of type {type(obj).__name__!r}; expected "
        "an HDCClassifier, MultiCentroidAM or PackedAM"
    )


def save_checkpoint(
    obj,
    path,
    dataset=None,
    metrics: Optional[Dict[str, Any]] = None,
    lineage: Optional[Dict[str, Any]] = None,
) -> CheckpointManifest:
    """Persist a fitted model (or bare AM) to a versioned ``.npz`` checkpoint.

    Parameters
    ----------
    obj:
        A fitted classifier (any :data:`MODEL_REGISTRY` class), a
        :class:`MultiCentroidAM`, or a :class:`PackedAM`.
    path:
        Destination file path (conventionally ``*.npz``).
    dataset:
        Optional provenance: a :class:`repro.data.datasets.Dataset` (it is
        fingerprinted via :func:`dataset_fingerprint`) or an
        already-computed fingerprint mapping.
    metrics:
        Optional JSON-able metrics to embed (e.g. test accuracy).
    lineage:
        Optional incremental-checkpoint provenance (parent artifact spec
        and feedback counts; see :class:`CheckpointManifest`).

    Returns
    -------
    CheckpointManifest
        The manifest that was written into the archive.  The file lands at
        :func:`checkpoint_path` of ``path`` (``.npz`` is appended when
        missing, matching numpy), with parent directories created.

    Raises
    ------
    CheckpointError
        If ``obj`` is not checkpointable.
    RuntimeError
        If ``obj`` is a classifier that has not been fitted.
    """
    model_class, model_name, config, num_features, num_classes = _describe(obj)
    arrays = obj.checkpoint_arrays()
    fingerprint: Optional[Dict[str, Any]]
    if dataset is None or isinstance(dataset, dict):
        fingerprint = dataset
    else:
        fingerprint = dataset_fingerprint(dataset)
    manifest = CheckpointManifest(
        schema_version=SCHEMA_VERSION,
        model_class=model_class,
        model_name=model_name,
        config=config,
        num_features=num_features,
        num_classes=num_classes,
        arrays=_array_spec(arrays),
        library_version=_library_version(),
        created_unix=time.time(),
        dataset=fingerprint,
        metrics=dict(metrics) if metrics is not None else None,
        encoder=_encoder_meta(obj),
        lineage=dict(lineage) if lineage is not None else None,
    )
    payload = {
        MANIFEST_KEY: np.frombuffer(manifest.to_json().encode("utf-8"), dtype=np.uint8)
    }
    for name, value in arrays.items():
        payload[ARRAY_PREFIX + name] = np.asarray(value)
    destination = checkpoint_path(path)
    parent = os.path.dirname(destination)
    if parent:
        os.makedirs(parent, exist_ok=True)
    # The registry's unit of atomicity: never a truncated file at the path.
    _atomic_write(destination, lambda stream: np.savez_compressed(stream, **payload))
    return manifest


def read_manifest(path) -> CheckpointManifest:
    """Read and validate only the manifest of a checkpoint file.

    Cheap relative to :func:`load_checkpoint` (no model reconstruction);
    used by registry listings and ``repro models show``.
    """
    with _open_archive(path) as archive:
        return _parse_manifest(archive, path)


def content_fingerprint(path) -> str:
    """Stable SHA-256 of a checkpoint's *logical* content.

    Two checkpoints of the same model carry identical weights but are
    not byte-identical files: the manifest embeds ``created_unix`` and
    the zip container stamps entry timestamps.  Provenance (the workflow
    RunDB, and the chaos tests' "bit-identical artifacts" assertion)
    therefore hashes the content that matters instead: the manifest with
    ``created_unix`` removed, plus every array's name, dtype, shape and
    raw bytes, all in sorted order.

    Raises
    ------
    CheckpointError
        When ``path`` is not a readable checkpoint.
    """
    with _open_archive(path) as archive:
        manifest = _parse_manifest(archive, path)
        digest = hashlib.sha256()
        payload = json.loads(manifest.to_json())
        payload.pop("created_unix", None)
        digest.update(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        )
        for key in sorted(archive.files):
            if key == MANIFEST_KEY:
                continue
            array = np.asarray(archive[key])
            digest.update(key.encode("utf-8"))
            digest.update(str(array.dtype).encode("utf-8"))
            digest.update(str(array.shape).encode("utf-8"))
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()


def load_checkpoint(
    path,
    strict: bool = True,
    expected_class: Optional[str] = None,
):
    """Load a checkpoint back into a fitted model (or bare AM).

    Parameters
    ----------
    path:
        Checkpoint file written by :func:`save_checkpoint`.
    strict:
        When true (default) the stored arrays must match the manifest's
        dtype/shape spec exactly, with no missing or extra entries, and
        the stored config must be understood in full.  ``strict=False``
        tolerates unknown config keys (dropped) and skips the array
        cross-check -- useful when migrating old checkpoints forward.
    expected_class:
        When given, the manifest's ``model_class`` must equal it.

    Returns
    -------
    object
        The restored model; ``predict`` is bit-identical to the saved one.

    Raises
    ------
    CheckpointError
        On unreadable files, magic/schema mismatches, unknown model
        classes, spec violations, or a reconstruction failure.
    """
    model, _ = load_checkpoint_with_manifest(
        path, strict=strict, expected_class=expected_class
    )
    return model


def load_checkpoint_with_manifest(
    path,
    strict: bool = True,
    expected_class: Optional[str] = None,
):
    """Like :func:`load_checkpoint`, also returning the parsed manifest.

    Opens the archive once; callers that need both the model and its
    provenance (the CLI's ``--load``, ``repro serve``) should use this
    instead of a separate :func:`read_manifest` pass.

    Returns
    -------
    tuple
        ``(model, manifest)``.
    """
    with _open_archive(path) as archive:
        manifest = _parse_manifest(archive, path)
        if expected_class is not None and manifest.model_class != expected_class:
            raise CheckpointError(
                f"expected a {expected_class} checkpoint, found "
                f"{manifest.model_class} in {path}"
            )
        arrays = {
            key[len(ARRAY_PREFIX) :]: archive[key]
            for key in archive.files
            if key.startswith(ARRAY_PREFIX)
        }
    _validate_arrays(manifest, arrays, strict=strict)
    return _reconstruct(manifest, arrays, strict=strict), manifest


def load_mapped(
    path,
    strict: bool = True,
    expected_class: Optional[str] = None,
    cache_dir=None,
):
    """Load a checkpoint with its arrays **memory-mapped**, not copied.

    ``.npz`` archives are zlib-compressed, so the arrays inside cannot be
    mapped in place.  This loader extracts each array once into a sidecar
    cache directory (``<checkpoint>.mapped/<fingerprint>/`` by default) as
    a plain ``.npy`` file, then opens every array with
    ``np.load(..., mmap_mode="r")``.  The pages live in the OS page cache,
    so N processes serving the same checkpoint share **one** physical copy
    of the model instead of N heap copies -- the memory model behind
    ``repro serve --workers N`` (see ``docs/operations.md``).

    The cache is keyed by the checkpoint's size + mtime: re-saving a
    checkpoint at the same path invalidates the old extraction
    automatically.  Extraction is crash-safe and multi-process safe
    (write-to-temp + ``os.replace`` per file, completeness marker written
    last), so concurrent workers may race to extract without corruption.

    The restored model is **bit-exact** with :func:`load_checkpoint` --
    the arrays are verbatim bytes, merely mapped read-only.  Writing into
    a mapped array raises ``ValueError`` (a worker cannot corrupt the
    shared extraction); retraining via ``fit`` still works, because
    training builds fresh private arrays instead of mutating in place.

    Parameters
    ----------
    path:
        Checkpoint file written by :func:`save_checkpoint`.
    strict / expected_class:
        As for :func:`load_checkpoint`.
    cache_dir:
        Override the extraction cache root (default: sibling directory
        ``<checkpoint>.mapped``).

    Returns
    -------
    object
        The restored model, reading its arrays through read-only memmaps.
    """
    model, _ = load_mapped_with_manifest(
        path, strict=strict, expected_class=expected_class, cache_dir=cache_dir
    )
    return model


def load_mapped_with_manifest(
    path,
    strict: bool = True,
    expected_class: Optional[str] = None,
    cache_dir=None,
):
    """Like :func:`load_mapped`, also returning the parsed manifest."""
    path = os.fspath(path)
    extraction = _ensure_extracted(path, cache_dir)
    manifest = CheckpointManifest.from_json(
        (extraction / "manifest.json").read_text("utf-8")
    )
    if expected_class is not None and manifest.model_class != expected_class:
        raise CheckpointError(
            f"expected a {expected_class} checkpoint, found "
            f"{manifest.model_class} in {path}"
        )
    arrays: Dict[str, np.ndarray] = {}
    for name in manifest.arrays:
        member = extraction / (name + ".npy")
        try:
            arrays[name] = np.load(member, mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError) as error:
            raise CheckpointError(
                f"unreadable mapped array {member}: {error}"
            ) from error
    _validate_arrays(manifest, arrays, strict=strict)
    return _reconstruct(manifest, arrays, strict=strict), manifest


# ------------------------------------------------------------------ internals
def _extraction_fingerprint(path: str) -> str:
    """Cache key tying an extraction to one version of the ``.npz`` bytes."""
    stat = os.stat(path)
    token = f"{stat.st_size}:{stat.st_mtime_ns}"
    return hashlib.sha256(token.encode("utf-8")).hexdigest()[:16]


def _ensure_extracted(path: str, cache_dir):
    """Extract ``path``'s arrays into the mapped cache (idempotent).

    Returns the extraction directory, guaranteed complete: the
    ``manifest.json`` marker is written only after every array landed, and
    every file is placed by write-to-temp + ``os.replace`` so concurrent
    extractions (N workers starting at once) interleave safely.
    """
    from pathlib import Path

    root = Path(cache_dir) if cache_dir is not None else Path(path + ".mapped")
    try:
        fingerprint = _extraction_fingerprint(path)
    except FileNotFoundError:
        raise
    except OSError as error:
        raise CheckpointError(f"unreadable checkpoint {path}: {error}") from error
    target = root / fingerprint
    marker = target / "manifest.json"
    if marker.exists():
        return target
    target.mkdir(parents=True, exist_ok=True)
    with _open_archive(path) as archive:
        manifest = _parse_manifest(archive, path)
        for key in archive.files:
            if not key.startswith(ARRAY_PREFIX):
                continue
            name = key[len(ARRAY_PREFIX) :]
            array = np.asarray(archive[key])
            _atomic_write(
                os.fspath(target / (name + ".npy")),
                lambda stream: np.save(stream, array, allow_pickle=False),
            )
    payload = manifest.to_json().encode("utf-8")
    _atomic_write(os.fspath(marker), lambda stream: stream.write(payload))
    _prune_stale_extractions(root, keep=fingerprint)
    return target


def _atomic_write(destination: str, write: Callable[[BinaryIO], Any]) -> None:
    """Place a file at ``destination`` by write-to-temp + ``os.replace``.

    ``write`` fills the open temp file.  A crash mid-write never leaves a
    truncated file at ``destination``.  mkstemp creates 0600 files; the
    result gets the ordinary umask-derived mode, so shared or rsync-ed
    stores stay readable.
    """
    fd, scratch = tempfile.mkstemp(
        prefix=os.path.basename(destination) + ".",
        dir=os.path.dirname(destination) or ".",
    )
    try:
        with os.fdopen(fd, "wb") as stream:
            write(stream)
        os.chmod(scratch, 0o666 & ~_UMASK)
        os.replace(scratch, destination)
    except BaseException:
        if os.path.exists(scratch):
            os.unlink(scratch)
        raise


def _prune_stale_extractions(root, keep: str) -> None:
    """Best-effort removal of extractions for older checkpoint versions."""
    import shutil

    try:
        entries = list(os.scandir(root))
    except OSError:
        return
    for entry in entries:
        if entry.name == keep or not entry.is_dir():
            continue
        shutil.rmtree(entry.path, ignore_errors=True)


def _open_archive(path):
    try:
        archive = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except Exception as error:  # zipfile.BadZipFile, OSError, ValueError, ...
        raise CheckpointError(f"unreadable checkpoint {path}: {error}") from error
    return archive


def _parse_manifest(archive, path) -> CheckpointManifest:
    if MANIFEST_KEY not in archive.files:
        raise CheckpointError(f"{path} is not a checkpoint (no manifest entry)")
    raw = np.asarray(archive[MANIFEST_KEY], dtype=np.uint8).tobytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise CheckpointError(f"corrupted checkpoint manifest: {error}") from error
    return CheckpointManifest.from_json(text)


def _validate_arrays(
    manifest: CheckpointManifest,
    arrays: Dict[str, np.ndarray],
    strict: bool,
) -> None:
    expected = set(manifest.arrays)
    actual = set(arrays)
    missing = expected - actual
    if missing:
        raise CheckpointError(f"checkpoint is missing arrays: {sorted(missing)}")
    if not strict:
        return
    extra = actual - expected
    if extra:
        raise CheckpointError(
            f"checkpoint holds arrays absent from its manifest: {sorted(extra)}"
        )
    for name, spec in manifest.arrays.items():
        value = arrays[name]
        if str(value.dtype) != spec.get("dtype"):
            raise CheckpointError(
                f"array {name!r} dtype {value.dtype} does not match the "
                f"manifest ({spec.get('dtype')})"
            )
        if list(value.shape) != list(spec.get("shape", [])):
            raise CheckpointError(
                f"array {name!r} shape {list(value.shape)} does not match "
                f"the manifest ({spec.get('shape')})"
            )


def _build_config(config_cls: type, payload: Dict[str, Any], strict: bool):
    if not strict:
        known = {field.name for field in dataclasses.fields(config_cls)}
        payload = {key: value for key, value in payload.items() if key in known}
    try:
        return config_cls(**payload)
    except (TypeError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint config is not a valid {config_cls.__name__}: {error}"
        ) from error


def _reconstruct(
    manifest: CheckpointManifest,
    arrays: Dict[str, np.ndarray],
    strict: bool,
):
    name = manifest.model_class
    try:
        if name == "MultiCentroidAM":
            return MultiCentroidAM.from_checkpoint(
                arrays,
                num_classes=int(manifest.num_classes),
                threshold_mode=manifest.config.get("threshold_mode", "global-mean"),
                normalization=manifest.config.get("normalization", "zscore"),
            )
        if name == "PackedAM":
            return PackedAM.from_checkpoint(
                arrays,
                dimension=int(manifest.config["dimension"]),
                alphabet=manifest.config["alphabet"],
                num_classes=int(manifest.num_classes),
            )
        if name in MODEL_REGISTRY:
            model_cls, config_cls = MODEL_REGISTRY[name]
            config = _build_config(config_cls, manifest.config, strict)
            return model_cls.from_checkpoint(
                int(manifest.num_features),
                int(manifest.num_classes),
                config,
                arrays,
                encoder_meta=manifest.encoder,
            )
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"failed to reconstruct {name} from checkpoint: {error}"
        ) from error
    raise CheckpointError(
        f"unknown model class {name!r}; known: "
        f"{sorted(MODEL_REGISTRY) + list(_AM_CLASSES)}"
    )
