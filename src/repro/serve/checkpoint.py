"""Versioned model checkpoints: ``arrays.npz`` + ``checkpoint.json``.

A checkpoint is a directory with two files:

* ``arrays.npz`` — every learnable parameter, keyed exactly as
  :meth:`Recommender.state_dict` emits them (``"<position>:<name>"``);
* ``checkpoint.json`` — format version, model/config class names, the
  full config, extra constructor kwargs, universe sizes, dataset
  provenance, the RNG bit-generator state, the loss history, and a
  sha256 checksum of ``arrays.npz``.

Design constraints the format satisfies:

* **Zero dependencies** — numpy + the standard library only.
* **Bit-identical round trips** — ``.npz`` stores float64 arrays
  losslessly and the RNG state is the exact ``bit_generator.state``
  dict, so a loaded model both scores and *continues training*
  identically to the live one.
* **Corruption detection** — the JSON carries a sha256 of the array
  payload; any mismatch (or a version bump) raises
  :class:`CheckpointError` with a one-line reason instead of producing
  a silently wrong model.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Type

import numpy as np

from repro.data.dataset import InteractionDataset, Split

CHECKPOINT_VERSION = 1

ARRAYS_FILE = "arrays.npz"
META_FILE = "checkpoint.json"


class CheckpointError(Exception):
    """A checkpoint could not be read: missing, corrupted, or wrong version."""


def _model_registry() -> Dict[str, Type]:
    """Name -> class for every checkpointable model.

    Imported lazily so ``repro.serve`` stays importable without pulling
    the full model zoo at module-import time.
    """
    import repro.models as models
    from repro.core import LogiRec, LogiRecPP

    registry = {name: getattr(models, name) for name in models.__all__
                if name not in ("Recommender", "ServableModel",
                                "TrainConfig")}
    registry["LogiRec"] = LogiRec
    registry["LogiRecPP"] = LogiRecPP
    return registry


def _config_registry() -> Dict[str, Type]:
    from repro.core.config import LogiRecConfig
    from repro.models.base import TrainConfig

    return {"TrainConfig": TrainConfig, "LogiRecConfig": LogiRecConfig}


def _sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_checkpoint(model, path, *,
                    dataset: Optional[InteractionDataset] = None) -> Path:
    """Write ``model`` to the directory ``path``; returns the directory.

    ``dataset`` (keyword-only) records provenance — the dataset name and
    universe statistics — so ``repro serve export`` can regenerate the
    deterministic synthetic dataset from the registry without the caller
    re-specifying it.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    arrays_path = path / ARRAYS_FILE
    np.savez(arrays_path, **model.state_dict())
    meta: Dict[str, object] = {
        "format_version": CHECKPOINT_VERSION,
        "model_class": type(model).__name__,
        "config_class": type(model.config).__name__,
        "config": asdict(model.config),
        "extra_init": model.export_extra_init(),
        "n_users": int(model.n_users),
        "n_items": int(model.n_items),
        "rng_state": model.rng.bit_generator.state,
        "loss_history": [float(x) for x in model.loss_history],
        "arrays_sha256": _sha256_of(arrays_path),
    }
    if hasattr(model, "n_tags"):
        meta["n_tags"] = int(model.n_tags)
    if dataset is not None:
        meta["dataset"] = {
            "name": dataset.name,
            "n_users": int(dataset.n_users),
            "n_items": int(dataset.n_items),
            "n_tags": int(dataset.n_tags),
            "n_interactions": int(dataset.n_interactions),
        }
    with open(path / META_FILE, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return path


def read_checkpoint_meta(path) -> Dict[str, object]:
    """Parse and validate ``checkpoint.json`` (version + checksum)."""
    path = Path(path)
    meta_path = path / META_FILE
    arrays_path = path / ARRAYS_FILE
    if not meta_path.is_file():
        raise CheckpointError(f"no checkpoint at {path} "
                              f"(missing {META_FILE})")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"unreadable checkpoint metadata {meta_path}: {exc}") from exc
    version = meta.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format_version {version!r}; this "
            f"build reads version {CHECKPOINT_VERSION}")
    if not arrays_path.is_file():
        raise CheckpointError(f"checkpoint {path} is missing {ARRAYS_FILE}")
    actual = _sha256_of(arrays_path)
    if actual != meta.get("arrays_sha256"):
        raise CheckpointError(
            f"checkpoint {path} is corrupted: {ARRAYS_FILE} checksum "
            f"mismatch")
    return meta


def load_checkpoint(path, *,
                    dataset: Optional[InteractionDataset] = None,
                    split: Optional[Split] = None):
    """Rebuild the checkpointed model; returns the ready model.

    ``dataset`` and ``split`` are keyword-only.
    Passing ``dataset``/``split`` runs :meth:`Recommender.prepare` so
    graph models come back with their adjacency caches and can score or
    resume training immediately.  Loading restores parameters, the RNG
    state, and the loss history, making a resumed ``fit`` bit-identical
    to the never-serialized model continuing in place.
    """
    path = Path(path)
    meta = read_checkpoint_meta(path)
    models = _model_registry()
    model_class = meta.get("model_class")
    if model_class not in models:
        raise CheckpointError(
            f"checkpoint {path} names unknown model class {model_class!r}")
    configs = _config_registry()
    config_class = meta.get("config_class")
    if config_class not in configs:
        raise CheckpointError(
            f"checkpoint {path} names unknown config class {config_class!r}")
    cls = models[model_class]
    try:
        config = configs[config_class](**meta["config"])
    except TypeError as exc:
        raise CheckpointError(
            f"checkpoint {path} config does not match "
            f"{config_class}: {exc}") from exc
    kwargs = dict(meta.get("extra_init", {}))
    kwargs["config"] = config
    ctor_params = inspect.signature(cls.__init__).parameters
    if "n_tags" in ctor_params:
        if "n_tags" not in meta:
            raise CheckpointError(
                f"checkpoint {path}: {model_class} requires n_tags but "
                f"the checkpoint does not record it")
        kwargs["n_tags"] = int(meta["n_tags"])
    try:
        model = cls(int(meta["n_users"]), int(meta["n_items"]), **kwargs)
    except TypeError as exc:
        raise CheckpointError(
            f"checkpoint {path}: cannot construct {model_class}: "
            f"{exc}") from exc
    with np.load(path / ARRAYS_FILE) as npz:
        arrays = {key: npz[key] for key in npz.files}
    try:
        model.load_state_dict(arrays)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} arrays do not match {model_class}: "
            f"{exc}") from exc
    model.rng.bit_generator.state = meta["rng_state"]
    model.loss_history = [float(x) for x in meta.get("loss_history", [])]
    if dataset is not None and split is not None:
        model.prepare(dataset, split)
    return model
