"""Versioned model checkpoints: ``arrays.npz`` + ``checkpoint.json``.

A checkpoint is a :mod:`repro.artifact` directory with two files:

* ``arrays.npz`` — every learnable parameter, keyed exactly as
  :meth:`Recommender.state_dict` emits them (``"<position>:<name>"``);
* ``checkpoint.json`` — model/config class names, the full config,
  extra constructor kwargs, universe sizes, dataset provenance, the RNG
  bit-generator state and the loss history, beside the format version
  and the sha256 of ``arrays.npz``.

``.npz`` stores float64 arrays losslessly and the RNG state is the exact
``bit_generator.state`` dict, so a loaded model both scores and
*continues training* identically to the live one; a damaged or
mismatched checkpoint raises :class:`CheckpointError` instead.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Type

from repro.artifact import ArtifactFormat
from repro.data.dataset import InteractionDataset, Split

CHECKPOINT_VERSION = 1

ARRAYS_FILE = "arrays.npz"
META_FILE = "checkpoint.json"


class CheckpointError(Exception):
    """A checkpoint could not be read: missing, corrupted, or wrong version."""


FORMAT = ArtifactFormat(ARRAYS_FILE, META_FILE, "checkpoint",
                        CheckpointError, CHECKPOINT_VERSION)


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


def save_checkpoint(model, path, *,
                    dataset: Optional[InteractionDataset] = None) -> Path:
    """Write ``model`` to the directory ``path``; returns the directory.

    ``dataset`` (keyword-only) records provenance — the dataset name and
    universe statistics — so ``repro serve export`` can regenerate the
    deterministic synthetic dataset from the registry without the caller
    re-specifying it.
    """
    meta: Dict[str, object] = {
        "model_class": type(model).__name__,
        "config_class": type(model.config).__name__,
        "config": asdict(model.config),
        "extra_init": model.export_extra_init(),
        "n_users": int(model.n_users),
        "n_items": int(model.n_items),
        "rng_state": model.rng.bit_generator.state,
        "loss_history": [float(x) for x in model.loss_history],
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
    return FORMAT.write(path, model.state_dict(), meta)


def read_checkpoint_meta(path) -> Dict[str, object]:
    """Parse ``checkpoint.json`` and check its format version.

    The arrays file is neither read nor checksummed here;
    :func:`load_checkpoint` does both.
    """
    return FORMAT.read_manifest(path)


def restore_checkpoint(model, path, artifact=None) -> None:
    """Restore parameters, RNG state and loss history into ``model``.

    The one restore behind :func:`load_checkpoint` and the training
    supervisor's rollback; ``artifact`` is an already-read
    ``(meta, arrays)`` pair.
    """
    meta, arrays = artifact or FORMAT.read(path)
    try:
        model.load_state_dict(arrays)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} arrays do not match "
            f"{type(model).__name__}: {exc}") from exc
    model.rng.bit_generator.state = meta["rng_state"]
    model.loss_history = [float(x) for x in meta.get("loss_history", [])]


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
    meta, arrays = FORMAT.read(path)
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
    restore_checkpoint(model, path, (meta, arrays))
    if dataset is not None and split is not None:
        model.prepare(dataset, split)
    return model
