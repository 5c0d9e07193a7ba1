"""Node execution: the worker-side half of the experiment DAG.

Every function here is importable at module top level so the
process-pool scheduler can ship node descriptions (plain dicts) to
workers.  Heavy imports happen inside the builders, keeping the module
cheap to import in the parent.

Worker hygiene (the PR8 front-end pattern): a pool worker first
quiesces any telemetry sink inherited across ``fork`` — re-pointing the
events file descriptor at ``/dev/null`` so the parent's JSONL stream is
not corrupted by child writes — and then *re-selects the tensor
backend*, because the process-global backend state does not follow the
parent's ``--backend`` choice across ``spawn`` (and must be re-applied
defensively under ``fork``).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro import obs
from repro.experiments.dag.graph import Node
from repro.experiments.dag.store import ResultStore

LOG = obs.get_logger(__name__)


class ExperimentError(RuntimeError):
    """A node failed; carries the node label and the original cause."""

    def __init__(self, label: str, cause: BaseException):
        super().__init__(f"experiment node {label} failed: "
                         f"{type(cause).__name__}: {cause}")
        self.label = label
        self.cause = cause


# ----------------------------------------------------------------------
# Dataset + model builders
# ----------------------------------------------------------------------
def build_dataset(payload: Dict[str, object]):
    """Deterministically realize the dataset a payload describes."""
    import numpy as np

    from repro.data import load_dataset, temporal_split

    dataset = load_dataset(str(payload["name"]),
                           scale=float(payload.get("scale", 1.0)))
    fraction = float(payload.get("fraction", 0.0))
    if fraction > 0.0:
        from repro.experiments.robustness import (_with_taxonomy,
                                                  corrupt_taxonomy)
        # Keyed by (seed, fraction) so every fraction's corruption is
        # independent of which other fractions the spec sweeps.
        rng = np.random.default_rng(
            [int(payload.get("corrupt_seed", 0)),
             int(round(fraction * 10_000))])
        dataset = _with_taxonomy(
            dataset, corrupt_taxonomy(dataset.taxonomy, fraction, rng))
    return dataset, temporal_split(dataset)


def build_train_model(payload: Dict[str, object], dataset):
    """Instantiate the model a train payload describes (untrained)."""
    builder = payload["builder"]
    seed = int(payload["seed"])
    epochs = payload.get("epochs")
    ds_name = str(payload["dataset"]["name"])
    if builder == "zoo":
        from repro.experiments.runner import build_model
        model = build_model(str(payload["model"]), dataset, seed)
        if epochs is not None:
            model.config.epochs = int(epochs)
        return model
    if builder == "ablation":
        from repro.core import LogiRecConfig
        from repro.experiments.ablation import _variant_model
        from repro.experiments.runner import (LAMBDA_BY_DATASET,
                                              LAYERS_BY_DATASET)
        base = LogiRecConfig(dim=16, epochs=int(epochs) if epochs else 300,
                             batch_size=4096, lr=0.01, margin=0.5,
                             n_negatives=2,
                             lam=LAMBDA_BY_DATASET.get(ds_name, 1.0),
                             n_layers=LAYERS_BY_DATASET.get(ds_name, 3),
                             seed=seed)
        return _variant_model(str(payload["variant"]), dataset, base)
    if builder == "sweep":
        from dataclasses import replace

        from repro.core import LogiRecPP
        from repro.experiments.sweeps import _base_config
        cfg = replace(_base_config(ds_name, seed,
                                   int(epochs) if epochs else None),
                      **{str(payload["param"]): payload["value"]})
        return LogiRecPP(dataset.n_users, dataset.n_items,
                         dataset.n_tags, cfg)
    if builder == "robustness":
        from repro.core import LogiRec, LogiRecConfig, LogiRecPP
        cls = {"LogiRec": LogiRec,
               "LogiRec++": LogiRecPP}[str(payload["model"])]
        config = LogiRecConfig(dim=16,
                               epochs=int(epochs) if epochs else 150,
                               lam=2.0, seed=seed)
        return cls(dataset.n_users, dataset.n_items, dataset.n_tags,
                   config)
    if builder == "cases":
        from repro.core import LogiRecConfig, LogiRecPP
        from repro.experiments.runner import LAMBDA_BY_DATASET
        config = LogiRecConfig(epochs=int(epochs) if epochs else 150,
                               lam=LAMBDA_BY_DATASET.get(ds_name, 1.0),
                               seed=seed)
        return LogiRecPP(dataset.n_users, dataset.n_items,
                         dataset.n_tags, config)
    raise ValueError(f"unknown train builder {builder!r}")


def _trained_model(store: ResultStore, train_key: str, dataset, split):
    """The trained model behind a train node: live object (in-memory
    store) or checkpoint round-trip (persistent store) — bit-identical
    scoring either way by the PR4 contract."""
    model = store.artifacts.get(train_key)
    if model is not None:
        return model
    from repro.serve import load_checkpoint
    node_dir = store.node_dir(train_key)
    return load_checkpoint(node_dir / "final", dataset=dataset,
                           split=split)


def _resumable_model(ck_dir, dataset, split, label: str):
    """The model a killed train node resumes from, or ``None``.

    A ``ck/`` pair the supervisor would refuse (a torn checkpoint and
    sidecar, a corrupted file) is logged and removed, so the node
    trains from scratch instead of failing on every rerun.
    """
    import shutil

    from repro.models.base import FitState
    from repro.robust import load_fit_state
    from repro.serve import CheckpointError, load_checkpoint
    try:
        model = load_checkpoint(ck_dir, dataset=dataset, split=split)
        # The pairing and optimizer checks of the supervisor's resume.
        load_fit_state(ck_dir, model.make_optimizer(), FitState())
    except CheckpointError as exc:
        LOG.warning("train node %s: discarding %s (%s); training from "
                    "scratch", label, ck_dir, exc)
        shutil.rmtree(ck_dir)
        return None
    return model


# ----------------------------------------------------------------------
# Per-kind executors
# ----------------------------------------------------------------------
def _execute_dataset(node: Node, store: ResultStore, fault_plan) -> dict:
    dataset, split = build_dataset(node.payload)
    return {
        "name": dataset.name,
        "n_users": int(dataset.n_users),
        "n_items": int(dataset.n_items),
        "n_tags": int(dataset.n_tags),
        "n_interactions": int(dataset.n_interactions),
        "n_train": int(len(split.train)),
        "corrupted_fraction": float(node.payload.get("fraction", 0.0)),
    }


def _execute_train(node: Node, store: ResultStore, fault_plan) -> dict:
    from repro.eval import Evaluator

    payload = node.payload
    dataset, split = build_dataset(payload["dataset"])
    evaluator = Evaluator(dataset, split, ks=tuple(payload["ks"]))
    node_dir = store.node_dir(node.key)
    resumed = False
    if node_dir is None:
        # Ephemeral mode: plain fit, live model handed to eval.
        # A no-fault supervisor leaves numerics bit-identical (PR5), so
        # both modes produce the same results.
        model = build_train_model(payload, dataset)
        model.fit(dataset, split, evaluator=evaluator)
        store.artifacts[node.key] = model
    else:
        from repro.robust import (ResilienceConfig, TrainingSupervisor,
                                  has_fit_state)
        ck_dir = node_dir / "ck"
        model = (_resumable_model(ck_dir, dataset, split, node.label)
                 if has_fit_state(ck_dir) else None)
        resumed = model is not None
        if not resumed:
            model = build_train_model(payload, dataset)
        supervisor = TrainingSupervisor(
            ResilienceConfig(checkpoint_dir=ck_dir, checkpoint_every=1,
                             resume=resumed),
            fault_plan=fault_plan)
        model.fit(dataset, split, evaluator=evaluator,
                  supervisor=supervisor)
        from repro.serve import save_checkpoint
        save_checkpoint(model, node_dir / "final", dataset=dataset)
    return {
        "model_class": type(model).__name__,
        "epochs_run": len(model.loss_history),
        "final_loss": (float(model.loss_history[-1])
                       if model.loss_history else None),
        "resumed": bool(resumed),
        "checkpoint": "final" if node_dir is not None else None,
        "backend": str(payload.get("backend", "reference")),
    }


def _execute_eval(node: Node, store: ResultStore, fault_plan) -> dict:
    from repro.eval import Evaluator

    payload = node.payload
    dataset, split = build_dataset(payload["dataset"])
    model = _trained_model(store, str(payload["train"]), dataset, split)
    evaluator = Evaluator(dataset, split, ks=tuple(payload["ks"]))
    result = evaluator.evaluate_test(model)
    return {
        "means": {k: float(v) for k, v in result.means.items()},
        "per_user": {k: [float(x) for x in v]
                     for k, v in result.per_user.items()},
        "user_ids": [int(u) for u in result.user_ids],
    }


def _execute_cases(node: Node, store: ResultStore, fault_plan) -> dict:
    payload = node.payload
    dataset, split = build_dataset(payload["dataset"])
    model = _trained_model(store, str(payload["train"]), dataset, split)
    from repro.experiments.cases import case_rows
    rows = case_rows(model, dataset, split,
                     top_k=int(payload.get("top_k", 6)),
                     max_tags=int(payload.get("max_tags", 5)))
    return {"rows": rows}


def _execute_aggregate(node: Node, store: ResultStore,
                       fault_plan) -> dict:
    from repro.experiments.dag.results import aggregate_section

    payload = node.payload
    dep_results = {entry["key"]: store.load(entry["key"])
                   for entry in payload["entries"]}
    return aggregate_section(str(payload["section"]),
                             payload["entries"], payload["meta"],
                             dep_results)


_EXECUTORS = {
    "dataset": _execute_dataset,
    "train": _execute_train,
    "eval": _execute_eval,
    "cases": _execute_cases,
    "aggregate": _execute_aggregate,
}


def execute_node(node: Node, store: ResultStore,
                 fault_plan=None) -> dict:
    """Run one node in the current process and return its result record.

    The caller persists the result; this function only writes node
    scratch artifacts (checkpoints) under ``store.node_dir``.
    """
    return _EXECUTORS[node.kind](node, store, fault_plan)


# ----------------------------------------------------------------------
# Process-pool entrypoints
# ----------------------------------------------------------------------
def _quiesce_observability() -> None:
    """Silence telemetry inherited across ``fork`` (PR8 pattern).

    ``obs.disable()`` would close the inherited ``events.jsonl`` handle
    and flush fork-captured buffers into the parent's stream; instead
    the sink's descriptor is re-pointed at ``/dev/null`` (fd tables are
    per-process) and the run globals nulled.
    """
    from repro.obs import run as run_mod
    active = run_mod._RUN
    if active is not None:
        fh = getattr(active._sink, "_fh", None)
        if fh is not None:
            try:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fh.fileno())
                os.close(devnull)
            except OSError:  # pragma: no cover - sink already closed
                pass
    run_mod._RUN = None
    run_mod._NAN_CHECKS = False


def pool_initializer(backend: Optional[str]) -> None:
    """Per-worker init: quiesce inherited telemetry, re-select backend."""
    _quiesce_observability()
    if backend:
        from repro.tensor import set_backend
        set_backend(backend)


def pool_execute(node_dict: Dict[str, object], root: str,
                 backend: Optional[str]) -> Tuple[str, dict]:
    """Execute one node inside a pool worker against the disk store.

    The backend is re-asserted per call (cheap when unchanged) so a
    worker recycled across specs with different backends stays correct.
    """
    if backend:
        from repro.tensor import set_backend
        set_backend(backend)
    node = Node.from_dict(node_dict)
    store = ResultStore(root)
    return node.key, execute_node(node, store)
