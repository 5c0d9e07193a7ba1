"""Training resilience: auto-checkpoint, divergence rollback, resume.

:class:`TrainingSupervisor` plugs into :meth:`Recommender.fit` through
the four supervisor hooks and closes the loop that PR2 (detection) and
PR4 (bit-exact checkpoints) opened:

* **auto-checkpoint** — every ``checkpoint_every`` epochs the model is
  saved in the PR4 format, plus a ``fit_state`` sidecar carrying what
  the checkpoint alone does not: optimizer moment/momentum buffers, the
  best-validation snapshot, and the remaining rollback budget.  An
  epoch-0 checkpoint is always written so rollback has a target.
* **rollback** — when an epoch ends with a non-finite loss or
  non-finite parameters, the supervisor restores the last good
  checkpoint *in place* (parameters, RNG stream, loss history,
  optimizer state, best snapshot), multiplies the learning rate by
  ``lr_backoff``, burns one retry, and rewinds the loop to the
  checkpointed epoch.  When the budget is exhausted it raises
  :class:`TrainingDivergedError` instead of looping forever.
* **resume** — ``ResilienceConfig(resume=True)`` fast-forwards a fit
  on a checkpoint-loaded model to the saved epoch.  Because no hook
  consumes model RNG, a killed-then-resumed run is bit-identical to an
  uninterrupted one (asserted registry-wide in ``tests/test_robust.py``).

Fault injection (:class:`~repro.robust.faults.FaultPlan`) rides the
same hooks, so the machinery that recovers from real NaN blowups is the
one exercised by drills and CI.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.artifact import ArtifactFormat
from repro.robust.faults import FaultPlan, SimulatedCrash
from repro.robust.policies import ResilienceConfig
from repro.serve.checkpoint import (FORMAT as CHECKPOINT, CheckpointError,
                                    restore_checkpoint, save_checkpoint)

LOG = obs.get_logger(__name__)

FIT_STATE = ArtifactFormat("fit_state.npz", "fit_state.json", "fit_state",
                           CheckpointError)


class TrainingDivergedError(RuntimeError):
    """Training kept diverging after exhausting the rollback budget."""


# ----------------------------------------------------------------------
# fit_state sidecar: optimizer state + best snapshot + retry budget
# ----------------------------------------------------------------------
def save_fit_state(path, optimizer, state, retries_left: int) -> Path:
    """Write the resume sidecar next to the checkpoint in ``path``.

    ``state`` is the loop's :class:`~repro.models.base.FitState`;
    ``state.epoch`` must already equal the number of completed epochs.
    ``checkpoint_sha256`` pairs the sidecar with that checkpoint.
    """
    opt_state = optimizer.state_dict()
    arrays: Dict[str, np.ndarray] = {}
    scalars: Dict[str, object] = {}
    for key, value in opt_state.items():
        if isinstance(value, np.ndarray):
            arrays[f"opt:{key}"] = value
        else:
            scalars[key] = value
    if state.best_state is not None:
        for i, data in enumerate(state.best_state):
            arrays[f"best:{i:03d}"] = data
    return FIT_STATE.write(path, arrays, {
        "epochs_done": int(state.epoch),
        "best_score": (None if not np.isfinite(state.best_score)
                       else float(state.best_score)),
        "has_best_state": state.best_state is not None,
        "n_best_arrays": (0 if state.best_state is None
                          else len(state.best_state)),
        "optimizer_class": type(optimizer).__name__,
        "optimizer_scalars": scalars,
        "retries_left": int(retries_left),
        "checkpoint_sha256":
            CHECKPOINT.read_manifest(path)["arrays_sha256"],
    })


def has_fit_state(path) -> bool:
    """True when ``path`` holds a resumable checkpoint + sidecar."""
    path = Path(path)
    return ((path / FIT_STATE.manifest_file).is_file()
            and (path / FIT_STATE.arrays_file).is_file())


def load_fit_state(path, optimizer, state) -> int:
    """Restore the sidecar into ``optimizer`` and ``state``.

    Returns the saved retry budget.  Raises
    :class:`repro.serve.CheckpointError` on a missing, corrupted, or
    mismatched sidecar, or one paired with another checkpoint.
    """
    meta, arrays = FIT_STATE.read(path)
    if (meta.get("checkpoint_sha256")
            != CHECKPOINT.read_manifest(path).get("arrays_sha256")):
        raise CheckpointError(
            f"checkpoint {path} fit_state belongs to another checkpoint; "
            f"it can be served but not resumed")
    if meta.get("optimizer_class") != type(optimizer).__name__:
        raise CheckpointError(
            f"checkpoint {path} fit_state was saved for optimizer "
            f"{meta.get('optimizer_class')!r}, model builds "
            f"{type(optimizer).__name__!r}")
    opt_state: Dict[str, object] = dict(meta.get("optimizer_scalars", {}))
    for key, value in arrays.items():
        if key.startswith("opt:"):
            opt_state[key[len("opt:"):]] = value
    try:
        optimizer.load_state_dict(opt_state)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} fit_state does not match the "
            f"optimizer: {exc}") from exc
    state.epoch = int(meta["epochs_done"])
    best_score = meta.get("best_score")
    state.best_score = -np.inf if best_score is None else float(best_score)
    if meta.get("has_best_state"):
        n = int(meta["n_best_arrays"])
        try:
            state.best_state = [arrays[f"best:{i:03d}"] for i in range(n)]
        except KeyError as exc:
            raise CheckpointError(
                f"checkpoint {path} fit_state is missing best-snapshot "
                f"array {exc}") from exc
    else:
        state.best_state = None
    return int(meta.get("retries_left", 0))


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
class TrainingSupervisor:
    """Auto-checkpoint / rollback / resume driver for ``Recommender.fit``.

    Parameters
    ----------
    config:
        The :class:`~repro.robust.policies.ResilienceConfig` to execute.
    fault_plan:
        Optional :class:`~repro.robust.faults.FaultPlan`; its training
        faults (``nan_grad`` / ``nan_param`` / ``kill``) are injected
        through the same hooks that do the recovering.

    After a fit, :attr:`events` holds the ordered
    ``(kind, detail)`` log — ``checkpoint`` / ``rollback`` / ``resume``
    / ``crash`` — and :attr:`rollbacks` / :attr:`checkpoints` the
    counts, mirrored into obs metrics when a run is active.
    """

    def __init__(self, config: ResilienceConfig,
                 fault_plan: Optional[FaultPlan] = None):
        self.config = config
        self.plan = fault_plan
        self.dir = Path(config.checkpoint_dir)
        self.retries_left = int(config.max_retries)
        self.events: List[Tuple[str, dict]] = []
        self.rollbacks = 0
        self.checkpoints = 0
        self.resumed = False
        self._dataset = None

    # -- hooks called by Recommender.fit -------------------------------
    def on_fit_start(self, model, optimizer, state, dataset=None) -> None:
        self._dataset = dataset
        if self.config.resume and has_fit_state(self.dir):
            self.retries_left = load_fit_state(self.dir, optimizer, state)
            self.resumed = True
            self.events.append(("resume", {"epoch": state.epoch}))
            LOG.info("resuming %s from %s at epoch %d",
                     type(model).__name__, self.dir, state.epoch)
            obs.count("train/resumes")
            obs.trace_event("train/resume", epoch=state.epoch)
            return
        # Fresh start: epoch-0 checkpoint so rollback always has a
        # target, even before the first interval elapses.
        self._checkpoint(model, optimizer, state)

    def on_epoch_start(self, model, epoch: int) -> None:
        if self.plan is None:
            return
        spec = self.plan.take_nan_param(epoch)
        if spec is not None:
            params = model.parameters()
            param = params[spec.param_index % len(params)]
            param.data.flat[0] = np.nan
            LOG.warning("injected NaN into parameter %r at epoch %d",
                        param.name, epoch)

    def on_batch(self, model, epoch: int, batch_idx: int) -> None:
        if self.plan is None or batch_idx != 0:
            return
        spec = self.plan.take_nan_grad(epoch)
        if spec is not None:
            params = model.parameters()
            param = params[spec.param_index % len(params)]
            if param.grad is not None:
                param.grad.flat[0] = np.nan
                LOG.warning("injected NaN gradient on %r at epoch %d",
                            param.name, epoch)

    def on_epoch_end(self, model, optimizer, state, epoch: int,
                     mean_loss: float) -> int:
        if self._diverged(model, mean_loss):
            return self._rollback(model, optimizer, state, epoch)
        state.epoch = epoch + 1
        if (state.epoch % self.config.checkpoint_every == 0
                or state.epoch == model.config.epochs):
            self._checkpoint(model, optimizer, state)
        if self.plan is not None and self.plan.take_kill(epoch):
            self.events.append(("crash", {"epoch": epoch}))
            obs.trace_event("train/crash", epoch=epoch)
            raise SimulatedCrash(
                f"injected kill after epoch {epoch} (resume from "
                f"{self.dir})")
        return state.epoch

    # -- internals ------------------------------------------------------
    @staticmethod
    def _diverged(model, mean_loss: float) -> bool:
        if not np.isfinite(mean_loss):
            return True
        return any(not np.isfinite(p.data).all()
                   for p in model.parameters())

    def _checkpoint(self, model, optimizer, state) -> None:
        with obs.trace("checkpoint", epoch=state.epoch):
            save_checkpoint(model, self.dir, dataset=self._dataset)
            save_fit_state(self.dir, optimizer, state, self.retries_left)
        self.checkpoints += 1
        self.events.append(("checkpoint", {"epoch": state.epoch}))
        obs.count("train/auto_checkpoints")

    def _rollback(self, model, optimizer, state, epoch: int) -> int:
        obs.count("train/divergence_detected")
        self.retries_left -= 1
        if self.retries_left < 0:
            raise TrainingDivergedError(
                f"{type(model).__name__} diverged at epoch {epoch} with "
                f"no rollback budget left "
                f"(max_retries={self.config.max_retries}); last good "
                f"checkpoint: {self.dir}")
        restore_checkpoint(model, self.dir)
        # Capture the *running* lr before the sidecar restores the
        # checkpointed one, so repeated rollbacks from the same
        # checkpoint keep compounding the backoff instead of re-applying
        # the same single step.
        running_lr = getattr(optimizer, "lr", None)
        load_fit_state(self.dir, optimizer, state)
        if running_lr is not None:
            optimizer.lr = running_lr * self.config.lr_backoff
        self.rollbacks += 1
        self.events.append(("rollback", {
            "diverged_epoch": epoch, "resumed_epoch": state.epoch,
            "lr": getattr(optimizer, "lr", None),
            "retries_left": self.retries_left}))
        LOG.warning("%s diverged at epoch %d; rolled back to epoch %d "
                    "(lr -> %s, %d retries left)", type(model).__name__,
                    epoch, state.epoch, getattr(optimizer, "lr", "?"),
                    self.retries_left)
        obs.count("train/rollbacks")
        obs.trace_event("train/rollback", diverged_epoch=epoch,
                        resumed_epoch=state.epoch,
                        retries_left=self.retries_left)
        if getattr(optimizer, "lr", None) is not None:
            obs.gauge_set("train/lr", float(optimizer.lr))
        return state.epoch

    def summary(self) -> dict:
        """Counters + event log (what drills print and tests assert)."""
        return {
            "checkpoints": self.checkpoints,
            "rollbacks": self.rollbacks,
            "resumed": self.resumed,
            "retries_left": self.retries_left,
            "events": list(self.events),
            "checkpoint_dir": str(self.dir),
        }
