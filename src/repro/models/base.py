"""Shared recommender interface and training loop.

Every model implements two hooks:

* :meth:`Recommender.batch_loss` — the training objective on a triplet
  batch (plus any model-specific regularizers);
* :meth:`Recommender.export_scoring` — a frozen scoring spec, the one
  description of the model's ranking scores (NeuMF, whose scores cannot
  be factored, overrides ``score_users`` and exports a dense table).

:meth:`Recommender.fit` provides the common loop: epochs over a
:class:`~repro.data.TripletSampler`, backward, optimizer step, and an
optional per-epoch hook (used e.g. by LogiRec++ to refresh granularity
weights).

The checkpoint/serving surface is a separate, explicit contract:
:class:`ServableModel` names the four hooks (``state_dict`` /
``load_state_dict`` / ``export_extra_init`` / ``export_scoring``) that
:mod:`repro.serve` and :mod:`repro.robust` are written against, and
:class:`Recommender` implements them once for the whole zoo.  The fit
loop additionally accepts a *supervisor* (duck-typed; see
:class:`repro.robust.TrainingSupervisor`) that can auto-checkpoint,
roll back after divergence, resume mid-training, and inject faults —
with ``supervisor=None`` the loop is exactly the plain one.
"""

from __future__ import annotations

import abc
import inspect
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.data.dataset import InteractionDataset, Split
from repro.data.sampling import TripletSampler
from repro.eval.metrics import topk_indices
from repro.manifolds.scoring import score_rows
from repro.optim.parameter import Parameter
from repro.tensor import Tensor, no_grad
from repro.tensor import backend as _backend

LOG = obs.get_logger(__name__)


@dataclass
class TrainConfig:
    """Hyperparameters shared by all models.

    Defaults match the paper's tuned values where stated (margin 0.1,
    batch size large relative to data, RSGD/SGD learning rates from the
    paper's grid) scaled to bench-size data.
    """

    dim: int = 16
    epochs: int = 200
    batch_size: int = 4096
    lr: float = 0.05
    margin: float = 0.5
    n_negatives: int = 2
    seed: int = 0
    max_grad_norm: Optional[float] = 50.0
    verbose: bool = False


class ServableModel(abc.ABC):
    """The checkpoint/serving contract every registry model satisfies.

    :mod:`repro.serve` (checkpoints, retrieval index) and
    :mod:`repro.robust` (auto-checkpoint/rollback/resume) call exactly
    these four hooks — nothing else — so conforming to this ABC is what
    makes a model deployable.  :class:`Recommender` provides shared
    implementations; a model class that removes or shadows one without
    a working replacement fails instantiation here instead of failing
    at serving time, and ``tests/test_servable_api.py`` additionally
    checks the *semantics* (round trips, scoring-spec validity)
    registry-wide.
    """

    @abc.abstractmethod
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Ordered ``{"<position>:<name>": array}`` parameter snapshot."""

    @abc.abstractmethod
    def load_state_dict(self, arrays: Dict[str, np.ndarray]) -> None:
        """Restore a :meth:`state_dict` snapshot (strict: shapes + keys)."""

    @abc.abstractmethod
    def export_extra_init(self) -> Dict[str, object]:
        """Scalar constructor kwargs beyond the universal ones."""

    @abc.abstractmethod
    def export_scoring(self) -> Dict[str, object]:
        """Frozen scoring spec (``{"kind": ..., ...arrays}``) for the
        offline retrieval index."""


@dataclass
class FitState:
    """Mutable cross-epoch training state owned by :meth:`Recommender.fit`.

    ``epoch`` is the next epoch to run (== epochs completed so far);
    supervisors rewind it on rollback and fast-forward it on resume.
    The best-validation snapshot lives here so it checkpoints and
    restores together with everything else.
    """

    epoch: int = 0
    best_score: float = -np.inf
    best_state: Optional[List[np.ndarray]] = None


class Recommender(ServableModel):
    """Base class for every reproduced model."""

    def __init__(self, n_users: int, n_items: int,
                 config: Optional[TrainConfig] = None):
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.config = config if config is not None else TrainConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.loss_history: List[float] = []

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def parameters(self) -> List[Parameter]:
        """All learnable parameters."""

    @abc.abstractmethod
    def make_optimizer(self):
        """Build the model's optimizer over :meth:`parameters`."""

    @abc.abstractmethod
    def batch_loss(self, users: np.ndarray, pos: np.ndarray,
                   neg: np.ndarray) -> Tensor:
        """Scalar loss for one triplet batch."""

    def score_users(self, user_ids: np.ndarray) -> np.ndarray:
        """Dense score matrix ``(len(user_ids), n_items)``; higher = better.

        Exports afresh on every call (a graph model propagates), so
        callers scoring many batches export once and call ``score_rows``.
        """
        if type(self).export_scoring is Recommender.export_scoring:
            raise NotImplementedError(
                f"{type(self).__name__} must override export_scoring "
                f"(or score_users, for a dense export)")
        return score_rows(self.export_scoring(), user_ids)

    def prepare(self, dataset: InteractionDataset, split: Split) -> None:
        """Dataset-dependent setup (adjacency matrices, relations, ...)."""

    def on_epoch_start(self, epoch: int) -> None:
        """Per-epoch hook (LogiRec++ refreshes its weights here)."""

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def fit(self, dataset: InteractionDataset, split: Split,
            evaluator=None, eval_every: int = 25,
            eval_metric: str = "recall@10",
            supervisor=None) -> "Recommender":
        """Train on ``split.train`` and return self.

        If an :class:`~repro.eval.Evaluator` is supplied, validation
        performance is checked every ``eval_every`` epochs and the best
        parameter snapshot is restored at the end (the paper tunes every
        model on the validation split; best-epoch selection is part of
        that protocol and applied uniformly to all models).

        ``supervisor`` (e.g. :class:`repro.robust.TrainingSupervisor`)
        observes the loop through four hooks: ``on_fit_start`` (may
        fast-forward :class:`FitState` to resume), ``on_epoch_start``
        and ``on_batch`` (fault-injection points), and ``on_epoch_end``,
        which returns the next epoch to run — ``epoch + 1`` normally, or
        an earlier epoch to roll back after a detected divergence.  A
        supervisor that injects nothing leaves the run bit-identical to
        ``supervisor=None``: no hook consumes model RNG or touches
        parameters.

        When a :mod:`repro.obs` run is active the loop emits a span tree
        (``fit > epoch > {epoch_setup, sample, forward, backward, step,
        validate}``) plus per-epoch loss statistics, gradient norms, and
        parameter norms; with no run active the only residual cost is the
        ``perf_counter`` phase accumulators.
        """
        with obs.trace("fit", model=type(self).__name__,
                       epochs=self.config.epochs,
                       batch_size=self.config.batch_size,
                       backend=_backend.get_backend().name):
            with obs.trace("prepare"):
                self.prepare(dataset, split)
            sampler = TripletSampler(dataset, split.train, rng=self.rng,
                                     n_negatives=self.config.n_negatives)
            optimizer = self.make_optimizer()
            state = FitState()
            if supervisor is not None:
                supervisor.on_fit_start(self, optimizer, state,
                                        dataset=dataset)
            limiter = obs.RateLimiter(min_interval_s=0.5)
            epoch = state.epoch
            while epoch < self.config.epochs:
                last_epoch = epoch == self.config.epochs - 1
                if supervisor is not None:
                    supervisor.on_epoch_start(self, epoch)
                with obs.trace("epoch", epoch=epoch) as epoch_span:
                    mean_loss = self._fit_epoch(epoch, sampler, optimizer,
                                                epoch_span, supervisor)
                    if self.config.verbose and limiter.ready(
                            force=epoch == 0 or last_epoch):
                        LOG.info("%s epoch %d/%d loss=%.4f",
                                 type(self).__name__, epoch + 1,
                                 self.config.epochs, mean_loss)
                    if evaluator is not None and (
                            (epoch + 1) % eval_every == 0 or last_epoch):
                        with obs.trace("validate", epoch=epoch):
                            score = evaluator.evaluate_valid(
                                self).means[eval_metric]
                        if score > state.best_score:
                            state.best_score = score
                            state.best_state = [p.data.copy()
                                                for p in self.parameters()]
                if supervisor is None:
                    epoch += 1
                else:
                    epoch = supervisor.on_epoch_end(self, optimizer, state,
                                                    epoch, mean_loss)
            if state.best_state is not None:
                for p, data in zip(self.parameters(), state.best_state):
                    p.data[...] = data
        return self

    def _fit_epoch(self, epoch: int, sampler: TripletSampler,
                   optimizer, epoch_span, supervisor=None) -> float:
        """One epoch over the sampler; returns the epoch-mean loss.

        Phase wall-clock (sampling / forward / backward / optimizer step)
        is accumulated across batches and flushed as one pre-aggregated
        span per phase, so telemetry volume stays at a handful of events
        per epoch regardless of batch count.
        """
        telemetry = obs.enabled()
        t0 = time.perf_counter()
        self.on_epoch_start(epoch)
        t_setup = time.perf_counter() - t0
        batch_losses: List[float] = []
        t_sample = t_forward = t_backward = t_step = 0.0
        grad_norm_sum = 0.0
        batches = sampler.epoch(self.config.batch_size)
        while True:
            t0 = time.perf_counter()
            batch = next(batches, None)
            t_sample += time.perf_counter() - t0
            if batch is None:
                break
            users, pos, neg = batch
            optimizer.zero_grad()
            t0 = time.perf_counter()
            loss = self.batch_loss(users, pos, neg)
            t_forward += time.perf_counter() - t0
            t0 = time.perf_counter()
            loss.backward()
            t_backward += time.perf_counter() - t0
            if supervisor is not None:
                supervisor.on_batch(self, epoch, len(batch_losses))
            if telemetry:
                grad_norm = self._global_norm(
                    p.grad for p in self.parameters())
                grad_norm_sum += grad_norm
                obs.observe("train/grad_norm_batch", grad_norm)
            t0 = time.perf_counter()
            optimizer.step()
            t_step += time.perf_counter() - t0
            batch_losses.append(loss.item())
        n_batches = len(batch_losses)
        # Epoch-mean loss (not the last batch's): the curve consumers —
        # loss_history, the verbose log line, and the telemetry stats —
        # all see the same per-epoch aggregate.
        mean_loss = sum(batch_losses) / max(n_batches, 1)
        self.loss_history.append(mean_loss)
        if telemetry:
            obs.record_span("epoch_setup", t_setup)
            obs.record_span("sample", t_sample, count=n_batches)
            obs.record_span("forward", t_forward, count=n_batches)
            obs.record_span("backward", t_backward, count=n_batches)
            obs.record_span("step", t_step, count=n_batches)
            for value in batch_losses:
                obs.observe("train/loss_batch", value)
            obs.observe("train/loss_epoch", mean_loss)
            if not np.isfinite(mean_loss):
                obs.count("train/nonfinite_loss_epochs")
            grad_norm = grad_norm_sum / max(n_batches, 1)
            param_norm = self._global_norm(
                p.data for p in self.parameters())
            obs.gauge_set("train/grad_norm_epoch", grad_norm)
            obs.gauge_set("train/param_norm", param_norm)
            arena = _backend.arena_stats()
            if arena is not None:
                obs.gauge_set("backend/arena/buffers", arena["buffers"])
                obs.gauge_set("backend/arena/bytes", arena["bytes"])
                obs.gauge_set("backend/arena/hit_rate", arena["hit_rate"])
            epoch_span.annotate(
                n_batches=n_batches, loss_mean=round(mean_loss, 6),
                loss_min=round(min(batch_losses), 6) if batch_losses else None,
                loss_max=round(max(batch_losses), 6) if batch_losses else None,
                grad_norm=round(grad_norm, 6),
                param_norm=round(param_norm, 6))
        return mean_loss

    @staticmethod
    def _global_norm(arrays) -> float:
        """L2 norm over a collection of arrays (``None`` entries skipped)."""
        total = 0.0
        for a in arrays:
            if a is not None:
                total += float(np.sum(a * a))
        return float(np.sqrt(total))

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def normalized_adjacency(dataset: InteractionDataset,
                             train_indices: np.ndarray):
        """Row-normalized user->item and item->user adjacency (Eq. 7).

        Returns ``(a_ui, a_iu)`` where ``a_ui[u, i] = 1/|N_u|`` over the
        training interactions.
        """
        mat = dataset.interaction_matrix(train_indices)
        user_deg = np.asarray(mat.sum(axis=1)).ravel()
        item_deg = np.asarray(mat.sum(axis=0)).ravel()
        inv_u = np.divide(1.0, user_deg, out=np.zeros_like(user_deg),
                          where=user_deg > 0)
        inv_i = np.divide(1.0, item_deg, out=np.zeros_like(item_deg),
                          where=item_deg > 0)
        a_ui = sp.diags(inv_u) @ mat
        a_iu = sp.diags(inv_i) @ mat.T
        return a_ui.tocsr(), a_iu.tocsr()

    @staticmethod
    def symmetric_adjacency(dataset: InteractionDataset,
                            train_indices: np.ndarray) -> sp.csr_matrix:
        """LightGCN's symmetric normalization over the bipartite graph.

        Returns the ``(n_users + n_items)`` square matrix
        ``D^{-1/2} A D^{-1/2}``.
        """
        mat = dataset.interaction_matrix(train_indices)
        n_u, n_i = mat.shape
        upper = sp.hstack([sp.csr_matrix((n_u, n_u)), mat])
        lower = sp.hstack([mat.T, sp.csr_matrix((n_i, n_i))])
        adj = sp.vstack([upper, lower]).tocsr()
        deg = np.asarray(adj.sum(axis=1)).ravel()
        inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg),
                             where=deg > 0)
        d = sp.diags(inv_sqrt)
        return (d @ adj @ d).tocsr()

    # ------------------------------------------------------------------
    # Online learning: embedding resize for cold-start entities
    # ------------------------------------------------------------------
    def resize_universe(self, n_users: int, n_items: int, *,
                        item_neighbors: Optional[Dict[int, np.ndarray]]
                        = None, init_scale: float = 0.01) -> dict:
        """Grow the user/item universe in place for streamed entities.

        Every parameter whose name contains ``user`` (resp. ``item``)
        and whose leading axis equals the old count is treated as a
        per-user (per-item) table and extended with prior-initialized
        rows; everything else (tag embeddings, biases over other axes,
        curvatures) is untouched.  The priors:

        * **Euclidean** tables — the population centroid (mean of
          existing rows) plus tiny seeded noise: cold entities start at
          the popularity prior and differentiate as gradients arrive.
        * **Manifold** tables — ``manifold.random`` near the origin,
          which in hyperbolic space is the coarse-granularity region
          where a user with no history belongs (Eq. 13's GR is minimal
          there), and always satisfies the manifold constraint.
        * ``item_neighbors`` (optional) — a tag prior: maps a *new* item
          id to existing item ids sharing tags; the new row becomes the
          neighbors' mean (Euclidean) or a copy of the first neighbor's
          point (manifold — copying keeps the constraint exact).

        The universe may only grow.  Gradients are cleared and the
        caller must use a **fresh optimizer** (``fit`` builds one) —
        stale optimizer state has the old shapes.  Dataset-dependent
        caches (adjacency, CON weights) are rebuilt by ``prepare``,
        which ``fit`` calls on the grown dataset.
        """
        old_users, old_items = self.n_users, self.n_items
        if n_users < old_users or n_items < old_items:
            raise ValueError(
                f"universe may only grow: ({old_users}, {old_items}) -> "
                f"({n_users}, {n_items})")
        grown: List[str] = []
        for p in self.parameters():
            name = p.name or ""
            axis0 = p.data.shape[0] if p.data.ndim else -1
            # Name-first classification; tables named neither way (e.g.
            # BPRMF's per-item "bias") fall back to the leading-axis
            # size when it is unambiguous.  Tag/attribute tables are
            # never entity tables, whatever their sizes.
            is_side = "tag" in name or "attr" in name
            is_user = "user" in name and axis0 == old_users
            is_item = "item" in name and axis0 == old_items
            if not (is_user or is_item or is_side):
                is_item = axis0 == old_items != old_users
                is_user = axis0 == old_users != old_items
            if is_user and n_users > old_users:
                self._grow_table(p, n_users - old_users, init_scale)
                grown.append(name)
            elif is_item and n_items > old_items:
                self._grow_table(p, n_items - old_items, init_scale,
                                 neighbors=item_neighbors,
                                 base=old_items)
                grown.append(name)
        self.n_users, self.n_items = int(n_users), int(n_items)
        return {"n_users": self.n_users, "n_items": self.n_items,
                "new_users": self.n_users - old_users,
                "new_items": self.n_items - old_items,
                "grown_parameters": grown}

    def _grow_table(self, p: Parameter, n_new: int, scale: float,
                    neighbors: Optional[Dict[int, np.ndarray]] = None,
                    base: int = 0) -> None:
        """Append ``n_new`` prior-initialized rows to a parameter table."""
        from repro.manifolds.base import Euclidean
        rest = p.data.shape[1:]
        euclidean = isinstance(p.manifold, Euclidean)
        if euclidean:
            centroid = (p.data.mean(axis=0) if len(p.data)
                        else np.zeros(rest))
            rows = centroid + scale * self.rng.standard_normal(
                (n_new,) + rest)
        else:
            rows = p.manifold.random((n_new,) + rest, self.rng,
                                     scale=scale)
        if neighbors:
            for j in range(n_new):
                nbs = neighbors.get(base + j)
                if nbs is None or not len(nbs):
                    continue
                nbs = np.asarray(nbs, dtype=np.int64)
                if euclidean:
                    rows[j] = (p.data[nbs].mean(axis=0)
                               + scale * self.rng.standard_normal(rest))
                else:
                    rows[j] = p.data[nbs[0]]
        p.data = np.concatenate([p.data, np.asarray(rows,
                                                    dtype=p.data.dtype)])
        p.grad = None

    # ------------------------------------------------------------------
    # ServableModel contract (checkpointing / serving; see repro.serve)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Ordered ``{key: array}`` snapshot of every learnable parameter.

        Keys are ``"<position>:<name>"`` so they stay unique even when
        parameter names repeat; order matches :meth:`parameters`, which
        every model keeps deterministic.
        """
        return {f"{i:03d}:{p.name}": p.data.copy()
                for i, p in enumerate(self.parameters())}

    def load_state_dict(self, arrays: Dict[str, np.ndarray]) -> None:
        """Load a :meth:`state_dict` snapshot back into the parameters."""
        params = self.parameters()
        if len(arrays) != len(params):
            raise ValueError(
                f"state has {len(arrays)} arrays, model "
                f"{type(self).__name__} expects {len(params)}")
        for i, p in enumerate(params):
            key = f"{i:03d}:{p.name}"
            if key not in arrays:
                raise ValueError(f"state is missing parameter {key!r}")
            data = np.asarray(arrays[key])
            if data.shape != p.data.shape:
                raise ValueError(
                    f"parameter {key!r} has shape {data.shape}, "
                    f"expected {p.data.shape}")
            p.data[...] = data

    def export_extra_init(self) -> Dict[str, object]:
        """Scalar constructor kwargs beyond the universal ones.

        Inspects the concrete class's ``__init__`` signature and records
        every extra keyword whose value survives as a same-named scalar
        attribute (the repo-wide convention: ``self.l2 = float(l2)``),
        so checkpoints can rebuild models constructed with non-default
        hyperparameters.  Parameters without a matching attribute fall
        back to their constructor default on load.
        """
        universal = {"self", "n_users", "n_items", "n_tags", "config"}
        out: Dict[str, object] = {}
        for name in inspect.signature(type(self).__init__).parameters:
            if name in universal or not hasattr(self, name):
                continue
            value = getattr(self, name)
            if isinstance(value, (bool, int, float, str)):
                out[name] = value
        return out

    def export_scoring(self) -> Dict[str, object]:
        """Frozen scoring spec: the one description of the scores.

        Returns ``{"kind": <score family>, ...arrays}`` consumed by
        :func:`repro.manifolds.score_rows`, for :meth:`score_users`, the
        evaluator and :class:`repro.serve.RetrievalIndex` alike.  Models
        whose score is a user-factor / item-factor product override this
        with a factored kind; the base fallback precomputes the dense
        ``(n_users, n_items)`` matrix from an overridden
        :meth:`score_users` (NeuMF's MLP).
        """
        users = np.arange(self.n_users, dtype=np.int64)
        rows = [self.score_users(users[s:s + 256])
                for s in range(0, self.n_users, 256)]
        scores = (np.concatenate(rows, axis=0) if rows
                  else np.zeros((0, self.n_items)))
        return {"kind": "dense", "scores": np.asarray(scores)}

    def recommend(self, user_id: int, k: int = 10,
                  exclude: Optional[Sequence[int]] = None) -> np.ndarray:
        """Top-K item ids for one user, optionally masking seen items.

        Uses the shared partial-sort top-K helper — ``O(n_items)`` instead
        of a full ``O(n_items log n_items)`` sort — with the same
        descending-score / ascending-id ordering.
        """
        scores = self.score_users(np.array([user_id]))[0]
        if exclude is not None:
            scores = scores.copy()
            scores[np.asarray(list(exclude), dtype=np.int64)] = -np.inf
        return topk_indices(scores, k)
