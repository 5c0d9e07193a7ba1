"""Incremental fine-tuning on the recency-weighted stream tail.

Warm-start path for online learning: load the last full-training
checkpoint, grow its embedding tables over the streamed-in users/items
(:meth:`~repro.models.base.Recommender.resize_universe`, with tag-prior
initialization for new items that share tags with known ones), and
fine-tune for a few epochs on only the most recent slice of the
interaction log.

Recency weighting appears twice:

* the **tail split** (:func:`recency_tail_split`) restricts training to
  the newest ``tail_frac`` of interactions — the stream tail;
* the split carries each tail interaction's exponential-decay weight
  ``0.5 ** (age / half_life)`` (:func:`recency_weights`) as
  ``Split.train_weights``.  LogiRec++'s ``prepare`` hands them to the
  one Eq. 11/12 kernel, :func:`repro.core.weighting.consistency_weights`,
  so CON_u is computed once per fine-tune from recency-weighted tag
  counts; with unit weights it is the offline CON bit for bit.  GR_u
  (Eq. 13) needs no variant — it reads the *current* embedding, which
  the warm start carries forward.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.data.dataset import InteractionDataset, Split


def recency_weights(timestamps: np.ndarray,
                    half_life: float) -> np.ndarray:
    """Exponential-decay weights: ``0.5 ** (age / half_life)``.

    Age is measured from the newest timestamp in ``timestamps``, so the
    freshest interaction always weighs 1.0 and an interaction one
    half-life older weighs 0.5.
    """
    if half_life <= 0:
        raise ValueError(f"half_life must be positive, got {half_life}")
    t = np.asarray(timestamps, dtype=np.float64)
    if len(t) == 0:
        return np.zeros(0, dtype=np.float64)
    return 0.5 ** ((t.max() - t) / float(half_life))


def recency_tail_split(dataset: InteractionDataset,
                       tail_frac: float = 0.25,
                       min_events: int = 1) -> Split:
    """A :class:`Split` whose train set is the newest slice of the log.

    The tail is the last ``tail_frac`` of interactions by timestamp
    (stable sort, so append order breaks ties — exactly the journal
    order for streamed events).  Valid/test are empty: fine-tuning is
    not an evaluation protocol, and the caller measures quality against
    whatever offline split it maintains.
    """
    if not 0.0 < tail_frac <= 1.0:
        raise ValueError(f"tail_frac must be in (0, 1], got {tail_frac}")
    n = dataset.n_interactions
    order = np.argsort(dataset.timestamps, kind="stable")
    n_tail = min(n, max(int(min_events), int(round(tail_frac * n))))
    empty = np.zeros(0, dtype=np.int64)
    return Split(train=order[n - n_tail:], valid=empty, test=empty)


def tag_prior_neighbors(dataset: InteractionDataset, old_n_items: int,
                        max_neighbors: int = 5
                        ) -> Dict[int, np.ndarray]:
    """Warm items sharing tags with each cold item, most-overlap first.

    The tag prior for cold-start item initialization: a new item's
    embedding starts near items carrying the same tags (siblings in the
    taxonomy sense), instead of at a random point the fine-tune epochs
    would have to drag across the manifold.  Items with no tag overlap
    get no entry (they fall back to the centroid/origin prior in
    :meth:`~repro.models.base.Recommender.resize_universe`).
    """
    out: Dict[int, np.ndarray] = {}
    q = dataset.item_tags.tocsr()
    if old_n_items >= dataset.n_items or q.shape[1] == 0:
        return out
    warm = q[:old_n_items]
    for item in range(old_n_items, dataset.n_items):
        row = q[item]
        if row.nnz == 0:
            continue
        overlap = np.asarray(warm @ row.T.todense()).ravel()
        if not np.any(overlap > 0):
            continue
        ranked = np.argsort(-overlap, kind="stable")
        ranked = ranked[overlap[ranked] > 0][:max_neighbors]
        out[item] = ranked.astype(np.int64)
    return out


def incremental_finetune(checkpoint_dir, dataset: InteractionDataset, *,
                         epochs: int = 3, tail_frac: float = 0.25,
                         half_life: Optional[float] = None,
                         init_scale: float = 0.01,
                         supervisor=None,
                         save_to=None) -> Dict[str, object]:
    """Warm-start from a checkpoint, grow, and fine-tune on the tail.

    Loads the checkpoint *without* a dataset (so it comes back at its
    checkpointed universe sizes, unprepared), grows the embedding
    tables to the streamed-in universe with the tag prior, then
    fine-tunes ``epochs`` epochs on the recency tail — under the
    supplied :class:`~repro.robust.TrainingSupervisor` when given.  The
    optimizer is built fresh inside ``fit`` (grown tables cannot reuse
    stale optimizer state).  Returns ``{"model", "growth", "split",
    ...}``; ``save_to`` writes the fine-tuned checkpoint.

    The tail split carries the recency weights as ``train_weights``;
    LogiRec++'s ``prepare`` computes CON_u from them (other models
    ignore them).  ``half_life`` defaults to a quarter of the tail's
    time span — fresh events dominate without zeroing out the back of
    the tail.
    """
    from repro.serve.checkpoint import load_checkpoint, save_checkpoint

    model = load_checkpoint(checkpoint_dir)
    old_users, old_items = model.n_users, model.n_items
    neighbors = tag_prior_neighbors(dataset, old_items)
    growth = model.resize_universe(dataset.n_users, dataset.n_items,
                                   item_neighbors=neighbors,
                                   init_scale=init_scale)
    split = recency_tail_split(dataset, tail_frac=tail_frac)
    tail_t = dataset.timestamps[split.train]
    if half_life is None:
        span = float(tail_t.max() - tail_t.min()) if len(tail_t) else 0.0
        half_life = max(1.0, span / 4.0)
    split = replace(split,
                    train_weights=recency_weights(tail_t, half_life))

    model.config.epochs = int(epochs)
    with obs.trace("online/finetune", model=type(model).__name__,
                   epochs=int(epochs), tail=len(split.train)):
        model.fit(dataset, split, supervisor=supervisor)

    record: Dict[str, object] = {
        "model": model,
        "model_class": type(model).__name__,
        "growth": growth,
        "split": split,
        "n_tail": int(len(split.train)),
        "half_life": float(half_life),
        "epochs": int(epochs),
        "final_loss": (float(model.loss_history[-1])
                       if model.loss_history else None),
    }
    if supervisor is not None:
        record["supervisor"] = supervisor.summary()
    if save_to is not None:
        record["checkpoint"] = str(
            save_checkpoint(model, save_to, dataset=dataset))
    if obs.enabled():
        obs.count("online/finetunes")
        obs.gauge_set("online/new_users", float(growth["new_users"]))
        obs.gauge_set("online/new_items", float(growth["new_items"]))
    return record
