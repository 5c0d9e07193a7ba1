"""Figure data generators (Fig. 5, Fig. 7, Fig. 8).

Figures are reproduced as the *data series* the paper plots; no plotting
dependency is assumed offline.  Each function returns arrays ready to plot
and, where the paper's claim is a trend, the quantity that captures it
(correlations, separation scores).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.logirec import LogiRec
from repro.data import InteractionDataset
from repro.data.dataset import Split
from repro.manifolds.maps import lorentz_to_poincare_np


def _tag_types_per_user(dataset: InteractionDataset,
                        split: Optional[Split]
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Users with a (train) interaction, ascending, and the number of
    distinct tags each one touched (0 for users of untagged items)."""
    indices = split.train if split is not None else None
    users, tags, _ = dataset.tag_occurrences(indices)
    n_tags = dataset.item_tags.shape[1]
    distinct = np.unique(users * n_tags + tags) // n_tags
    types = np.bincount(distinct, minlength=dataset.n_users)
    active = np.unique(dataset.user_ids if indices is None
                       else dataset.user_ids[indices])
    return active, types[active]


def user_tag_type_distribution(dataset: InteractionDataset,
                               split: Optional[Split] = None) -> Dict:
    """Fig. 5(a): histogram of #distinct tag types per user.

    Returns ``{"tag_type_counts": (n_users,), "hist_values",
    "hist_edges"}``; the paper's observation is a mode around a moderate
    count with a long tail of diverse users.
    """
    _, counts = _tag_types_per_user(dataset, split)
    values, edges = np.histogram(counts,
                                 bins=np.arange(0, counts.max() + 2))
    return {"tag_type_counts": counts, "hist_values": values,
            "hist_edges": edges}


def tag_types_vs_origin_distance(model: LogiRec,
                                 dataset: InteractionDataset,
                                 split: Optional[Split] = None) -> Dict:
    """Fig. 5(b): #interacted tag types vs hyperbolic distance to origin.

    The paper's claim is a *negative* correlation: users with fewer tag
    types (specific preferences) sit farther from the origin.  Returns the
    paired arrays plus the Spearman correlation capturing the trend.
    """
    users, tag_types = _tag_types_per_user(dataset, split)
    user_emb, _ = model.final_embeddings()
    if model.config.hyperbolic:
        distances = np.arccosh(np.maximum(user_emb[users, 0], 1.0))
    else:
        distances = np.linalg.norm(user_emb[users], axis=-1)
    from scipy import stats  # ~1 s to import; only this figure needs it
    corr, p_value = stats.spearmanr(tag_types, distances)
    return {"users": users, "tag_types": tag_types,
            "distances": distances,
            "spearman_corr": float(corr), "p_value": float(p_value)}


def embedding_projection(model: LogiRec, dataset: InteractionDataset,
                         dims: int = 2) -> Dict:
    """Fig. 7/8 raw material: item embeddings projected into the Poincare
    disk (first ``dims`` spatial coordinates after the Lorentz->Poincare
    map), labelled by each item's primary (deepest) tag."""
    _, item_emb = model.final_embeddings()
    if model.config.hyperbolic:
        poincare = lorentz_to_poincare_np(item_emb)
    else:
        poincare = item_emb
    coords = poincare[:, :dims]
    labels = _primary_tags(dataset)
    return {"coords": coords, "labels": labels}


def _primary_tags(dataset: InteractionDataset) -> np.ndarray:
    """Each item's deepest tag (leaf-most membership)."""
    levels = dataset.taxonomy.levels
    csr = dataset.item_tags
    labels = np.full(dataset.n_items, -1, dtype=np.int64)
    for item in range(dataset.n_items):
        tags = csr.indices[csr.indptr[item]:csr.indptr[item + 1]]
        if len(tags):
            labels[item] = tags[np.argmax(levels[tags])]
    return labels


def tag_separation_scores(model, dataset: InteractionDataset,
                          pairs: Optional[np.ndarray] = None) -> Dict:
    """Fig. 7/8's quantitative claim: how well items of exclusive tag
    pairs separate in the embedding space.

    For each exclusive tag pair, computes a silhouette-style score:
    (mean between-group distance - mean within-group distance) / max.
    Positive = separated.  Works for any model exposing
    ``score_users``-compatible item embeddings via ``final_embeddings`` or
    an ``item_emb`` parameter.

    Returns per-pair scores split by whether the pair was planted as
    *overlapping* (mislabelled exclusion) — LogiRec++ should keep truly
    exclusive pairs separated while not over-separating the overlapping
    ones' shared items.
    """
    item_emb = _item_embedding_array(model)
    csr = dataset.item_tags.tocsc()
    if pairs is None:
        pairs = dataset.relations.exclusion
    overlapping = {frozenset(map(int, p))
                   for p in getattr(dataset, "overlapping_pairs", [])}
    scores, is_overlap = [], []
    for t_i, t_j in pairs:
        items_i = csr.indices[csr.indptr[t_i]:csr.indptr[t_i + 1]]
        items_j = csr.indices[csr.indptr[t_j]:csr.indptr[t_j + 1]]
        if len(items_i) < 2 or len(items_j) < 2:
            continue
        emb_i, emb_j = item_emb[items_i], item_emb[items_j]
        within = (_mean_pairwise(emb_i) + _mean_pairwise(emb_j)) / 2.0
        between = float(np.mean(
            np.linalg.norm(emb_i[:, None, :] - emb_j[None, :, :],
                           axis=-1)))
        denom = max(within, between, 1e-12)
        scores.append((between - within) / denom)
        is_overlap.append(frozenset((int(t_i), int(t_j))) in overlapping)
    scores = np.asarray(scores)
    is_overlap = np.asarray(is_overlap, dtype=bool)
    return {
        "scores": scores,
        "is_overlapping_pair": is_overlap,
        "mean_score": float(scores.mean()) if len(scores) else 0.0,
        "mean_true_exclusive": float(scores[~is_overlap].mean())
        if (~is_overlap).any() else 0.0,
        "mean_overlapping": float(scores[is_overlap].mean())
        if is_overlap.any() else 0.0,
    }


def _mean_pairwise(emb: np.ndarray) -> float:
    diff = emb[:, None, :] - emb[None, :, :]
    dists = np.linalg.norm(diff, axis=-1)
    n = len(emb)
    return float(dists.sum() / (n * (n - 1)))


def _item_embedding_array(model) -> np.ndarray:
    """Extract a flat item-embedding matrix from any zoo model."""
    if hasattr(model, "final_embeddings"):
        _, item_emb = model.final_embeddings()
        return item_emb
    for attr in ("item_emb", "item_hyp", "item_gmf"):
        if hasattr(model, attr):
            return getattr(model, attr).data
    raise TypeError(f"cannot extract item embeddings from "
                    f"{type(model).__name__}")
