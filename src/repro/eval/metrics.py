"""Ranking metrics: Recall@K and NDCG@K.

Two API layers live here:

* scalar reference functions (:func:`recall_at_k`, :func:`ndcg_at_k`,
  :func:`rank_items`) operating on one user's ranked list — simple,
  obviously-correct implementations that the vectorized evaluator is
  equivalence-tested against;
* batched helpers (:func:`topk_indices`, :func:`masked_topk`,
  :func:`batch_ranking_metrics`)
  operating on a ``(batch, n_items)`` score matrix at once — the hot
  path used by :class:`repro.eval.Evaluator` for full-ranking
  evaluation.

NDCG uses the standard binary-relevance formulation with the ideal DCG
computed from ``min(K, |ground truth|)`` hits.  The batched helpers are
bit-identical to the scalar ones (same tie-breaking, same float64
summation order), which matters because the Wilcoxon significance test
consumes the per-user metric vectors.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

import numpy as np


def recall_at_k(ranked_items: np.ndarray, ground_truth: Set[int],
                k: int) -> float:
    """Fraction of the ground-truth items present in the top-K."""
    if not ground_truth:
        raise ValueError("ground_truth must be non-empty")
    top_k = ranked_items[:k]
    hits = sum(1 for item in top_k if int(item) in ground_truth)
    return hits / len(ground_truth)


def ndcg_at_k(ranked_items: np.ndarray, ground_truth: Set[int],
              k: int) -> float:
    """Binary-relevance NDCG@K."""
    if not ground_truth:
        raise ValueError("ground_truth must be non-empty")
    top_k = ranked_items[:k]
    gains = np.array([1.0 if int(item) in ground_truth else 0.0
                      for item in top_k])
    discounts = 1.0 / np.log2(np.arange(2, len(top_k) + 2))
    dcg = float(np.sum(gains * discounts))
    ideal_hits = min(k, len(ground_truth))
    idcg = float(np.sum(1.0 / np.log2(np.arange(2, ideal_hits + 2))))
    return dcg / idcg


def rank_items(scores: np.ndarray, exclude: Set[int]) -> np.ndarray:
    """Rank all items by descending score, removing excluded (train) items."""
    order = np.argsort(-scores, kind="stable")
    if not exclude:
        return order
    mask = np.isin(order, np.fromiter(exclude, dtype=np.int64),
                   invert=True)
    return order[mask]


# ----------------------------------------------------------------------
# Batched helpers (the evaluation hot path)
# ----------------------------------------------------------------------
def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-K item ids per row, exactly matching a stable full sort.

    Equivalent to ``np.argsort(-scores, axis=-1, kind="stable")[..., :k]``
    — descending score with ties broken by ascending item id — but costs
    ``O(n + k log k)`` per row instead of ``O(n log n)``: ``argpartition``
    yields K candidates, and a stable sort of them (in ascending-id order)
    by descending score reproduces the full sort's tie-breaking.  Only
    rows where items outside the K tie the K-th score take every item at
    or above it as candidates instead.  Accepts a 1-D score vector or a
    ``(batch, n)`` matrix.
    """
    scores = np.asarray(scores)
    single = scores.ndim == 1
    if single:
        scores = scores[None, :]
    n_rows, n = scores.shape
    if k >= n or n_rows == 0:
        out = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        return out[0] if single else out
    part = np.argpartition(scores, n - k, axis=1)
    kth = np.take_along_axis(scores, part[:, n - k:n - k + 1], axis=1)
    cand = np.sort(part[:, n - k:], axis=1)
    order = np.argsort(-np.take_along_axis(scores, cand, axis=1), axis=1,
                       kind="stable")
    out = np.take_along_axis(cand, order, axis=1)
    tied = np.flatnonzero(np.count_nonzero(scores >= kth, axis=1) > k)
    if tied.size:
        ge = scores[tied] >= kth[tied]
        counts = ge.sum(axis=1)
        rows, cols = np.nonzero(ge)  # cols ascend within each row
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        slot = np.arange(rows.size) - np.repeat(starts, counts)
        cand = np.full((tied.size, int(counts.max())), n, dtype=np.int64)
        cand[rows, slot] = cols
        cand_scores = np.full(cand.shape, -np.inf)
        cand_scores[rows, slot] = scores[tied[rows], cols]
        # Padding sits at -inf behind every row's > K real candidates.
        order = np.argsort(-cand_scores, axis=1, kind="stable")[:, :k]
        out[tied] = np.take_along_axis(cand, order, axis=1)
    return out[0] if single else out


def ideal_dcg_table(k: int) -> np.ndarray:
    """``table[m]`` = ideal DCG for ``m`` hits, ``m`` in ``0..k``.

    Entry ``m`` is computed with the exact expression (and float64
    summation order) of :func:`ndcg_at_k`, keeping batched NDCG
    bit-identical to the scalar reference.
    """
    table = np.empty(k + 1)
    table[0] = np.inf  # never used: ground truth is non-empty
    for m in range(1, k + 1):
        table[m] = np.sum(1.0 / np.log2(np.arange(2, m + 2)))
    return table



def masked_topk(scores: np.ndarray, coords, k: int) -> np.ndarray:
    """Mask ``coords`` (``(rows, cols)``) to ``-inf`` in place, then rank.

    The one seen-item mask + top-K step of the evaluator and the serving
    engine; ``coords`` is ``None`` when nothing is excluded.
    """
    if coords is not None:
        scores[coords] = -np.inf
    return topk_indices(scores, k)

def batch_ranking_metrics(hits: np.ndarray, truth_counts: np.ndarray,
                          ks: Sequence[int]) -> Dict[str, np.ndarray]:
    """Recall@K / NDCG@K vectors from a boolean hit matrix.

    ``hits[u, r]`` says whether the item at rank ``r`` (of the top
    ``max(ks)``) is a ground-truth item for user ``u``; ``truth_counts``
    holds ``|ground truth|`` per user.  Returns ``{"recall@k": vec,
    "ndcg@k": vec}`` identical to looping the scalar metrics.
    """
    hits = np.asarray(hits, dtype=bool)
    truth_counts = np.asarray(truth_counts, dtype=np.int64)
    kmax = max(ks) if len(ks) else 0
    discounts = 1.0 / np.log2(np.arange(2, kmax + 2))
    out: Dict[str, np.ndarray] = {}
    for k in ks:
        hits_k = hits[:, :k]
        out[f"recall@{k}"] = hits_k.sum(axis=1) / truth_counts
        dcg = (hits_k * discounts[:hits_k.shape[1]]).sum(axis=1)
        idcg = ideal_dcg_table(k)[np.minimum(truth_counts, k)]
        out[f"ndcg@{k}"] = dcg / idcg
    return out
