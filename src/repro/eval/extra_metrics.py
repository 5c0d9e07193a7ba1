"""Additional ranking and beyond-accuracy metrics.

The paper reports Recall@K and NDCG@K; a production deployment of a
recommender also tracks precision-family metrics and beyond-accuracy
qualities.  Two of these connect directly to the paper's claims:

* :func:`tag_consistency_at_k` quantifies "consistent recommendations
  that respect the logical constraints" (Section I): the fraction of
  recommended items whose tags the user has interacted with (or an
  ancestor thereof);
* :func:`exclusion_violation_at_k` counts recommendations carrying a tag
  *exclusive* to the user's dominant tags — the `<Classical>`-to-a-rock-
  fan mistakes the paper's Fig. 1 motivates skipping.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.taxonomy import LogicalRelations, Taxonomy


def precision_at_k(ranked_items: np.ndarray, ground_truth: Set[int],
                   k: int) -> float:
    """Fraction of the top-K that are ground-truth items."""
    if not ground_truth:
        raise ValueError("ground_truth must be non-empty")
    top_k = ranked_items[:k]
    hits = sum(1 for item in top_k if int(item) in ground_truth)
    return hits / k


def average_precision_at_k(ranked_items: np.ndarray,
                           ground_truth: Set[int], k: int) -> float:
    """AP@K: mean of precision values at every hit position."""
    if not ground_truth:
        raise ValueError("ground_truth must be non-empty")
    hits = 0
    precision_sum = 0.0
    for rank, item in enumerate(ranked_items[:k], start=1):
        if int(item) in ground_truth:
            hits += 1
            precision_sum += hits / rank
    denom = min(k, len(ground_truth))
    return precision_sum / denom


def reciprocal_rank(ranked_items: np.ndarray,
                    ground_truth: Set[int]) -> float:
    """1 / rank of the first relevant item (0 if none appears)."""
    if not ground_truth:
        raise ValueError("ground_truth must be non-empty")
    for rank, item in enumerate(ranked_items, start=1):
        if int(item) in ground_truth:
            return 1.0 / rank
    return 0.0


def catalog_coverage(recommendation_lists: Iterable[np.ndarray],
                     n_items: int) -> float:
    """Fraction of the catalog appearing in at least one top-K list."""
    seen: Set[int] = set()
    for items in recommendation_lists:
        seen.update(int(i) for i in items)
    return len(seen) / n_items


def tag_consistency_at_k(ranked_items: np.ndarray,
                         user_tags: Set[int],
                         dataset: InteractionDataset, k: int) -> float:
    """Fraction of top-K items sharing at least one tag (or a tag whose
    ancestor) the user has interacted with.

    High consistency is the behaviour the logical constraints are meant to
    produce — recommendations stay within the user's tag neighbourhood.
    """
    if not user_tags:
        return 0.0
    taxonomy = dataset.taxonomy
    expanded: Set[int] = set()
    for t in user_tags:
        expanded.add(int(t))
        expanded.update(taxonomy.ancestors(int(t)))
    top_k = ranked_items[:k]
    tag_lists = dataset.tags_of_items(np.asarray(top_k))
    consistent = 0
    for tags in tag_lists:
        item_tags = set(int(t) for t in tags)
        item_expanded = set(item_tags)
        for t in item_tags:
            item_expanded.update(taxonomy.ancestors(t))
        if item_expanded & expanded:
            consistent += 1
    return consistent / len(top_k) if len(top_k) else 0.0


def exclusion_violation_at_k(ranked_items: np.ndarray,
                             user_tags: Set[int],
                             dataset: InteractionDataset, k: int) -> float:
    """Fraction of top-K items carrying a tag exclusive to a user tag.

    This is the paper's Fig. 1 failure mode made measurable: a rock-only
    listener being recommended items under `<Classical>`.  Logic-aware
    models should push it toward zero.
    """
    if not user_tags:
        return 0.0
    exclusions = dataset.relations.exclusion_set()
    user_tag_ints = {int(t) for t in user_tags}
    top_k = ranked_items[:k]
    tag_lists = dataset.tags_of_items(np.asarray(top_k))
    violations = 0
    for tags in tag_lists:
        violated = any(
            frozenset((int(t), u)) in exclusions
            for t in tags for u in user_tag_ints)
        if violated:
            violations += 1
    return violations / len(top_k) if len(top_k) else 0.0


def beyond_accuracy_report(model, dataset: InteractionDataset,
                           split, k: int = 10,
                           max_users: int = 200) -> Dict[str, float]:
    """One-call report of the extra metrics for a trained model."""
    from repro.eval.metrics import rank_items
    from repro.manifolds.scoring import score_rows

    train_items = dataset.items_of_user(split.train)
    test_items = dataset.items_of_user(split.test)
    users = sorted(u for u, items in test_items.items()
                   if len(items) > 0)[:max_users]
    spec = model.export_scoring()  # once; each user scores as a (1, d) row

    per_metric: Dict[str, list] = {
        "precision": [], "map": [], "mrr": [],
        "tag_consistency": [], "exclusion_violation": []}
    rec_lists = []
    for u in users:
        scores = score_rows(spec, [u])[0]
        exclude = set(int(i) for i in train_items.get(u, ()))
        ranked = rank_items(scores, exclude)
        truth = set(int(i) for i in test_items[u])
        user_tag_arrays = dataset.tags_of_items(
            np.asarray(train_items.get(u, np.zeros(0, np.int64))))
        user_tags = set()
        for arr in user_tag_arrays:
            user_tags.update(int(t) for t in arr)
        per_metric["precision"].append(
            precision_at_k(ranked, truth, k))
        per_metric["map"].append(
            average_precision_at_k(ranked, truth, k))
        per_metric["mrr"].append(reciprocal_rank(ranked, truth))
        per_metric["tag_consistency"].append(
            tag_consistency_at_k(ranked, user_tags, dataset, k))
        per_metric["exclusion_violation"].append(
            exclusion_violation_at_k(ranked, user_tags, dataset, k))
        rec_lists.append(ranked[:k])
    report = {name: float(np.mean(values))
              for name, values in per_metric.items()}
    report["catalog_coverage"] = catalog_coverage(rec_lists,
                                                  dataset.n_items)
    return report
