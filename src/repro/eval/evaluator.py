"""Evaluation harness: full ranking over all users with held-out items.

Models expose ``export_scoring()``, a frozen scoring spec.  Each pass
exports once (for graph models, one propagation) and scores user batches
through :func:`repro.manifolds.score_rows`; the evaluator masks training
items and computes per-user Recall@K / NDCG@K vectors, which are also
what the Wilcoxon significance test consumes.

The hot path is fully vectorized: per user-batch it builds the truth and
train masks from CSR structures made once per evaluator, takes the top
``max(ks)`` items with :func:`repro.eval.metrics.masked_topk`, and
reduces a boolean hit matrix into every metric vector at once.
:meth:`Evaluator._reference_evaluate` keeps the original per-user loop
over ``model.score_users``; the equivalence tests pin the vectorized path
to it bit-for-bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.data.dataset import InteractionDataset, Split
from repro.eval.metrics import (batch_ranking_metrics, masked_topk,
                                ndcg_at_k, rank_items, recall_at_k)
from repro.manifolds.scoring import score_rows


def csr_row_coords(indptr: np.ndarray, indices: np.ndarray,
                   rows: np.ndarray):
    """``(local_row, column)`` coordinates of selected CSR rows' entries.

    Given the CSR structure of a user-item matrix and a batch of row ids,
    returns parallel arrays addressing every stored entry of those rows in
    a ``(len(rows), n_cols)`` dense batch — the shared primitive behind
    train-item masking in both the evaluator and the serving engine
    (``dense[local_row, column] = ...``).
    """
    rows = np.asarray(rows, dtype=np.int64)
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    total = int(counts.sum())
    out_rows = np.repeat(np.arange(len(rows)), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    cols = indices[np.arange(total) - np.repeat(starts, counts)
                   + np.repeat(lo, counts)]
    return out_rows, cols


@dataclass
class EvaluationResult:
    """Per-user metric vectors plus means, in percent (as the paper reports).

    ``per_user[metric]`` is an array over evaluated users; ``means[metric]``
    is its mean.  Metric keys look like ``"recall@10"``.
    """

    per_user: Dict[str, np.ndarray]
    user_ids: np.ndarray

    @property
    def means(self) -> Dict[str, float]:
        return {k: float(np.mean(v) * 100.0) for k, v in
                self.per_user.items()}

    def __getitem__(self, metric: str) -> float:
        return self.means[metric]

    def summary(self) -> str:
        parts = [f"{k}={v:.2f}" for k, v in sorted(self.means.items())]
        return " ".join(parts)


class Evaluator:
    """Evaluates a trained model on validation or test interactions.

    Parameters
    ----------
    dataset:
        The dataset (for ground-truth lookups).
    split:
        Temporal split; training items are masked from rankings.
    ks:
        Cutoffs, default (10, 20) as in the paper.
    batch_size:
        Users scored per ``score_rows`` call.  Larger batches amortize
        per-call overhead at ``batch_size * n_items * 8`` bytes of score
        memory; benches tune this for the memory/speed trade-off.
    """

    def __init__(self, dataset: InteractionDataset, split: Split,
                 ks: Sequence[int] = (10, 20), batch_size: int = 256):
        self.dataset = dataset
        self.split = split
        self.ks = tuple(ks)
        self.batch_size = int(batch_size)
        self._train_items = dataset.items_of_user(split.train)
        self._valid_items = dataset.items_of_user(split.valid)
        self._test_items = dataset.items_of_user(split.test)
        self._train = dataset.interaction_matrix(split.train)
        # Ground truth as CSR (duplicates collapsed, as the reference's
        # set() does); a user is evaluated iff its row is non-empty.
        self._valid_truth = dataset.interaction_matrix(split.valid)
        self._test_truth = dataset.interaction_matrix(split.test)

    def _eval_users(self, target_items: Dict[int, np.ndarray]) -> np.ndarray:
        return np.array(sorted(u for u, items in target_items.items()
                               if len(items) > 0), dtype=np.int64)

    def _evaluate(self, model, truth_csr: sp.csr_matrix,
                  batch_size: Optional[int] = None) -> EvaluationResult:
        batch_size = self.batch_size if batch_size is None else batch_size
        users = np.flatnonzero(np.diff(truth_csr.indptr))
        kmax = max(self.ks)
        n_items = self.dataset.n_items
        chunks: List[Dict[str, np.ndarray]] = []
        # Phase accumulators: flushed as one pre-aggregated span per phase
        # so eval cost decomposes (model scoring vs. masking vs. ranking)
        # in the telemetry span tree.  ``score_users`` includes the
        # pass's one export.
        t_truth = t_topk = t_metrics = 0.0
        n_batches = 0
        with obs.trace("evaluate", n_users=int(len(users)),
                       ks=list(self.ks), batch_size=int(batch_size)):
            t0 = time.perf_counter()
            spec = model.export_scoring()
            t_score = time.perf_counter() - t0
            for start in range(0, len(users), batch_size):
                batch = users[start:start + batch_size]
                t0 = time.perf_counter()
                scores = score_rows(spec, batch)
                t_score += time.perf_counter() - t0
                t0 = time.perf_counter()
                # Ground-truth membership matrix; the recall denominator
                # counts unique truth items, train overlap included.
                truth = np.zeros((len(batch), n_items), dtype=bool)
                truth[csr_row_coords(truth_csr.indptr, truth_csr.indices,
                                     batch)] = True
                truth_counts = truth.sum(axis=1)
                # Mask train items: out of the ranking, and never a hit.
                train = csr_row_coords(self._train.indptr,
                                       self._train.indices, batch)
                truth[train] = False
                t_truth += time.perf_counter() - t0
                t0 = time.perf_counter()
                topk = masked_topk(scores, train, kmax)
                hits = np.take_along_axis(truth, topk, axis=1)
                t_topk += time.perf_counter() - t0
                t0 = time.perf_counter()
                chunks.append(
                    batch_ranking_metrics(hits, truth_counts, self.ks))
                t_metrics += time.perf_counter() - t0
                n_batches += 1
            if obs.enabled():
                obs.record_span("score_users", t_score, count=n_batches)
                obs.record_span("truth_mask", t_truth, count=n_batches)
                obs.record_span("topk", t_topk, count=n_batches)
                obs.record_span("metrics", t_metrics, count=n_batches)
                obs.observe("eval/users_per_call", float(len(users)))
        per_user = {name: np.concatenate([c[name] for c in chunks])
                    if chunks else np.zeros(0)
                    for name in [f"{m}@{k}" for k in self.ks
                                 for m in ("recall", "ndcg")]}
        return EvaluationResult(per_user=per_user, user_ids=users)

    def _reference_evaluate(self, model,
                            target_items: Dict[int, np.ndarray],
                            batch_size: int = 256) -> EvaluationResult:
        """Pre-vectorization per-user loop, kept as the equivalence oracle."""
        users = self._eval_users(target_items)
        metrics: Dict[str, List[float]] = {
            f"recall@{k}": [] for k in self.ks}
        metrics.update({f"ndcg@{k}": [] for k in self.ks})
        for start in range(0, len(users), batch_size):
            batch = users[start:start + batch_size]
            scores = model.score_users(batch)
            for row, u in enumerate(batch):
                truth = set(int(i) for i in target_items[u])
                exclude = set(int(i) for i in
                              self._train_items.get(u, ()))
                ranked = rank_items(scores[row], exclude)
                for k in self.ks:
                    metrics[f"recall@{k}"].append(
                        recall_at_k(ranked, truth, k))
                    metrics[f"ndcg@{k}"].append(ndcg_at_k(ranked, truth, k))
        per_user = {k: np.asarray(v) for k, v in metrics.items()}
        return EvaluationResult(per_user=per_user, user_ids=users)

    def evaluate_valid(self, model) -> EvaluationResult:
        return self._evaluate(model, self._valid_truth)

    def evaluate_test(self, model) -> EvaluationResult:
        return self._evaluate(model, self._test_truth)
