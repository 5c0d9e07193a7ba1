"""BPRMF (Rendle et al., 2009): matrix factorization with the BPR loss.

Score is the inner product plus an item bias; training maximizes
``log sigma(x_up - x_uq)`` over sampled triplets.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.models.base import Recommender, TrainConfig
from repro.optim import Adam, Parameter
from repro.tensor import Tensor, dot, gather_rows, log, no_grad, sigmoid


class BPRMF(Recommender):
    """Bayesian personalized ranking over matrix factorization."""

    def __init__(self, n_users: int, n_items: int,
                 config: Optional[TrainConfig] = None, l2: float = 1e-4):
        super().__init__(n_users, n_items, config)
        d = self.config.dim
        self.l2 = float(l2)
        self.user_emb = Parameter(self.rng.normal(0, 0.1, (n_users, d)),
                                  name="user")
        self.item_emb = Parameter(self.rng.normal(0, 0.1, (n_items, d)),
                                  name="item")
        self.item_bias = Parameter(np.zeros((n_items, 1)), name="bias")

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.item_emb, self.item_bias]

    def make_optimizer(self):
        return Adam(self.parameters(), lr=self.config.lr,
                    max_grad_norm=self.config.max_grad_norm)

    def _score_triplet(self, users, items) -> Tensor:
        u = gather_rows(self.user_emb, users)
        v = gather_rows(self.item_emb, items)
        b = gather_rows(self.item_bias, items).reshape(-1)
        return dot(u, v) + b

    def batch_loss(self, users: np.ndarray, pos: np.ndarray,
                   neg: np.ndarray) -> Tensor:
        x_up = self._score_triplet(users, pos)
        x_uq = self._score_triplet(users, neg)
        bpr = (-1.0) * log(sigmoid(x_up - x_uq)).mean()
        reg = ((gather_rows(self.user_emb, users) ** 2).sum()
               + (gather_rows(self.item_emb, pos) ** 2).sum()
               + (gather_rows(self.item_emb, neg) ** 2).sum()) * (
                   self.l2 / len(users))
        return bpr + reg

    def export_scoring(self):
        return {"kind": "dot_bias", "user": self.user_emb.data.copy(),
                "item": self.item_emb.data.copy(),
                "bias": self.item_bias.data.ravel().copy()}
