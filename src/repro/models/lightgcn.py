"""LightGCN (He et al., 2020): simplified graph convolution for CF.

Embeddings are propagated over the symmetrically normalized bipartite
adjacency with no transforms or nonlinearities; the final representation
is the mean over layers 0..L, scored by inner product and trained with BPR.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.data.dataset import InteractionDataset, Split
from repro.models.base import Recommender, TrainConfig
from repro.optim import Adam, Parameter
from repro.tensor import (Tensor, cat, dot, gather_rows, log, no_grad,
                          sigmoid, sparse_matmul)


class LightGCN(Recommender):
    """Light graph convolution network."""

    def __init__(self, n_users: int, n_items: int,
                 config: Optional[TrainConfig] = None, n_layers: int = 3,
                 l2: float = 1e-4):
        super().__init__(n_users, n_items, config)
        d = self.config.dim
        self.n_layers = int(n_layers)
        self.l2 = float(l2)
        self.user_emb = Parameter(self.rng.normal(0, 0.1, (n_users, d)),
                                  name="user")
        self.item_emb = Parameter(self.rng.normal(0, 0.1, (n_items, d)),
                                  name="item")
        self._adj = None

    def prepare(self, dataset: InteractionDataset, split: Split) -> None:
        self._adj = self.symmetric_adjacency(dataset, split.train)

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.item_emb]

    def make_optimizer(self):
        return Adam(self.parameters(), lr=self.config.lr,
                    max_grad_norm=self.config.max_grad_norm)

    def _propagated(self) -> Tuple[Tensor, Tensor]:
        x = cat([self.user_emb, self.item_emb], axis=0)
        acc = x
        cur = x
        for _ in range(self.n_layers):
            cur = sparse_matmul(self._adj, cur)
            acc = acc + cur
        final = acc * (1.0 / (self.n_layers + 1))
        return final[:self.n_users], final[self.n_users:]

    def batch_loss(self, users: np.ndarray, pos: np.ndarray,
                   neg: np.ndarray) -> Tensor:
        user_all, item_all = self._propagated()
        u = gather_rows(user_all, users)
        x_up = dot(u, gather_rows(item_all, pos))
        x_uq = dot(u, gather_rows(item_all, neg))
        bpr = (-1.0) * log(sigmoid(x_up - x_uq)).mean()
        reg = ((gather_rows(self.user_emb, users) ** 2).sum()
               + (gather_rows(self.item_emb, pos) ** 2).sum()
               + (gather_rows(self.item_emb, neg) ** 2).sum()) * (
                   self.l2 / len(users))
        return bpr + reg

    def export_scoring(self):
        with no_grad():
            user_all, item_all = self._propagated()
        return {"kind": "dot", "user": np.array(user_all.data),
                "item": np.array(item_all.data)}
