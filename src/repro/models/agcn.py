"""AGCN (Wu et al., 2020): adaptive GCN for joint item recommendation and
attribute inference.

A LightGCN-style propagation is trained jointly with an attribute-inference
head that predicts each item's tags from its propagated embedding; the
inferred attribute signal regularizes the item representations, which is
how flat tag information enters the model (the paper's strongest
non-hyperbolic baseline on tag-rich data).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import InteractionDataset, Split
from repro.models.base import Recommender, TrainConfig
from repro.optim import Adam, Parameter
from repro.tensor import (Tensor, cat, clamp, dot, gather_rows, log,
                          no_grad, sigmoid, sparse_matmul)


class AGCN(Recommender):
    """Adaptive graph convolution with attribute (tag) inference."""

    def __init__(self, n_users: int, n_items: int, n_tags: int,
                 config: Optional[TrainConfig] = None, n_layers: int = 3,
                 attr_weight: float = 0.5, l2: float = 1e-4):
        super().__init__(n_users, n_items, config)
        d = self.config.dim
        self.n_tags = int(n_tags)
        self.n_layers = int(n_layers)
        self.attr_weight = float(attr_weight)
        self.l2 = float(l2)
        self.user_emb = Parameter(self.rng.normal(0, 0.1, (n_users, d)),
                                  name="user")
        self.item_emb = Parameter(self.rng.normal(0, 0.1, (n_items, d)),
                                  name="item")
        self.attr_w = Parameter(self.rng.normal(0, 0.1, (d, n_tags)),
                                name="attr_w")
        self.attr_b = Parameter(np.zeros(n_tags), name="attr_b")
        self._adj = None
        self._labels: Optional[np.ndarray] = None

    def prepare(self, dataset: InteractionDataset, split: Split) -> None:
        self._adj = self.symmetric_adjacency(dataset, split.train)
        self._labels = np.asarray(dataset.item_tags.todense(),
                                  dtype=np.float64)

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.item_emb, self.attr_w, self.attr_b]

    def make_optimizer(self):
        return Adam(self.parameters(), lr=self.config.lr,
                    max_grad_norm=self.config.max_grad_norm)

    def _propagated(self) -> Tuple[Tensor, Tensor]:
        x = cat([self.user_emb, self.item_emb], axis=0)
        acc, cur = x, x
        for _ in range(self.n_layers):
            cur = sparse_matmul(self._adj, cur)
            acc = acc + cur
        final = acc * (1.0 / (self.n_layers + 1))
        return final[:self.n_users], final[self.n_users:]

    def _attribute_loss(self, item_all: Tensor,
                        items: np.ndarray) -> Tensor:
        """Multi-label BCE of predicted vs. actual tags on batch items."""
        unique_items = np.unique(items)
        emb = gather_rows(item_all, unique_items)
        logits = emb @ self.attr_w + self.attr_b
        probs = clamp(sigmoid(logits), 1e-8, 1.0 - 1e-8)
        labels = Tensor(self._labels[unique_items])
        bce = (-1.0) * (labels * log(probs)
                        + (1.0 - labels) * log(1.0 - probs))
        return bce.mean()

    def batch_loss(self, users: np.ndarray, pos: np.ndarray,
                   neg: np.ndarray) -> Tensor:
        user_all, item_all = self._propagated()
        u = gather_rows(user_all, users)
        x_up = dot(u, gather_rows(item_all, pos))
        x_uq = dot(u, gather_rows(item_all, neg))
        bpr = (-1.0) * log(sigmoid(x_up - x_uq)).mean()
        attr = self._attribute_loss(item_all,
                                    np.concatenate([pos, neg]))
        reg = ((gather_rows(self.user_emb, users) ** 2).sum()
               + (gather_rows(self.item_emb, pos) ** 2).sum()
               + (gather_rows(self.item_emb, neg) ** 2).sum()) * (
                   self.l2 / len(users))
        return bpr + self.attr_weight * attr + reg

    def export_scoring(self):
        with no_grad():
            user_all, item_all = self._propagated()
        return {"kind": "dot", "user": np.array(user_all.data),
                "item": np.array(item_all.data)}
