"""AMF (Hou et al., 2019): aspect-aware matrix factorization.

Item tags play the role of aspects: each item's latent factor is
regularized toward the aggregate of its aspect (tag) factors, and the
rating score fuses the MF term with a user-aspect affinity term.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import InteractionDataset, Split
from repro.models.base import Recommender, TrainConfig
from repro.optim import Adam, Parameter
from repro.tensor import Tensor, dot, gather_rows, log, sigmoid, sparse_matmul


class AMF(Recommender):
    """Aspect(-tag)-fused matrix factorization with a BPR objective."""

    def __init__(self, n_users: int, n_items: int, n_tags: int,
                 config: Optional[TrainConfig] = None,
                 aspect_weight: float = 0.5, l2: float = 1e-4):
        super().__init__(n_users, n_items, config)
        d = self.config.dim
        self.n_tags = int(n_tags)
        self.aspect_weight = float(aspect_weight)
        self.l2 = float(l2)
        self.user_emb = Parameter(self.rng.normal(0, 0.1, (n_users, d)),
                                  name="user")
        self.item_emb = Parameter(self.rng.normal(0, 0.1, (n_items, d)),
                                  name="item")
        self.tag_emb = Parameter(self.rng.normal(0, 0.1, (n_tags, d)),
                                 name="tag")
        self._tag_mean: Optional[sp.csr_matrix] = None

    def prepare(self, dataset: InteractionDataset, split: Split) -> None:
        q = dataset.item_tags.astype(np.float64)
        counts = np.asarray(q.sum(axis=1)).ravel()
        inv = np.divide(1.0, counts, out=np.zeros_like(counts),
                        where=counts > 0)
        self._tag_mean = (sp.diags(inv) @ q).tocsr()

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.item_emb, self.tag_emb]

    def make_optimizer(self):
        return Adam(self.parameters(), lr=self.config.lr,
                    max_grad_norm=self.config.max_grad_norm)

    def _fused_items(self) -> Tensor:
        """Item factors fused with their aspect centroid."""
        centroids = sparse_matmul(self._tag_mean, self.tag_emb)
        return self.item_emb + self.aspect_weight * centroids

    def batch_loss(self, users: np.ndarray, pos: np.ndarray,
                   neg: np.ndarray) -> Tensor:
        fused = self._fused_items()
        u = gather_rows(self.user_emb, users)
        x_up = dot(u, gather_rows(fused, pos))
        x_uq = dot(u, gather_rows(fused, neg))
        bpr = (-1.0) * log(sigmoid(x_up - x_uq)).mean()
        reg = ((u ** 2).sum() + (gather_rows(self.item_emb, pos) ** 2).sum()
               + (gather_rows(self.item_emb, neg) ** 2).sum()) * (
                   self.l2 / len(users))
        return bpr + reg

    def export_scoring(self):
        from repro.tensor import no_grad
        with no_grad():
            fused = self._fused_items().data
        return {"kind": "dot", "user": self.user_emb.data.copy(),
                "item": np.array(fused)}
