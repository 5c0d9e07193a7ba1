"""CMLF: collaborative metric learning with (tag) feature fusion.

The feature-fusion variant of CML from Hsieh et al. (2017): item tags are
embedded as points and each item is pulled toward the centroid of its tags,
so side information shapes the metric space alongside interactions.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import InteractionDataset, Split
from repro.models.base import Recommender, TrainConfig
from repro.models.cml import UnitBall
from repro.optim import Adam, Parameter
from repro.tensor import Tensor, clamp_min, gather_rows, sparse_matmul


class CMLF(Recommender):
    """CML + tag-feature pull term."""

    def __init__(self, n_users: int, n_items: int, n_tags: int,
                 config: Optional[TrainConfig] = None,
                 feature_weight: float = 0.5):
        super().__init__(n_users, n_items, config)
        d = self.config.dim
        ball = UnitBall()
        self.n_tags = int(n_tags)
        self.feature_weight = float(feature_weight)
        self.user_emb = Parameter.random((n_users, d), ball, self.rng,
                                         name="user")
        self.item_emb = Parameter.random((n_items, d), ball, self.rng,
                                         name="item")
        self.tag_emb = Parameter.random((n_tags, d), ball, self.rng,
                                        name="tag")
        self._tag_mean: Optional[sp.csr_matrix] = None

    def prepare(self, dataset: InteractionDataset, split: Split) -> None:
        q = dataset.item_tags.astype(np.float64)
        counts = np.asarray(q.sum(axis=1)).ravel()
        inv = np.divide(1.0, counts, out=np.zeros_like(counts),
                        where=counts > 0)
        self._tag_mean = (sp.diags(inv) @ q).tocsr()  # items x tags, row-mean

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.item_emb, self.tag_emb]

    def make_optimizer(self):
        # Adam beats plain SGD decisively for the metric-learning family
        # at bench scale (tuned on validation data, as the paper's grid
        # search would have).
        return Adam(self.parameters(), lr=self.config.lr,
                    max_grad_norm=self.config.max_grad_norm)

    def batch_loss(self, users: np.ndarray, pos: np.ndarray,
                   neg: np.ndarray) -> Tensor:
        u = gather_rows(self.user_emb, users)
        v_p = gather_rows(self.item_emb, pos)
        v_q = gather_rows(self.item_emb, neg)
        d_pos = ((u - v_p) ** 2).sum(axis=-1)
        d_neg = ((u - v_q) ** 2).sum(axis=-1)
        metric = clamp_min(self.config.margin + d_pos - d_neg, 0.0).mean()
        # Feature term: items close to the centroid of their tags.
        centroids = sparse_matmul(self._tag_mean, self.tag_emb)
        batch_items = np.unique(np.concatenate([pos, neg]))
        item_vecs = gather_rows(self.item_emb, batch_items)
        target = gather_rows(centroids, batch_items)
        feature = ((item_vecs - target) ** 2).sum(axis=-1).mean()
        return metric + self.feature_weight * feature

    def export_scoring(self):
        return {"kind": "neg_sq_dist", "user": self.user_emb.data.copy(),
                "item": self.item_emb.data.copy()}
