"""TransC (Lv et al., 2018), constrained per the paper to tag-tag,
item-tag, and user-item relations.

Concepts (tags) are Euclidean spheres ``(p_t, r_t)``; instances (items)
are points.  The three relation losses are

* instanceOf (item-tag):  ``[||v - p_t|| - r_t]_+``
* subClassOf (tag-tag):   ``[||p_i - p_j|| + r_j - r_i]_+``
* user-item ranking:      triplet hinge on ``||u - v||``

— the Euclidean ancestor of LogiRec's construction, which makes it the
strongest tag-based baseline in the paper's Table II.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.data.dataset import InteractionDataset, Split
from repro.models.base import Recommender, TrainConfig
from repro.optim import Adam, Parameter
from repro.tensor import Tensor, clamp_min, gather_rows, norm, softplus


class TransC(Recommender):
    """Concept-sphere embedding with user-item ranking."""

    def __init__(self, n_users: int, n_items: int, n_tags: int,
                 config: Optional[TrainConfig] = None,
                 relation_weight: float = 0.5):
        super().__init__(n_users, n_items, config)
        d = self.config.dim
        self.n_tags = int(n_tags)
        self.relation_weight = float(relation_weight)
        self.user_emb = Parameter(self.rng.normal(0, 0.1, (n_users, d)),
                                  name="user")
        self.item_emb = Parameter(self.rng.normal(0, 0.1, (n_items, d)),
                                  name="item")
        self.tag_emb = Parameter(self.rng.normal(0, 0.3, (n_tags, d)),
                                 name="tag")
        self.tag_radii_raw = Parameter(np.full((n_tags, 1), 0.2),
                                       name="tag_radii")
        self._membership = None
        self._hierarchy = None

    def prepare(self, dataset: InteractionDataset, split: Split) -> None:
        self._membership = dataset.relations.membership
        self._hierarchy = dataset.relations.hierarchy

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.item_emb, self.tag_emb,
                self.tag_radii_raw]

    def make_optimizer(self):
        # Adam beats plain SGD decisively for the metric-learning family
        # at bench scale (tuned on validation data, as the paper's grid
        # search would have).
        return Adam(self.parameters(), lr=self.config.lr,
                    max_grad_norm=self.config.max_grad_norm)

    def _relation_loss(self) -> Tensor:
        radii = softplus(self.tag_radii_raw)
        total = Tensor(0.0)
        if self._membership is not None and len(self._membership):
            v = gather_rows(self.item_emb, self._membership[:, 0])
            p = gather_rows(self.tag_emb, self._membership[:, 1])
            r = gather_rows(radii, self._membership[:, 1]).reshape(-1)
            total = total + clamp_min(norm(v - p, axis=-1) - r, 0.0).mean()
        if self._hierarchy is not None and len(self._hierarchy):
            p_par = gather_rows(self.tag_emb, self._hierarchy[:, 0])
            p_chi = gather_rows(self.tag_emb, self._hierarchy[:, 1])
            r_par = gather_rows(radii, self._hierarchy[:, 0]).reshape(-1)
            r_chi = gather_rows(radii, self._hierarchy[:, 1]).reshape(-1)
            violation = norm(p_par - p_chi, axis=-1) + r_chi - r_par
            total = total + clamp_min(violation, 0.0).mean()
        return total

    def batch_loss(self, users: np.ndarray, pos: np.ndarray,
                   neg: np.ndarray) -> Tensor:
        u = gather_rows(self.user_emb, users)
        v_p = gather_rows(self.item_emb, pos)
        v_q = gather_rows(self.item_emb, neg)
        d_pos = norm(u - v_p, axis=-1)
        d_neg = norm(u - v_q, axis=-1)
        rank = clamp_min(self.config.margin + d_pos - d_neg, 0.0).mean()
        return rank + self.relation_weight * self._relation_loss()

    def export_scoring(self):
        return {"kind": "neg_dist", "user": self.user_emb.data.copy(),
                "item": self.item_emb.data.copy()}
