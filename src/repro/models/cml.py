"""CML (Hsieh et al., 2017): collaborative metric learning.

Users and items are points in Euclidean space constrained to the unit
ball; training minimizes the triplet hinge
``[m + d^2(u, v_p) - d^2(u, v_q)]_+`` so positives end up closer than any
negative by the margin.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.manifolds.base import Euclidean, Manifold
from repro.models.base import Recommender, TrainConfig
from repro.optim import Adam, Parameter
from repro.tensor import Tensor, clamp_min, gather_rows


class UnitBall(Manifold):
    """Euclidean space with norms clipped to <= 1 (CML's constraint)."""

    name = "unit_ball"

    def project(self, x: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        factor = np.where(norms > 1.0, 1.0 / np.maximum(norms, 1e-12), 1.0)
        return x * factor

    def egrad2rgrad(self, x, grad):
        return grad

    def retract(self, x, tangent):
        return self.project(x + tangent)

    def random(self, shape, rng, scale=0.1):
        return self.project(rng.normal(0.0, scale, size=shape))


class CML(Recommender):
    """Collaborative metric learning with norm clipping."""

    def __init__(self, n_users: int, n_items: int,
                 config: Optional[TrainConfig] = None):
        super().__init__(n_users, n_items, config)
        d = self.config.dim
        ball = UnitBall()
        self.user_emb = Parameter.random((n_users, d), ball, self.rng,
                                         name="user")
        self.item_emb = Parameter.random((n_items, d), ball, self.rng,
                                         name="item")

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.item_emb]

    def make_optimizer(self):
        # Adam beats plain SGD decisively for the metric-learning family
        # at bench scale (tuned on validation data, as the paper's grid
        # search would have).
        return Adam(self.parameters(), lr=self.config.lr,
                    max_grad_norm=self.config.max_grad_norm)

    def _sq_dist(self, users, items) -> Tensor:
        u = gather_rows(self.user_emb, users)
        v = gather_rows(self.item_emb, items)
        return ((u - v) ** 2).sum(axis=-1)

    def batch_loss(self, users: np.ndarray, pos: np.ndarray,
                   neg: np.ndarray) -> Tensor:
        d_pos = self._sq_dist(users, pos)
        d_neg = self._sq_dist(users, neg)
        return clamp_min(self.config.margin + d_pos - d_neg, 0.0).mean()

    def export_scoring(self):
        return {"kind": "neg_sq_dist", "user": self.user_emb.data.copy(),
                "item": self.item_emb.data.copy()}
