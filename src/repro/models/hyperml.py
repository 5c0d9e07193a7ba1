"""HyperML (Vinh Tran et al., 2020): metric learning in hyperbolic space.

Users and items are points in the Poincare ball; the pull-push triplet
hinge uses the Poincare distance, and a distortion-style regularizer ties
the hyperbolic geometry to the Euclidean one.  Optimized with RSGD.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.manifolds import PoincareBall
from repro.models.base import Recommender, TrainConfig
from repro.optim import Adam, Parameter, RiemannianSGD
from repro.tensor import Tensor, clamp_min, gather_rows, no_grad, norm


class HyperML(Recommender):
    """Hyperbolic metric learning for collaborative filtering."""

    def __init__(self, n_users: int, n_items: int,
                 config: Optional[TrainConfig] = None,
                 distortion_weight: float = 0.1,
                 parameterization: str = "tangent"):
        super().__init__(n_users, n_items, config)
        d = self.config.dim
        self.ball = PoincareBall()
        self.distortion_weight = float(distortion_weight)
        self.parameterization = parameterization
        if parameterization == "tangent":
            self.user_emb = Parameter(self.rng.normal(0, 0.1,
                                                      (n_users, d)),
                                      name="user")
            self.item_emb = Parameter(self.rng.normal(0, 0.1,
                                                      (n_items, d)),
                                      name="item")
        else:
            self.user_emb = Parameter.random((n_users, d), self.ball,
                                             self.rng, name="user")
            self.item_emb = Parameter.random((n_items, d), self.ball,
                                             self.rng, name="item")

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.item_emb]

    def make_optimizer(self):
        if self.parameterization == "manifold":
            return RiemannianSGD(self.parameters(), lr=self.config.lr,
                                 max_grad_norm=self.config.max_grad_norm)
        return Adam(self.parameters(), lr=self.config.lr,
                    max_grad_norm=self.config.max_grad_norm)

    def _ball_tables(self):
        if self.parameterization == "tangent":
            return (PoincareBall.expmap0(self.user_emb),
                    PoincareBall.expmap0(self.item_emb))
        return self.user_emb, self.item_emb

    def batch_loss(self, users: np.ndarray, pos: np.ndarray,
                   neg: np.ndarray) -> Tensor:
        user_table, item_table = self._ball_tables()
        u = gather_rows(user_table, users)
        v_p = gather_rows(item_table, pos)
        v_q = gather_rows(item_table, neg)
        d_pos = PoincareBall.distance(u, v_p)
        d_neg = PoincareBall.distance(u, v_q)
        pull_push = clamp_min(self.config.margin + d_pos - d_neg,
                              0.0).mean()
        # Distortion regularizer: hyperbolic and Euclidean positive
        # distances should stay proportional (|d_P - d_E| penalty).
        d_euc = norm(u - v_p, axis=-1)
        gap = d_pos - d_euc
        distortion = (gap * gap).mean()
        return pull_push + self.distortion_weight * distortion

    def export_scoring(self):
        with no_grad():
            user_table, item_table = self._ball_tables()
        return {"kind": "poincare", "user": user_table.data.copy(),
                "item": item_table.data.copy()}
