"""SML (Li et al., 2020): symmetric metric learning with adaptive margins.

Extends CML with (a) a symmetric item-centric triplet term — the positive
item should also be closer to its user than to other users — and (b)
learnable per-user and per-item margins, regularized toward a target so
they stay informative.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.models.base import Recommender, TrainConfig
from repro.models.cml import UnitBall
from repro.optim import Adam, Parameter
from repro.tensor import Tensor, clamp, clamp_min, gather_rows


class SML(Recommender):
    """Symmetric metric learning with adaptive margins."""

    def __init__(self, n_users: int, n_items: int,
                 config: Optional[TrainConfig] = None,
                 gamma: float = 0.5, margin_reg: float = 0.1,
                 max_margin: float = 1.0):
        super().__init__(n_users, n_items, config)
        d = self.config.dim
        ball = UnitBall()
        self.gamma = float(gamma)          # weight of the symmetric term
        self.margin_reg = float(margin_reg)
        self.max_margin = float(max_margin)
        self.user_emb = Parameter.random((n_users, d), ball, self.rng,
                                         name="user")
        self.item_emb = Parameter.random((n_items, d), ball, self.rng,
                                         name="item")
        self.user_margin = Parameter(
            np.full((n_users, 1), self.config.margin),
            name="user_margin")
        self.item_margin = Parameter(
            np.full((n_items, 1), self.config.margin),
            name="item_margin")

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.item_emb, self.user_margin,
                self.item_margin]

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
        d_up = ((u - v_p) ** 2).sum(axis=-1)
        d_uq = ((u - v_q) ** 2).sum(axis=-1)
        m_u = clamp(gather_rows(self.user_margin, users).reshape(-1),
                    0.0, self.max_margin)
        user_term = clamp_min(m_u + d_up - d_uq, 0.0).mean()
        # Symmetric item-centric term: v_p prefers its user over a random
        # other user (approximated by the negative triplet's user shift).
        shuffled = gather_rows(self.user_emb,
                               np.roll(np.asarray(users), 1))
        d_pv = ((v_p - u) ** 2).sum(axis=-1)
        d_pother = ((v_p - shuffled) ** 2).sum(axis=-1)
        m_i = clamp(gather_rows(self.item_margin, pos).reshape(-1),
                    0.0, self.max_margin)
        item_term = clamp_min(m_i + d_pv - d_pother, 0.0).mean()
        # Encourage large (informative) margins, as in the original.
        margin_term = (self.max_margin - m_u.mean()) + (
            self.max_margin - m_i.mean())
        return (user_term + self.gamma * item_term
                + self.margin_reg * margin_term)

    def export_scoring(self):
        return {"kind": "neg_sq_dist", "user": self.user_emb.data.copy(),
                "item": self.item_emb.data.copy()}
