"""HGCF (Sun et al., 2021): hyperbolic graph convolution for CF.

User and item embeddings live on the Lorentz hyperboloid; graph
convolution happens in the tangent space at the origin (the same Eq. 6-8
machinery LogiRec reuses) and training minimizes a margin ranking loss
over squared Lorentzian distances.  HGCF is exactly LogiRec stripped of
the Poincare logic machinery, which the paper's Table III ("w/o LRM" vs
removing logic losses) makes explicit.

Like LogiRec, supports either tangent-space parameterization with Adam
(default, stable at bench scale) or manifold parameters with RSGD.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.hgcn import hyperbolic_gcn
from repro.data.dataset import InteractionDataset, Split
from repro.manifolds import Lorentz
from repro.models.base import Recommender, TrainConfig
from repro.optim import Adam, Parameter, RiemannianSGD
from repro.tensor import Tensor, cat, clamp_min, gather_rows, no_grad


class HGCF(Recommender):
    """Hyperbolic GCN collaborative filtering."""

    def __init__(self, n_users: int, n_items: int,
                 config: Optional[TrainConfig] = None, n_layers: int = 3,
                 parameterization: str = "tangent"):
        super().__init__(n_users, n_items, config)
        if parameterization not in ("tangent", "manifold"):
            raise ValueError("parameterization must be 'tangent' or "
                             "'manifold'")
        d = self.config.dim
        self.n_layers = int(n_layers)
        self.parameterization = parameterization
        manifold = Lorentz()
        if parameterization == "tangent":
            self.user_emb = Parameter(self.rng.normal(0, 0.1,
                                                      (n_users, d)),
                                      name="user")
            self.item_emb = Parameter(self.rng.normal(0, 0.1,
                                                      (n_items, d)),
                                      name="item")
        else:
            self.user_emb = Parameter.random((n_users, d + 1), manifold,
                                             self.rng, name="user")
            self.item_emb = Parameter.random((n_items, d + 1), manifold,
                                             self.rng, name="item")
        self._adj_ui = None
        self._adj_iu = None

    def prepare(self, dataset: InteractionDataset, split: Split) -> None:
        self._adj_ui, self._adj_iu = self.normalized_adjacency(
            dataset, split.train)

    def parameters(self) -> List[Parameter]:
        return [self.user_emb, self.item_emb]

    def make_optimizer(self):
        if self.parameterization == "manifold":
            return RiemannianSGD(self.parameters(), lr=self.config.lr,
                                 max_grad_norm=self.config.max_grad_norm)
        return Adam(self.parameters(), lr=self.config.lr,
                    max_grad_norm=self.config.max_grad_norm)

    def _lorentz_tables(self):
        if self.parameterization == "tangent":
            zeros_u = Tensor(np.zeros((self.n_users, 1)))
            zeros_v = Tensor(np.zeros((self.n_items, 1)))
            user = Lorentz.expmap0(cat([zeros_u, self.user_emb], axis=1))
            item = Lorentz.expmap0(cat([zeros_v, self.item_emb], axis=1))
            return user, item
        return self.user_emb, self.item_emb

    def _propagated(self):
        user, item = self._lorentz_tables()
        return hyperbolic_gcn(user, item, self._adj_ui, self._adj_iu,
                              self.n_layers)

    def batch_loss(self, users: np.ndarray, pos: np.ndarray,
                   neg: np.ndarray) -> Tensor:
        user_all, item_all = self._propagated()
        u = gather_rows(user_all, users)
        v_p = gather_rows(item_all, pos)
        v_q = gather_rows(item_all, neg)
        d_pos = Lorentz.sqdist(u, v_p)
        d_neg = Lorentz.sqdist(u, v_q)
        return clamp_min(self.config.margin + d_pos - d_neg, 0.0).mean()

    def export_scoring(self):
        with no_grad():
            user_all, item_all = self._propagated()
        return {"kind": "lorentz", "user": np.array(user_all.data),
                "item": np.array(item_all.data)}
