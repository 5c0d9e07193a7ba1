"""GDCF (Zhang et al., 2022): geometric disentangled collaborative filtering.

User intentions are disentangled across geometries: the embedding is split
into a Euclidean factor and a hyperbolic factor, each propagated by its
own graph convolution and scored by its own metric; the final score is the
(learned-weighted) sum of per-geometry scores.

The hyperbolic factor uses tangent-space parameterization (Euclidean
parameters + expmap0 in the forward pass), so a single Adam instance
drives both factors.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.hgcn import euclidean_gcn, hyperbolic_gcn
from repro.data.dataset import InteractionDataset, Split
from repro.manifolds import Lorentz
from repro.models.base import Recommender, TrainConfig
from repro.optim import Adam, Parameter
from repro.tensor import (Tensor, cat, clamp_min, exp, gather_rows,
                          no_grad, norm)


class GDCF(Recommender):
    """Two-geometry (Euclidean + Lorentz) disentangled CF."""

    def __init__(self, n_users: int, n_items: int,
                 config: Optional[TrainConfig] = None, n_layers: int = 3):
        super().__init__(n_users, n_items, config)
        d = self.config.dim
        d_each = max(4, d // 2)
        self.d_each = d_each
        self.n_layers = int(n_layers)
        self.user_hyp = Parameter(self.rng.normal(0, 0.1,
                                                  (n_users, d_each)),
                                  name="user_hyp")
        self.item_hyp = Parameter(self.rng.normal(0, 0.1,
                                                  (n_items, d_each)),
                                  name="item_hyp")
        self.user_euc = Parameter(self.rng.normal(0, 0.1,
                                                  (n_users, d_each)),
                                  name="user_euc")
        self.item_euc = Parameter(self.rng.normal(0, 0.1,
                                                  (n_items, d_each)),
                                  name="item_euc")
        # Log-weight of the Euclidean factor relative to the hyperbolic one.
        self.mix_logit = Parameter(np.zeros(1), name="mix_logit")
        self._adj_ui = None
        self._adj_iu = None

    def prepare(self, dataset: InteractionDataset, split: Split) -> None:
        self._adj_ui, self._adj_iu = self.normalized_adjacency(
            dataset, split.train)

    def parameters(self) -> List[Parameter]:
        return [self.user_hyp, self.item_hyp, self.user_euc, self.item_euc,
                self.mix_logit]

    def make_optimizer(self):
        return Adam(self.parameters(), lr=self.config.lr,
                    max_grad_norm=self.config.max_grad_norm)

    def _propagate_both(self):
        zeros_u = Tensor(np.zeros((self.n_users, 1)))
        zeros_v = Tensor(np.zeros((self.n_items, 1)))
        user_h0 = Lorentz.expmap0(cat([zeros_u, self.user_hyp], axis=1))
        item_h0 = Lorentz.expmap0(cat([zeros_v, self.item_hyp], axis=1))
        user_h, item_h = hyperbolic_gcn(user_h0, item_h0, self._adj_ui,
                                        self._adj_iu, self.n_layers)
        user_e, item_e = euclidean_gcn(self.user_euc, self.item_euc,
                                       self._adj_ui, self._adj_iu,
                                       self.n_layers)
        return user_h, item_h, user_e, item_e

    def _distances(self, users, items, tables):
        user_h, item_h, user_e, item_e = tables
        d_h = Lorentz.sqdist(gather_rows(user_h, users),
                             gather_rows(item_h, items))
        d_e = norm(gather_rows(user_e, users)
                   - gather_rows(item_e, items), axis=-1)
        return d_h + exp(self.mix_logit) * d_e

    def batch_loss(self, users: np.ndarray, pos: np.ndarray,
                   neg: np.ndarray) -> Tensor:
        tables = self._propagate_both()
        d_pos = self._distances(users, pos, tables)
        d_neg = self._distances(users, neg, tables)
        return clamp_min(self.config.margin + d_pos - d_neg, 0.0).mean()

    def export_scoring(self):
        with no_grad():
            user_h, item_h, user_e, item_e = self._propagate_both()
        return {"kind": "gdcf_mix",
                "user_h": np.array(user_h.data),
                "item_h": np.array(item_h.data),
                "user_e": np.array(user_e.data),
                "item_e": np.array(item_e.data),
                "mix": float(np.exp(self.mix_logit.data[0]))}
