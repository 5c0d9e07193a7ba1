"""LogiRec++: LogiRec plus data-driven logical relation mining (Section V).

LogiRec++ reweights each user's contribution to the recommendation loss by
alpha_u = sqrt(CON_u * GR_u) (Eq. 14):

* **CON_u** (Eq. 12) is computed once from data — the fewer / lower-level
  exclusive tag pairs in the user's interaction history, the more
  consistent the user and the higher the weight.  ``prepare`` counts the
  train interactions with ``split.train_weights`` (unit when ``None``;
  recency weights in online fine-tuning);
* **GR_u** (Eq. 13) is the current distance of the user's Lorentz
  embedding from the origin, refreshed at the start of every epoch as the
  embedding moves — finer-granularity users (far from the origin) need
  larger weights to rearrange the fine-grained region they occupy.

The weighted objective is Eq. 15.  Since consistent, fine-grained users
dominate the gradient, mislabelled exclusions (overlapping sibling tags)
lose the evidence that kept them apart and the exclusion hinge lets them
drift together — this is the "relation mining without extra supervision"
the paper describes, and :meth:`LogiRec.exclusion_margins` exposes it.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro import obs
from repro.core.config import LogiRecConfig
from repro.core.logirec import LogiRec
from repro.core.weighting import (
    consistency_weights,
    granularity_weights,
    personalized_weights,
)
from repro.data.dataset import InteractionDataset, Split


class LogiRecPP(LogiRec):
    """LogiRec with consistency/granularity weighting (objective Eq. 15)."""

    def __init__(self, n_users: int, n_items: int, n_tags: int,
                 config: Optional[LogiRecConfig] = None):
        super().__init__(n_users, n_items, n_tags, config)
        self._con: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None

    def prepare(self, dataset: InteractionDataset, split: Split) -> None:
        super().prepare(dataset, split)
        users, tags, weights = dataset.tag_occurrences(
            split.train, split.train_weights)
        self._con = consistency_weights(users, tags, dataset.relations,
                                        self.n_users, eta=self.config.eta,
                                        weights=weights)
        self._refresh_alpha()

    def _refresh_alpha(self) -> None:
        t0 = time.perf_counter()
        if self.config.hyperbolic:
            gr = granularity_weights(self.user_lorentz_points())
        else:
            # Euclidean ablation: distance from the origin in flat space.
            gr = np.linalg.norm(self.user_emb.data, axis=-1)
        self._alpha = personalized_weights(
            self._con, gr,
            use_consistency=self.config.use_consistency,
            use_granularity=self.config.use_granularity,
            normalize=self.config.normalize_weights)
        if obs.enabled():
            # GR tracks how far user embeddings sit from the origin, so
            # these gauges double as a drift monitor for the hyperbolic
            # embedding radius (alongside the manifold clamp counters).
            obs.record_span("refresh_alpha", time.perf_counter() - t0)
            obs.gauge_set("logirec/alpha_mean", float(self._alpha.mean()))
            obs.gauge_set("logirec/alpha_max", float(self._alpha.max()))
            obs.gauge_set("logirec/gr_mean", float(np.mean(gr)))
            obs.gauge_set("logirec/gr_max", float(np.max(gr)))

    def on_epoch_start(self, epoch: int) -> None:
        # GR depends on the moving user embeddings; refresh once per epoch
        # (a detached quantity — no gradient flows through alpha).
        self._refresh_alpha()

    def _rec_weights(self, users: np.ndarray) -> Optional[np.ndarray]:
        if self._alpha is None:
            return None
        return self._alpha[np.asarray(users, dtype=np.int64)]

    # ------------------------------------------------------------------
    # Introspection for case studies (Table V)
    # ------------------------------------------------------------------
    def user_weights(self) -> dict:
        """Current CON / GR / alpha arrays for all users."""
        if self.config.hyperbolic:
            gr = granularity_weights(self.user_lorentz_points())
        else:
            gr = np.linalg.norm(self.user_emb.data, axis=-1)
        return {"con": self._con.copy(), "gr": gr,
                "alpha": self._alpha.copy()}
