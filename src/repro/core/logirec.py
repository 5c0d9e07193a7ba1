"""LogiRec: joint logical relation modeling and recommendation (Section IV).

Embedding layout (hyperbolic mode, the default):

* tags  — Poincare hyperplane centers ``T`` in ``P^d``;
* items — Poincare points ``v^P`` in ``P^d``, mapped to the hyperboloid
  with the diffeomorphism ``p^{-1}`` (Eq. 2) before recommendation;
* users — Lorentz points ``u^H`` on ``H^d``.

Per batch the model propagates (user, item) embeddings through the
hyperbolic GCN (Eq. 6-8), computes the LMNN loss (Eq. 9) on the sampled
triplets, adds λ times the three logical losses (Eq. 3-5) — objective
Eq. 10.

Two parameterizations are supported (``config.parameterization``):

* ``"tangent"`` (default): the learnable parameters are Euclidean tangent
  vectors at the origin, pushed onto the manifolds with ``expmap0`` inside
  the forward pass, and optimized with Adam.  This is the Chami et al.
  HGCN scheme; on small batches it is markedly more stable than manifold
  RSGD and is what the benchmark zoo uses.
* ``"manifold"``: points live directly on the manifolds and are optimized
  with Riemannian SGD (Section V-C / Eq. 16-18).  Kept fully functional
  for the optimizer-ablation bench.

The "w/o Hyper" ablation replaces every ingredient with its Euclidean
twin: flat embeddings, plain GCN, L2 triplet loss, and Euclidean tag balls
with directly learnable radii.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import LogiRecConfig
from repro.core.hgcn import euclidean_gcn, hyperbolic_gcn
from repro.core.losses import (
    euclidean_recommendation_loss,
    exclusion_loss,
    hierarchy_loss,
    membership_loss,
    recommendation_loss,
)
from repro.data.dataset import InteractionDataset, Split
from repro.manifolds import (
    Lorentz,
    PoincareBall,
    enclosing_ball,
    poincare_to_lorentz,
)
from repro.models.base import Recommender
from repro.optim import Adam, Parameter, RiemannianSGD
from repro.tensor import Tensor, cat, gather_rows, no_grad, softplus


class LogiRec(Recommender):
    """The LogiRec framework (objective Eq. 10).

    Parameters
    ----------
    n_users, n_items, n_tags:
        Universe sizes.
    config:
        :class:`~repro.core.LogiRecConfig`; its ablation switches map onto
        Table III's variants.
    """

    def __init__(self, n_users: int, n_items: int, n_tags: int,
                 config: Optional[LogiRecConfig] = None):
        config = config if config is not None else LogiRecConfig()
        if config.parameterization not in ("tangent", "manifold"):
            raise ValueError("parameterization must be 'tangent' or "
                             "'manifold'")
        super().__init__(n_users, n_items, config)
        self.n_tags = int(n_tags)
        d = config.dim
        self._lorentz = Lorentz()
        self._poincare = PoincareBall()
        self.tag_radii_raw = None
        if not config.hyperbolic:
            self.user_emb = Parameter(
                self.rng.normal(0.0, 0.1, (n_users, d)), name="user_euc")
            self.item_emb = Parameter(
                self.rng.normal(0.0, 0.1, (n_items, d)), name="item_euc")
            self.tag_centers = Parameter(
                self.rng.normal(0.0, 0.3, (self.n_tags, d)),
                name="tag_centers_euc")
            # Euclidean tag radii are learned directly (softplus keeps > 0).
            self.tag_radii_raw = Parameter(
                np.full((self.n_tags, 1), 0.2), name="tag_radii")
        elif config.parameterization == "tangent":
            # Euclidean tangent vectors; expmap0 happens in the forward.
            self.user_emb = Parameter(
                self.rng.normal(0.0, 0.1, (n_users, d)), name="user_tan")
            self.item_emb = Parameter(
                self.rng.normal(0.0, 0.1, (n_items, d)), name="item_tan")
            self.tag_centers = Parameter(self._init_tag_tangents(d),
                                         name="tag_tan")
        else:
            self.user_emb = Parameter.random(
                (n_users, d + 1), self._lorentz, self.rng, scale=0.1,
                name="user_lorentz")
            self.item_emb = Parameter.random(
                (n_items, d), self._poincare, self.rng, scale=0.1,
                name="item_poincare")
            self.tag_centers = Parameter(
                self._init_tag_centers(d), self._poincare,
                name="tag_centers")
        # Filled by prepare():
        self._adj_ui = None
        self._adj_iu = None
        self._relations = None

    # ------------------------------------------------------------------
    # Initialization helpers
    # ------------------------------------------------------------------
    def _random_directions(self, d: int) -> np.ndarray:
        direction = self.rng.normal(0.0, 1.0, (self.n_tags, d))
        return direction / np.maximum(
            np.linalg.norm(direction, axis=1, keepdims=True), 1e-12)

    def _init_tag_centers(self, d: int) -> np.ndarray:
        """Manifold-space centers in the norm annulus [0.3, 0.8].

        ``r_c = (1 - ||c||^2) / (2 ||c||)`` explodes near the origin and
        vanishes near the boundary; mid-annulus starts give every tag a
        well-conditioned region.
        """
        radius = self.rng.uniform(0.3, 0.8, (self.n_tags, 1))
        return self._random_directions(d) * radius

    def _init_tag_tangents(self, d: int) -> np.ndarray:
        """Tangent vectors whose expmap0 lands in the same annulus."""
        radius = self.rng.uniform(0.3, 0.8, (self.n_tags, 1))
        return self._random_directions(d) * np.arctanh(radius)

    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        params = [self.user_emb, self.item_emb, self.tag_centers]
        if self.tag_radii_raw is not None:
            params.append(self.tag_radii_raw)
        return params

    def make_optimizer(self):
        if (self.config.hyperbolic
                and self.config.parameterization == "manifold"):
            return RiemannianSGD(self.parameters(), lr=self.config.lr,
                                 max_grad_norm=self.config.max_grad_norm)
        return Adam(self.parameters(), lr=self.config.lr,
                    max_grad_norm=self.config.max_grad_norm)

    def prepare(self, dataset: InteractionDataset, split: Split) -> None:
        self._adj_ui, self._adj_iu = self.normalized_adjacency(
            dataset, split.train)
        self._relations = dataset.relations

    # ------------------------------------------------------------------
    # Forward pieces
    # ------------------------------------------------------------------
    def _manifold_points(self) -> Tuple[Tensor, Tensor, Tensor]:
        """(user_lorentz, item_poincare, tag_center_poincare) tensors."""
        if self.config.parameterization == "tangent":
            zeros = Tensor(np.zeros((self.n_users, 1)))
            user_h = Lorentz.expmap0(cat([zeros, self.user_emb], axis=1))
            item_p = PoincareBall.expmap0(self.item_emb)
            tag_c = PoincareBall.expmap0(self.tag_centers)
            return user_h, item_p, tag_c
        return self.user_emb, self.item_emb, self.tag_centers

    def _tag_balls(self, tag_centers: Optional[Tensor] = None):
        """Current (o, r) for all tags, per the active geometry."""
        if not self.config.hyperbolic:
            return self.tag_centers, softplus(self.tag_radii_raw)
        if tag_centers is None:
            tag_centers = self._manifold_points()[2]
        return enclosing_ball(tag_centers)

    def _propagated(self):
        """Full (user, item) embedding tables after graph convolution,
        plus the item points and tag centres the logical losses use
        (tag centres ``None`` in Euclidean mode, where balls ignore
        them)."""
        if not self.config.hyperbolic:
            user_all, item_all = euclidean_gcn(
                self.user_emb, self.item_emb, self._adj_ui, self._adj_iu,
                self.config.n_layers)
            return user_all, item_all, self.item_emb, None
        user_h, item_p, tag_c = self._manifold_points()
        item_h = poincare_to_lorentz(item_p)
        user_all, item_all = hyperbolic_gcn(
            user_h, item_h, self._adj_ui, self._adj_iu,
            self.config.n_layers)
        return user_all, item_all, item_p, tag_c

    def _logic_loss(self, item_points: Tensor,
                    tag_centers: Optional[Tensor] = None) -> Tensor:
        """λ-weighted sum of the enabled logical losses (Eq. 3-5)."""
        cfg = self.config
        if cfg.lam == 0.0:
            return Tensor(0.0)
        balls = self._tag_balls(tag_centers)
        total = Tensor(0.0)
        if cfg.use_membership and len(self._relations.membership):
            total = total + membership_loss(item_points, balls,
                                            self._relations.membership)
        if cfg.use_hierarchy and len(self._relations.hierarchy):
            total = total + hierarchy_loss(balls,
                                           self._relations.hierarchy)
        if cfg.use_exclusion and len(self._relations.exclusion):
            total = total + exclusion_loss(balls,
                                           self._relations.exclusion)
        return total * cfg.lam

    def _rec_weights(self, users: np.ndarray) -> Optional[np.ndarray]:
        """Per-triplet weights; LogiRec uses none (alpha comes in ++)."""
        return None

    def batch_loss(self, users: np.ndarray, pos: np.ndarray,
                   neg: np.ndarray) -> Tensor:
        user_all, item_all, item_points, tag_centers = self._propagated()
        u = gather_rows(user_all, users)
        v_p = gather_rows(item_all, pos)
        v_q = gather_rows(item_all, neg)
        weights = self._rec_weights(users)
        if self.config.hyperbolic:
            rec = recommendation_loss(u, v_p, v_q, self.config.margin,
                                      weights)
        else:
            rec = euclidean_recommendation_loss(u, v_p, v_q,
                                                self.config.margin, weights)
        return rec + self._logic_loss(item_points, tag_centers)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def final_embeddings(self):
        """Propagated (user, item) tables as numpy arrays (no grad)."""
        with no_grad():
            user_all, item_all = self._propagated()[:2]
        return user_all.data, item_all.data

    def user_lorentz_points(self) -> np.ndarray:
        """Raw (pre-GCN) user embeddings on the hyperboloid (for GR)."""
        if not self.config.hyperbolic:
            return self.user_emb.data
        with no_grad():
            return self._manifold_points()[0].data

    def export_scoring(self):
        """Frozen propagated tables: one full hyperbolic GCN propagation,
        after which every score replays only the final Lorentz/Euclidean
        distance arithmetic."""
        user_all, item_all = self.final_embeddings()
        kind = "lorentz" if self.config.hyperbolic else "neg_dist"
        return {"kind": kind, "user": np.array(user_all),
                "item": np.array(item_all)}

    # ------------------------------------------------------------------
    # Relation readout (used by case studies and mining analyses)
    # ------------------------------------------------------------------
    def tag_ball_arrays(self):
        """Current tag ball centers/radii as numpy arrays."""
        with no_grad():
            o, r = self._tag_balls()
        return o.data, r.data

    def exclusion_margins(self) -> np.ndarray:
        """Signed separation ``||o_i - o_j|| - (r_i + r_j)`` per exclusive
        pair: positive = geometrically disjoint (exclusion respected),
        negative = overlapping (exclusion softened by training)."""
        o, r = self.tag_ball_arrays()
        pairs = self._relations.exclusion
        if len(pairs) == 0:
            return np.zeros(0)
        gap = np.linalg.norm(o[pairs[:, 0]] - o[pairs[:, 1]], axis=-1)
        return gap - (r[pairs[:, 0], 0] + r[pairs[:, 1], 0])
