"""Hyperbolic manifolds: the Poincare ball and the Lorentz (hyperboloid) model.

The paper exploits the individual strengths of both models (Section III):

* the **Poincare ball** hosts the logical-relation machinery — tags are
  Poincare hyperplanes (equivalently, their enclosing d-balls) and items are
  points, so membership / hierarchy / exclusion become geometric insideness /
  containment / disjointness (:mod:`repro.manifolds.hyperplane`);
* the **Lorentz model** hosts the recommendation objective, because its
  exponential/logarithmic maps have stable closed forms well suited to
  Riemannian SGD (:mod:`repro.manifolds.lorentz`).

Both are connected by the diffeomorphisms of Eq. (1)/(2)
(:mod:`repro.manifolds.maps`).  Ranking scores for every model family come
from one kernel, :func:`score_rows` (:mod:`repro.manifolds.scoring`).
"""

from repro.manifolds.base import Manifold
from repro.manifolds.poincare import PoincareBall
from repro.manifolds.lorentz import Lorentz
from repro.manifolds.maps import lorentz_to_poincare, poincare_to_lorentz
from repro.manifolds.geodesic import (
    einstein_midpoint,
    frechet_mean,
    lorentz_geodesic,
    lorentz_parallel_transport,
)
from repro.manifolds.hyperplane import (
    enclosing_ball,
    ball_contains_ball,
    ball_contains_point,
    balls_disjoint,
)
from repro.manifolds.scoring import (
    lorentz_ranking_scores,
    neg_dist_scores,
    neg_sq_dist_scores,
    poincare_ranking_scores,
    score_rows,
)

__all__ = [
    "Manifold",
    "PoincareBall",
    "Lorentz",
    "lorentz_to_poincare",
    "poincare_to_lorentz",
    "enclosing_ball",
    "ball_contains_ball",
    "ball_contains_point",
    "balls_disjoint",
    "lorentz_geodesic",
    "lorentz_parallel_transport",
    "frechet_mean",
    "einstein_midpoint",
    "lorentz_ranking_scores",
    "poincare_ranking_scores",
    "neg_dist_scores",
    "neg_sq_dist_scores",
    "score_rows",
]
