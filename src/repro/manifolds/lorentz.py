"""The Lorentz (hyperboloid) model ``H^d``.

Points are ``x in R^{d+1}`` with Lorentzian inner product
``<x, x>_L = -x0^2 + sum_i xi^2 = -1`` and ``x0 > 0``.

Implements the Lorentzian inner product and distance (Section III-A), the
logarithmic/exponential maps at the origin used by the hyperbolic GCN
(Eq. 6 and Eq. 8), the exponential map at an arbitrary point used by
Riemannian SGD (Eq. 18), the hyperboloid projection, and the Euclidean-to-
Riemannian gradient conversion (Eq. 16 in spirit; we use the exact
hyperboloid tangent projection ``h -> J h + <x, J h>_L x``).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.manifolds.base import Manifold
from repro.tensor import (Tensor, arcosh, cat, clamp, clamp_min, cosh, norm,
                          sinh)
from repro.tensor import backend as _be

_MIN_NORM = 1e-15
_MAX_TANGENT_NORM = 10.0   # per-step / per-map tangent length bound
_MAX_DIST = 16.0           # max geodesic distance of any point from origin
_MAX_SPATIAL = float(np.sinh(_MAX_DIST))  # ~4.4e6; keeps inner products finite


def _origin(dim_plus_one: int) -> np.ndarray:
    o = np.zeros(dim_plus_one)
    o[0] = 1.0
    return o


class Lorentz(Manifold):
    """Hyperboloid model with curvature -1.

    ``d`` below always refers to the *manifold* dimension; ambient vectors
    have ``d + 1`` coordinates.
    """

    name = "lorentz"

    # ------------------------------------------------------------------
    # Differentiable geometry (Tensor in, Tensor out)
    # ------------------------------------------------------------------
    @staticmethod
    def inner(x: Tensor, y: Tensor, keepdims: bool = False) -> Tensor:
        """Lorentzian scalar product ``<x, y>_L = -x0 y0 + sum_i xi yi``."""
        prod = x * y
        spatial = prod[..., 1:].sum(axis=-1, keepdims=keepdims)
        time = prod[..., 0:1].sum(axis=-1, keepdims=keepdims)
        return spatial - time

    @staticmethod
    def distance(x: Tensor, y: Tensor) -> Tensor:
        """Lorentzian distance ``arcosh(-<x, y>_L)`` (Eq. 9's metric)."""
        return _be.kernel("lorentz.distance")(x, y)

    @staticmethod
    def sqdist(x: Tensor, y: Tensor) -> Tensor:
        """Squared Lorentzian distance ``||x - y||_L^2 = -2 - 2 <x, y>_L``.

        A smooth, monotonically increasing surrogate of the geodesic
        distance (``= 2 (cosh d - 1)``), introduced by Law et al. (2019)
        and used by HGCF: unlike ``arcosh``, its gradient stays bounded as
        two points approach, which is what makes margin-ranking training
        on the hyperboloid stable.  Ranking losses in this repo use it;
        scoring may use either (they induce the same ranking).
        """
        return _be.kernel("lorentz.sqdist")(x, y)

    @staticmethod
    def logmap0(x: Tensor) -> Tensor:
        """Logarithmic map at the origin ``o = (1, 0, ..., 0)`` (Eq. 6).

        log_o(x) = arcosh(-<o, x>_L) * (x + <o, x>_L o) / ||x + <o, x>_L o||_L
        """
        return _be.kernel("lorentz.logmap0")(x)

    @staticmethod
    def expmap0(v: Tensor) -> Tensor:
        """Exponential map at the origin (Eq. 8).

        exp_o(v) = cosh(||v||_L) o + sinh(||v||_L) v / ||v||_L

        ``v`` is tangent at the origin (time coordinate 0), so
        ``||v||_L`` equals the Euclidean norm of its spatial part.
        """
        return _be.kernel("lorentz.expmap0")(v)

    @staticmethod
    def dist_to_origin(x: Tensor) -> Tensor:
        """``GR`` quantity of Eq. 13: ``arcosh(-<o, x>_L) = arcosh(x0)``."""
        return arcosh(clamp_min(x[..., 0], 1.0))

    # ------------------------------------------------------------------
    # Optimizer-side geometry (numpy in, numpy out)
    # ------------------------------------------------------------------
    @staticmethod
    def inner_np(x: np.ndarray, y: np.ndarray,
                 keepdims: bool = False) -> np.ndarray:
        prod = x * y
        return (np.sum(prod[..., 1:], axis=-1, keepdims=keepdims)
                - np.sum(prod[..., 0:1], axis=-1, keepdims=keepdims))

    def project(self, x: np.ndarray) -> np.ndarray:
        """Re-project onto the hyperboloid: ``x0 = sqrt(1 + ||x_spatial||^2)``.

        Also clamps points to geodesic distance ``_MAX_DIST`` from the
        origin: runaway embeddings otherwise overflow float64 within a few
        exp-map retractions (cosh compounds multiplicatively).
        """
        spatial = x[..., 1:]
        nrm = np.linalg.norm(spatial, axis=-1, keepdims=True)
        clamped = nrm > _MAX_SPATIAL
        if obs.enabled():
            n_clamped = int(np.count_nonzero(clamped))
            if n_clamped:
                obs.count("manifold/lorentz/dist_clamped", n_clamped)
            obs.gauge_set("manifold/lorentz/max_spatial_norm",
                          float(nrm.max()) if nrm.size else 0.0)
        factor = np.where(clamped,
                          _MAX_SPATIAL / np.maximum(nrm, _MIN_NORM), 1.0)
        spatial = spatial * factor
        time = np.sqrt(1.0 + np.sum(spatial * spatial, axis=-1, keepdims=True))
        return np.concatenate([time, spatial], axis=-1)

    def egrad2rgrad(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Riemannian gradient via metric inverse + tangent projection.

        h = J grad  with  J = diag(-1, 1, ..., 1)   (metric inverse)
        rgrad = h + <x, h>_L x                       (tangent projection)

        This is the exact hyperboloid counterpart of the paper's Eq. 16.
        """
        h = grad.copy()
        h[..., 0] = -h[..., 0]
        coef = self.inner_np(x, h, keepdims=True)
        return h + coef * x

    def proj_tangent(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Orthogonal (w.r.t. <.,.>_L) projection onto T_x H^d:
        ``v + <x, v>_L x``."""
        coef = self.inner_np(x, v, keepdims=True)
        return v + coef * x

    def retract(self, x: np.ndarray, tangent: np.ndarray) -> np.ndarray:
        """Exponential map at ``x`` (Eq. 18), then hyperboloid re-projection."""
        sq = self.inner_np(tangent, tangent, keepdims=True)
        nrm = np.sqrt(np.maximum(sq, 0.0))
        nrm_c = np.minimum(nrm, _MAX_TANGENT_NORM)
        if obs.enabled():
            n_clipped = int(np.count_nonzero(nrm > _MAX_TANGENT_NORM))
            if n_clipped:
                obs.count("manifold/lorentz/tangent_clipped", n_clipped)
        safe = np.maximum(nrm, _MIN_NORM)
        out = np.cosh(nrm_c) * x + np.sinh(nrm_c) * tangent / safe
        return self.project(out)

    def random(self, shape: tuple, rng: np.random.Generator,
               scale: float = 0.1) -> np.ndarray:
        """Sample by lifting Gaussian spatial coordinates onto the sheet.

        ``shape`` is the ambient shape ``(..., d + 1)``.
        """
        spatial = rng.normal(0.0, scale, size=shape[:-1] + (shape[-1] - 1,))
        time = np.sqrt(1.0 + np.sum(spatial * spatial, axis=-1, keepdims=True))
        return np.concatenate([time, spatial], axis=-1)

    @staticmethod
    def origin(dim: int) -> np.ndarray:
        """The hyperboloid origin ``(1, 0, ..., 0)`` with ambient dim+1."""
        return _origin(dim + 1)


# ----------------------------------------------------------------------
# Reference kernel bodies — the original composed-op implementations,
# registered so the backend dispatcher can fall back to them.  The fast
# variants (hand-derived VJPs) live in repro.tensor.fused.
# ----------------------------------------------------------------------
def _distance_reference(x: Tensor, y: Tensor) -> Tensor:
    return arcosh(-Lorentz.inner(x, y))


def _sqdist_reference(x: Tensor, y: Tensor) -> Tensor:
    return -2.0 - 2.0 * Lorentz.inner(x, y)


def _logmap0_reference(x: Tensor) -> Tensor:
    # <o, x>_L = -x0, so x + <o, x>_L o zeroes the time coordinate.
    x0 = x[..., 0:1]
    spatial = x[..., 1:]
    dist = arcosh(clamp_min(x0, 1.0))  # arcosh(-<o,x>_L) = arcosh(x0)
    spatial_norm = norm(spatial, axis=-1, keepdims=True)
    safe = clamp_min(spatial_norm, _MIN_NORM)
    scaled = dist * spatial / safe
    zeros = Tensor(np.zeros(x.data[..., 0:1].shape))
    return cat([zeros, scaled], axis=-1)


def _expmap0_reference(v: Tensor) -> Tensor:
    spatial = v[..., 1:]
    v_norm = norm(spatial, axis=-1, keepdims=True)
    # Clip to avoid cosh overflow for runaway embeddings during training.
    v_norm_c = clamp(v_norm, 0.0, _MAX_TANGENT_NORM)
    safe = clamp_min(v_norm, _MIN_NORM)
    time = cosh(v_norm_c)
    space = sinh(v_norm_c) * spatial / safe
    return cat([time, space], axis=-1)


_be.register_kernel("lorentz.distance", reference=_distance_reference)
_be.register_kernel("lorentz.sqdist", reference=_sqdist_reference)
_be.register_kernel("lorentz.logmap0", reference=_logmap0_reference)
_be.register_kernel("lorentz.expmap0", reference=_expmap0_reference)
