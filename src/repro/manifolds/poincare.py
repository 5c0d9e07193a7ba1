"""The Poincare ball model ``P^d = {x in R^d : ||x|| < 1}``.

Implements the distance metric of Section III-A, Mobius addition and the
Mobius exponential map of Eq. (17), projection to the open ball, and the
conformal Riemannian gradient rescaling used by Riemannian SGD.

Differentiable (Tensor) methods are used inside model forward passes;
numpy methods (``project``, ``egrad2rgrad``, ``retract``) are used by the
optimizer.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.manifolds.base import Manifold
from repro.tensor import Tensor, arcosh, clamp_min, norm, tanh
from repro.tensor import backend as _be

# Maximum norm kept strictly inside the open unit ball.  1e-5 of slack keeps
# the conformal factor (1 - ||x||^2) comfortably above float64 noise.
_BOUNDARY_EPS = 1e-5
_MIN_NORM = 1e-15


class PoincareBall(Manifold):
    """Poincare ball with curvature -1."""

    name = "poincare"

    # ------------------------------------------------------------------
    # Differentiable geometry (Tensor in, Tensor out)
    # ------------------------------------------------------------------
    @staticmethod
    def distance(x: Tensor, y: Tensor) -> Tensor:
        """Poincare distance ``d_P`` (Section III-A), batched on last axis.

        d_P(x, y) = arcosh(1 + 2 ||x-y||^2 / ((1-||x||^2)(1-||y||^2))).
        """
        return _be.kernel("poincare.distance")(x, y)

    @staticmethod
    def mobius_add(x: Tensor, y: Tensor) -> Tensor:
        """Mobius addition ``x (+) y`` (gyro-vector addition, Eq. 17)."""
        return _be.kernel("poincare.mobius_add")(x, y)

    @staticmethod
    def expmap(x: Tensor, v: Tensor) -> Tensor:
        """Mobius exponential map ``x (+) tanh(lambda_x ||v|| / 2) v/||v||``.

        The paper's Eq. (17) writes ``tanh(||v||/2)`` without the conformal
        factor ``lambda_x = 2 / (1 - ||x||^2)``; we include it (the full
        Ganea et al. exp map).  Without it, points near the boundary —
        where the Riemannian gradient has a tiny Euclidean norm by design —
        take vanishing steps and freeze, which we observed directly when
        optimizing Poincare distances.
        """
        lam = 2.0 / clamp_min(1.0 - (x * x).sum(axis=-1, keepdims=True),
                              _MIN_NORM)
        v_norm = norm(v, axis=-1, keepdims=True)
        safe = clamp_min(v_norm, _MIN_NORM)
        y = tanh(lam * v_norm * 0.5) * (v / safe)
        return PoincareBall.mobius_add(x, y)

    @staticmethod
    def expmap0(v: Tensor) -> Tensor:
        """Exponential map at the origin: ``tanh(||v||) v/||v||``."""
        return _be.kernel("poincare.expmap0")(v)

    @staticmethod
    def dist_to_origin(x: Tensor) -> Tensor:
        """``d_P(x, 0) = 2 artanh(||x||)``, used for granularity analyses."""
        x_norm = norm(x, axis=-1)
        x_sq = (x * x).sum(axis=-1)
        denom = clamp_min(1.0 - x_sq, _MIN_NORM)
        return arcosh(1.0 + 2.0 * x_sq / denom)

    # ------------------------------------------------------------------
    # Optimizer-side geometry (numpy in, numpy out)
    # ------------------------------------------------------------------
    def project(self, x: np.ndarray) -> np.ndarray:
        """Clip points to the open ball of radius ``1 - _BOUNDARY_EPS``.

        Telemetry counts every clipped point: boundary saturation is the
        canonical Poincare failure mode (the conformal factor collapses
        and training freezes), so a rising clamp rate is the health
        signal to watch.
        """
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        max_norm = 1.0 - _BOUNDARY_EPS
        clamped = norms > max_norm
        if obs.enabled():
            n_clamped = int(np.count_nonzero(clamped))
            if n_clamped:
                obs.count("manifold/poincare/boundary_clamped", n_clamped)
            obs.gauge_set("manifold/poincare/max_norm",
                          float(norms.max()) if norms.size else 0.0)
        factor = np.where(clamped,
                          max_norm / np.maximum(norms, _MIN_NORM), 1.0)
        return x * factor

    def egrad2rgrad(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Rescale by the inverse metric: ``((1-||x||^2)/2)^2 * grad``."""
        sq_norm = np.sum(x * x, axis=-1, keepdims=True)
        factor = ((1.0 - sq_norm) / 2.0) ** 2
        return factor * grad

    def retract(self, x: np.ndarray, tangent: np.ndarray) -> np.ndarray:
        """Mobius exp-map retraction (numpy mirror of :meth:`expmap`,
        including the conformal factor — see the docstring there)."""
        lam = 2.0 / np.maximum(
            1.0 - np.sum(x * x, axis=-1, keepdims=True), _MIN_NORM)
        v_norm = np.linalg.norm(tangent, axis=-1, keepdims=True)
        safe = np.maximum(v_norm, _MIN_NORM)
        arg = lam * v_norm * 0.5
        if obs.enabled():
            n_clipped = int(np.count_nonzero(arg > 32.0))
            if n_clipped:
                obs.count("manifold/poincare/tangent_clipped", n_clipped)
        y = np.tanh(np.minimum(arg, 32.0)) * tangent / safe
        return self.project(self._mobius_add_np(x, y))

    @staticmethod
    def _mobius_add_np(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        xy = np.sum(x * y, axis=-1, keepdims=True)
        x_sq = np.sum(x * x, axis=-1, keepdims=True)
        y_sq = np.sum(y * y, axis=-1, keepdims=True)
        numerator = (1.0 + 2.0 * xy + y_sq) * x + (1.0 - x_sq) * y
        denominator = np.maximum(1.0 + 2.0 * xy + x_sq * y_sq, _MIN_NORM)
        return numerator / denominator

    def random(self, shape: tuple, rng: np.random.Generator,
               scale: float = 0.1) -> np.ndarray:
        """Gaussian points near the origin, projected into the ball."""
        return self.project(rng.normal(0.0, scale, size=shape))


# ----------------------------------------------------------------------
# Reference kernel bodies (original composed-op code); fast variants are
# the hand-derived VJPs in repro.tensor.fused.
# ----------------------------------------------------------------------
def _distance_reference(x: Tensor, y: Tensor) -> Tensor:
    diff_sq = ((x - y) ** 2).sum(axis=-1)
    x_sq = (x * x).sum(axis=-1)
    y_sq = (y * y).sum(axis=-1)
    denom = clamp_min((1.0 - x_sq) * (1.0 - y_sq), _MIN_NORM)
    return arcosh(1.0 + 2.0 * diff_sq / denom)


def _mobius_add_reference(x: Tensor, y: Tensor) -> Tensor:
    xy = (x * y).sum(axis=-1, keepdims=True)
    x_sq = (x * x).sum(axis=-1, keepdims=True)
    y_sq = (y * y).sum(axis=-1, keepdims=True)
    numerator = (1.0 + 2.0 * xy + y_sq) * x + (1.0 - x_sq) * y
    denominator = clamp_min(1.0 + 2.0 * xy + x_sq * y_sq, _MIN_NORM)
    return numerator / denominator


def _expmap0_reference(v: Tensor) -> Tensor:
    v_norm = norm(v, axis=-1, keepdims=True)
    safe = clamp_min(v_norm, _MIN_NORM)
    return tanh(v_norm) * (v / safe)


_be.register_kernel("poincare.distance", reference=_distance_reference)
_be.register_kernel("poincare.mobius_add", reference=_mobius_add_reference)
_be.register_kernel("poincare.expmap0", reference=_expmap0_reference)
