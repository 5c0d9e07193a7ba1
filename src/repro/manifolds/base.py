"""Abstract manifold interface used by the Riemannian optimizer.

A manifold supplies four operations the optimizer needs, all working on raw
numpy arrays (optimizer-side code never builds autograd graphs):

* :meth:`Manifold.project` — map an arbitrary ambient point back onto the
  manifold (used after updates and at initialization);
* :meth:`Manifold.egrad2rgrad` — convert a Euclidean gradient into the
  Riemannian gradient at a point;
* :meth:`Manifold.retract` — move from a point along a tangent vector
  (the exponential map or a first-order approximation of it);
* :meth:`Manifold.random` — sample points for initialization.

Model-side (differentiable) geometry lives on the concrete classes as
Tensor-valued methods.
"""

from __future__ import annotations

import abc

import numpy as np


class Manifold(abc.ABC):
    """Base class for Riemannian manifolds."""

    name: str = "manifold"

    @abc.abstractmethod
    def project(self, x: np.ndarray) -> np.ndarray:
        """Project ambient-space points onto the manifold (numpy)."""

    @abc.abstractmethod
    def egrad2rgrad(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Convert a Euclidean gradient at ``x`` to a Riemannian one."""

    @abc.abstractmethod
    def retract(self, x: np.ndarray, tangent: np.ndarray) -> np.ndarray:
        """Move from ``x`` along ``tangent`` and re-project to the manifold."""

    @abc.abstractmethod
    def random(self, shape: tuple, rng: np.random.Generator,
               scale: float = 0.1) -> np.ndarray:
        """Sample initial points near the origin of the manifold."""

    def proj_tangent(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Project an ambient vector onto the tangent space at ``x``.

        Identity for manifolds whose tangent space is the full ambient
        space (Euclidean, the open Poincare ball); overridden where the
        manifold is a genuine submanifold (the Lorentz hyperboloid).
        """
        return v

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Euclidean(Manifold):
    """Trivial manifold: flat space (standard SGD behaviour)."""

    name = "euclidean"

    def project(self, x: np.ndarray) -> np.ndarray:
        return x

    def egrad2rgrad(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad

    def retract(self, x: np.ndarray, tangent: np.ndarray) -> np.ndarray:
        return x + tangent

    def random(self, shape: tuple, rng: np.random.Generator,
               scale: float = 0.1) -> np.ndarray:
        return rng.normal(0.0, scale, size=shape)
