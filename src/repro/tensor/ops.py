"""Functional operation library for :class:`repro.tensor.Tensor`.

Each op implements a forward numpy computation plus a backward closure that
returns one gradient per input.  Numerically delicate ops (``arcosh``,
``norm``, ``sqrt``) clamp their inputs away from singular points, which is
essential for stable training on hyperbolic manifolds.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.tensor import backend as _backend
from repro.tensor.tensor import Tensor, _as_array

# Stays strictly inside arcosh's domain while being far above float64 eps.
_ARCOSH_EPS = 1e-12
# float32 machine epsilon is ~1.19e-7: the float64 clamp would round to
# exactly 1.0 (making the backward 1/sqrt(x^2-1) infinite), so float32
# inputs clamp at 1 + 1e-6 instead.
_ARCOSH_EPS_F32 = 1e-6


def _arcosh_eps(dtype) -> float:
    return _ARCOSH_EPS if dtype == np.float64 else _ARCOSH_EPS_F32


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(_as_array(value))


# ----------------------------------------------------------------------
# Elementwise ops
# ----------------------------------------------------------------------
def exp(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.exp(x.data)
    return Tensor._make(data, (x,), lambda g: (g * data,))


def log(x: Tensor) -> Tensor:
    x = _wrap(x)
    a = x.data
    return Tensor._make(np.log(a), (x,), lambda g: (g / a,))


def sqrt(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.sqrt(np.maximum(x.data, 0.0))
    safe = np.maximum(data, 1e-15)
    return Tensor._make(data, (x,), lambda g: (g * 0.5 / safe,))


def tanh(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.tanh(x.data)
    return Tensor._make(data, (x,), lambda g: (g * (1.0 - data * data),))


def sigmoid(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor._make(data, (x,), lambda g: (g * data * (1.0 - data),))


def cosh(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.cosh(x.data)
    return Tensor._make(data, (x,), lambda g: (g * np.sinh(x.data),))


def sinh(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.sinh(x.data)
    return Tensor._make(data, (x,), lambda g: (g * np.cosh(x.data),))


def arcosh(x: Tensor) -> Tensor:
    """Inverse hyperbolic cosine with the argument clamped to ``>= 1``.

    The derivative ``1/sqrt(x^2 - 1)`` blows up at ``x = 1``; we clamp the
    forward input to ``1 + eps`` which both keeps the forward finite and
    bounds the backward, the standard trick in hyperbolic embedding code.
    """
    x = _wrap(x)
    clamped = np.maximum(x.data, 1.0 + _arcosh_eps(x.data.dtype))
    data = np.arccosh(clamped)
    denom = np.sqrt(clamped * clamped - 1.0)

    def backward(g):
        grad = g / denom
        # Where the input was clamped the function is locally constant in the
        # feasible direction only; pass the (bounded) clamped-gradient through
        # so optimization can still escape the boundary.
        return (grad,)

    return Tensor._make(data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    x = _wrap(x)
    mask = (x.data > 0).astype(x.data.dtype)
    return Tensor._make(x.data * mask, (x,), lambda g: (g * mask,))


def softplus(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.logaddexp(0.0, x.data)
    sig = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor._make(data, (x,), lambda g: (g * sig,))


def clamp_min(x: Tensor, minimum: float) -> Tensor:
    """Elementwise ``max(x, minimum)``; gradient is zero where clamped."""
    x = _wrap(x)
    mask = (x.data >= minimum).astype(x.data.dtype)
    data = np.maximum(x.data, minimum)
    return Tensor._make(data, (x,), lambda g: (g * mask,))


def clamp(x: Tensor, minimum: Optional[float] = None,
          maximum: Optional[float] = None) -> Tensor:
    x = _wrap(x)
    lo = -np.inf if minimum is None else minimum
    hi = np.inf if maximum is None else maximum
    mask = ((x.data >= lo) & (x.data <= hi)).astype(x.data.dtype)
    data = np.clip(x.data, lo, hi)
    return Tensor._make(data, (x,), lambda g: (g * mask,))


def maximum(a: Tensor, b) -> Tensor:
    """Elementwise max of two tensors (gradient routes to the larger input)."""
    a = _wrap(a)
    b = _wrap(b)
    data = np.maximum(a.data, b.data)
    mask_a = (a.data >= b.data).astype(a.data.dtype)

    def backward(g):
        return g * mask_a, g * (1.0 - mask_a)

    return Tensor._make(data, (a, b), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b`` (condition is data)."""
    a = _wrap(a)
    b = _wrap(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(g):
        return np.where(cond, g, 0.0), np.where(cond, 0.0, g)

    return Tensor._make(data, (a, b), backward)


# ----------------------------------------------------------------------
# Reductions and linear algebra
# ----------------------------------------------------------------------
def sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return _wrap(x).sum(axis=axis, keepdims=keepdims)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _wrap(x).mean(axis=axis, keepdims=keepdims)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _wrap(a) @ _wrap(b)


def dot(a: Tensor, b: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Batched inner product along ``axis``."""
    return (_wrap(a) * _wrap(b)).sum(axis=axis, keepdims=keepdims)


def norm(x: Tensor, axis: int = -1, keepdims: bool = False,
         eps: float = 1e-15) -> Tensor:
    """Euclidean norm along ``axis`` with a safe gradient at zero.

    ``d||x||/dx = x / ||x||`` is undefined at the origin; we divide by
    ``max(||x||, eps)`` which yields a zero (not NaN) gradient there.
    """
    x = _wrap(x)
    sq = np.sum(x.data * x.data, axis=axis, keepdims=True)
    nrm = np.sqrt(sq)
    safe = np.maximum(nrm, eps)
    data = nrm if keepdims else np.squeeze(nrm, axis=axis)

    def backward(g):
        g = np.asarray(g)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (g * x.data / safe,)

    return Tensor._make(data, (x,), backward)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable ``log(sum(exp(x)))`` reduction."""
    x = _wrap(x)
    m = np.max(x.data, axis=axis, keepdims=True)
    shifted = np.exp(x.data - m)
    total = np.sum(shifted, axis=axis, keepdims=True)
    data = m + np.log(total)
    softmax = shifted / total
    if not keepdims:
        data = np.squeeze(data, axis=axis)

    def backward(g):
        g = np.asarray(g)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (g * softmax,)

    return Tensor._make(data, (x,), backward)


# ----------------------------------------------------------------------
# Indexing / composition
# ----------------------------------------------------------------------
def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``x[index]``; the adjoint scatter-adds duplicates.

    This is the embedding-lookup primitive: ``index`` may repeat ids and
    gradients for repeated rows accumulate, exactly as ``nn.Embedding``.
    """
    x = _wrap(x)
    idx = np.asarray(index, dtype=np.int64)
    # np.take == x.data[idx] bit-for-bit but skips the fancy-indexing
    # dispatch overhead on the embedding-lookup hot path.
    data = np.take(x.data, idx, axis=0)
    shape = x.data.shape

    def backward(g):
        # One CSC-matmul scatter, byte-identical to zeros + np.add.at.
        return (_backend.scatter_add_rows(g, idx, shape),)

    return Tensor._make(data, (x,), backward)


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        pieces = []
        for i in range(len(tensors)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(sl)])
        return tuple(pieces)

    return Tensor._make(data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(data, tensors, backward)
