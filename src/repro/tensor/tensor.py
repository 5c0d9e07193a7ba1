"""Core :class:`Tensor` type with reverse-mode automatic differentiation.

The design follows the classic tape-based approach: every differentiable
operation records its parents and a backward closure on the result tensor.
Calling :meth:`Tensor.backward` topologically sorts the graph and accumulates
gradients into ``.grad`` of every leaf with ``requires_grad=True``.

Data is stored in the *compute dtype* of the active backend
(:mod:`repro.tensor.backend`): float64 under the ``reference`` backend —
hyperbolic geometry is numerically delicate (``arcosh`` near 1, Poincare
norms near 1), so the oracle engine does not trade precision for speed —
and float32 under the opt-in ``fast`` backend.  Leaf tensors may pin an
explicit ``dtype`` (:class:`repro.optim.Parameter` pins float64 so
checkpoints and optimizer state are backend-agnostic); gradient
accumulation into a leaf always casts to the leaf's dtype, giving
float32 compute with float64 parameter/gradient masters.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.tensor import backend as _backend

Scalar = Union[int, float, np.floating]
ArrayLike = Union[Scalar, Sequence, np.ndarray, "Tensor"]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Numpy broadcasting may both prepend dimensions and stretch size-1 axes;
    the adjoint of broadcasting is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched size-1 axes.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is numpy *basic* indexing (a view, no repeats).

    Slices, integers, ``None`` and ``Ellipsis``, alone or in a tuple.
    ``bool`` is excluded: numpy treats it as a boolean mask.
    """
    items = index if isinstance(index, tuple) else (index,)
    return all(item is None or item is Ellipsis
               or isinstance(item, (slice, int, np.integer))
               and not isinstance(item, bool)
               for item in items)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=_backend.compute_dtype())


class Tensor:
    """A numpy array plus a node in a dynamically built computation graph.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts; stored in the active
        backend's compute dtype unless ``dtype`` pins one explicitly.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream scalar.
    dtype:
        Explicit storage dtype; ``None`` (the default) uses the active
        backend's compute dtype.  Parameters pin float64 regardless of
        backend so model/optimizer state stays backend-agnostic.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # make numpy defer to our __radd__ etc.

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: str = "", dtype: Optional[np.dtype] = None):
        self.data = np.asarray(
            data, dtype=_backend.compute_dtype() if dtype is None else dtype)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()
        self.name = name

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[[np.ndarray], None],
              dtype=None) -> "Tensor":
        """Create a result tensor, wiring the graph only if grad is enabled.

        ``dtype`` pins the result dtype against the backend's compute
        dtype — used by kernels whose output must stay float64 under the
        fast backend (loss accumulation).
        """
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, dtype=dtype)
        if needs:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``.grad``, cast to this leaf's dtype.

        The cast is what implements mixed precision: under the fast
        backend intermediates flow float32, but a float64 leaf (every
        ``Parameter``) accumulates in float64.  Under the reference
        backend everything is float64 already and the cast is a no-op.

        ``owned=True`` promises the caller holds the only reference to
        ``grad``, letting the first accumulation adopt the buffer instead
        of copying it.  Later accumulations add in place either way —
        ``.grad`` is always a buffer this tensor owns.
        """
        grad = _unbroadcast(grad, self.data.shape)
        if grad.dtype != self.data.dtype:
            grad = grad.astype(self.data.dtype)
            owned = True  # astype allocated a fresh buffer
        if self.grad is None:
            self.grad = grad if owned else grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        If this tensor is not a scalar, an explicit ``grad`` of the same
        shape must be supplied.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not "
                               "require grad")
        owned: set[int] = set()
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be specified for non-scalar "
                                   "tensors")
            grad = np.ones_like(self.data)
            owned.add(id(self))  # freshly allocated: safe to mutate
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order via iterative DFS (recursion would overflow on
        # deep graphs such as multi-layer GCNs unrolled over epochs).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # NaN/inf gradient detection (debug flag): scanning every buffer
        # costs a full pass per node, so it only runs when a repro.obs run
        # with nan_checks is active (CLI --trace).
        nan_check = obs.nan_checks_enabled()
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if nan_check:
                finite = np.isfinite(node_grad)
                if not finite.all():
                    n_bad = int(finite.size - np.count_nonzero(finite))
                    obs.count("autograd/nonfinite_grads")
                    obs.count("autograd/nonfinite_grad_elems", n_bad)
                    obs.event("autograd.nonfinite_grad",
                              tensor=node.name or "<unnamed>",
                              shape=list(node.data.shape), n_bad=n_bad,
                              is_leaf=node._backward is None)
            if node._backward is not None:
                node._push_parent_grads(node_grad, grads, owned)
            elif node.requires_grad:
                # Leaf: fold the finished gradient into .grad, adopting the
                # buffer when this backward pass holds the only reference.
                node._accumulate(node_grad, owned=id(node) in owned)

    def _push_parent_grads(self, grad: np.ndarray,
                           grads: dict[int, np.ndarray],
                           owned: set[int]) -> None:
        """Run this node's backward closure, routing grads to parents.

        The backward closure receives the output gradient and returns one
        gradient (or ``None``) per parent, in order.  Gradients collect in
        ``grads`` until the main loop pops the parent — leaves then land in
        ``.grad``, intermediate nodes propagate further.

        A closure may alias its output gradients (``add`` returns ``(g,
        g)``), so a parent's first contribution is stored as-is and never
        mutated; the second allocates a sum the pass owns (tracked in
        ``owned``) and any further contributions add into it in place.
        """
        parent_grads = self._backward(grad)
        if not isinstance(parent_grads, tuple):
            parent_grads = (parent_grads,)
        for parent, pgrad in zip(self._parents, parent_grads):
            if pgrad is None:
                continue
            if not isinstance(pgrad, np.ndarray):
                # Closures return ndarrays on every hot path; this guards
                # scalar edge cases.  The gradient keeps the dtype it was
                # computed in — leaves cast on accumulation.
                pgrad = np.asarray(pgrad, dtype=grad.dtype)
            pgrad = _unbroadcast(pgrad, parent.data.shape)
            pid = id(parent)
            if pid not in grads:
                grads[pid] = pgrad
            elif pid in owned:
                grads[pid] += pgrad
            else:
                grads[pid] = grads[pid] + pgrad
                owned.add(pid)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, dtype=self.data.dtype)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    # Constants (Python scalars, numpy arrays) are differentiated against
    # nothing, so the non-Tensor branches below skip the Tensor wrapper and
    # graph edge entirely instead of allocating a throwaway leaf per call.
    def __add__(self, other: ArrayLike) -> "Tensor":
        if isinstance(other, Tensor):
            return Tensor._make(self.data + other.data, (self, other),
                                lambda g: (g, g))
        return Tensor._make(self.data + _as_array(other), (self,),
                            lambda g: (g,))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        if isinstance(other, Tensor):
            return Tensor._make(self.data - other.data, (self, other),
                                lambda g: (g, -g))
        return Tensor._make(self.data - _as_array(other), (self,),
                            lambda g: (g,))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor._make(_as_array(other) - self.data, (self,),
                            lambda g: (-g,))

    def __mul__(self, other: ArrayLike) -> "Tensor":
        if isinstance(other, Tensor):
            a, b = self.data, other.data
            return Tensor._make(a * b, (self, other),
                                lambda g: (g * b, g * a))
        b = _as_array(other)
        return Tensor._make(self.data * b, (self,), lambda g: (g * b,))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        if isinstance(other, Tensor):
            a, b = self.data, other.data
            return Tensor._make(a / b, (self, other),
                                lambda g: (g / b, -g * a / (b * b)))
        b = _as_array(other)
        return Tensor._make(self.data / b, (self,), lambda g: (g / b,))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        a = self.data
        b = _as_array(other)
        return Tensor._make(b / a, (self,),
                            lambda g: (-g * b / (a * a),))

    def __pow__(self, exponent: Scalar) -> "Tensor":
        exponent = float(exponent)
        data = self.data ** exponent
        a = self.data
        return Tensor._make(data, (self,),
                            lambda g: (g * exponent * a ** (exponent - 1),))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        a, b = self.data, other_t.data
        data = a @ b

        def backward(g):
            ga = g @ b.swapaxes(-1, -2)
            gb = a.swapaxes(-1, -2) @ g
            return ga, gb

        return Tensor._make(data, (self, other_t), backward)

    # Comparisons return plain numpy boolean arrays (no gradient flows).
    def __gt__(self, other: ArrayLike):
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike):
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike):
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike):
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # Shaping / indexing
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)
        return Tensor._make(data, (self,),
                            lambda g: (g.reshape(original),))

    def transpose(self) -> "Tensor":
        """Transpose the last two axes."""
        data = self.data.swapaxes(-1, -2)
        return Tensor._make(data, (self,),
                            lambda g: (g.swapaxes(-1, -2),))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        shape = self.data.shape

        def backward(g):
            out = np.zeros(shape, dtype=g.dtype)
            if _is_basic_index(index):
                # A basic index selects each cell at most once, so the
                # view add is add.at's ``0.0 + g`` without the unbuffered
                # loop.
                out[index] += g
            else:
                np.add.at(out, index, g)
            return (out,)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions (also available as module-level functions in ops.py)
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g):
            g = np.asarray(g)
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)
