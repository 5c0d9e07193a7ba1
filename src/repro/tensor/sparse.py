"""Sparse matrix multiplication op for graph convolutions.

Graph convolution layers repeatedly compute ``A @ X`` where ``A`` is a fixed
(normalized) sparse adjacency matrix and ``X`` a dense embedding matrix that
requires grad.  The adjoint is ``A.T @ dY``.  ``A`` itself is never a
learnable parameter in any of the reproduced models, so no gradient flows
into it.

Both backends multiply through a per-matrix *plan* cached on the
adjacency object: the CSR cast to the compute dtype and its transpose,
built once rather than per forward (the adjacency is treated as
immutable; build a new matrix to change it).  Under the ``reference``
backend the plan is float64 with one thread, so forward and backward
are exactly ``csr @ x`` and ``csr.T.tocsr() @ g`` — the original op.
When the ``fast`` backend has a thread budget and the product is large
enough to amortize dispatch, the plan also holds disjoint row slabs that
a shared thread pool multiplies into one preallocated output.  On a
single-core machine the thread budget resolves to 1 and the slab path
stays dormant.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.tensor import backend as _backend
from repro.tensor.tensor import Tensor

# Minimum output elements / stored entries before row-slab threading can
# win over its dispatch overhead.
_THREAD_MIN_OUT = 1 << 16
_THREAD_MIN_NNZ = 1 << 14

_CACHE_ATTR = "_repro_spmm_plan"

_pool_lock = threading.Lock()
_pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
_pool_size = 0


def _executor(threads: int) -> concurrent.futures.ThreadPoolExecutor:
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < threads:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-spmm")
            _pool_size = threads
        return _pool


class _SpmmPlan:
    """Precomputed forward/backward operators for one adjacency matrix."""

    __slots__ = ("dtype", "threads", "csr", "csr_t", "blocks", "blocks_t")

    def __init__(self, csr: sp.csr_matrix, dtype: np.dtype, threads: int):
        self.dtype = dtype
        self.threads = threads
        self.csr = csr.astype(dtype, copy=False)
        self.csr_t = self.csr.T.tocsr()
        self.blocks = self._slabs(self.csr)
        self.blocks_t = self._slabs(self.csr_t)

    def _slabs(self, csr: sp.csr_matrix
               ) -> Optional[List[Tuple[int, int, sp.csr_matrix]]]:
        if self.threads <= 1 or csr.nnz < _THREAD_MIN_NNZ:
            return None
        rows = csr.shape[0]
        n_blocks = min(self.threads, rows)
        bounds = np.linspace(0, rows, n_blocks + 1, dtype=np.int64)
        return [(int(r0), int(r1), csr[r0:r1])
                for r0, r1 in zip(bounds[:-1], bounds[1:]) if r1 > r0]

    def _apply(self, csr: sp.csr_matrix,
               blocks: Optional[List[Tuple[int, int, sp.csr_matrix]]],
               dense: np.ndarray) -> np.ndarray:
        if (blocks is not None
                and csr.shape[0] * dense.shape[-1] >= _THREAD_MIN_OUT):
            out = np.empty((csr.shape[0], dense.shape[1]),
                           dtype=np.result_type(self.dtype, dense.dtype))

            def work(block):
                r0, r1, sub = block
                out[r0:r1] = sub @ dense

            list(_executor(self.threads).map(work, blocks))
            return out
        return csr @ dense

    def forward(self, dense: np.ndarray) -> np.ndarray:
        return self._apply(self.csr, self.blocks, dense)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self._apply(self.csr_t, self.blocks_t, grad)


def _plan_for(matrix: sp.spmatrix,
              backend: "_backend.Backend") -> _SpmmPlan:
    plan = getattr(matrix, _CACHE_ATTR, None)
    if (plan is None or plan.dtype != backend.dtype
            or plan.threads != backend.threads):
        plan = _SpmmPlan(matrix.tocsr(), backend.dtype, backend.threads)
        try:
            setattr(matrix, _CACHE_ATTR, plan)
        except AttributeError:
            pass  # exotic matrix types without a __dict__: just rebuild
    return plan


def sparse_matmul(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """Compute ``matrix @ x`` where ``matrix`` is scipy-sparse and constant.

    Parameters
    ----------
    matrix:
        A ``scipy.sparse`` matrix of shape ``(m, n)``; converted to CSR
        once and cached with its transpose (see the module docstring).
    x:
        Dense :class:`Tensor` of shape ``(n, d)``.
    """
    if not sp.issparse(matrix):
        raise TypeError("sparse_matmul expects a scipy.sparse matrix")
    if matrix.shape[1] != x.data.shape[0]:
        raise ValueError(
            f"shape mismatch: {matrix.shape} @ {x.data.shape}")
    plan = _plan_for(matrix, _backend.get_backend())
    data = plan.forward(x.data)
    return Tensor._make(data, (x,), lambda g: (plan.backward(g),))
