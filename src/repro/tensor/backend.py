"""Pluggable execution backends for the tensor engine.

The autograd engine in :mod:`repro.tensor.tensor` is deliberately simple:
one numpy node per op, float64 everywhere.  That simplicity is also the
train-step bottleneck (BENCH_perf.json), so this module introduces a
*backend* abstraction with exactly two implementations:

``reference``
    The engine as it has always been: float64 compute, generic composed
    ops, fresh allocations.  It is the bit-identity oracle — nothing in
    this module may change a single ULP of its results.  It shares the
    fast adjoints below (:func:`scatter_add_rows`, the cached sparse
    matmul plan) because those are byte-identical to the ``np.add.at``
    and per-call transpose they replace.

``fast``
    Opt-in via ``REPRO_BACKEND=fast`` or ``--backend fast``:

    * float32 compute for intermediates, while :class:`~repro.optim.
      Parameter` masters, leaf-gradient accumulation, and optimizer
      state stay float64 (checkpoints are backend-agnostic);
    * fused forward+backward kernels (:mod:`repro.tensor.fused`) for
      the fixed op chains of hyperbolic geometry, selected through the
      kernel registry below;
    * a per-step :class:`Arena` that recycles activation/gradient
      buffers across steps instead of reallocating;
    * row-slab threading for the ``scipy.sparse`` matmul
      (:mod:`repro.tensor.sparse`) in GCN aggregation.

A backend is process-global (like grad mode): models, manifolds and
optimizers read it at call time, so a model *trained* under one backend
can be *scored* under another — parameters are float64 either way.

Kernel registry
---------------
Geometry hot spots register a reference implementation (the original
composed-op code) and optionally a fast one::

    register_kernel("lorentz.sqdist", reference=_sqdist_ref)
    register_kernel("lorentz.sqdist", fast=fused_sqdist)     # elsewhere

Call sites fetch ``kernel("lorentz.sqdist")`` per invocation; under the
reference backend the fast entry is invisible.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Arena",
    "Backend",
    "arena_stats",
    "available_backends",
    "compute_dtype",
    "describe",
    "get_backend",
    "kernel",
    "publish_metrics",
    "register_kernel",
    "scatter_add_rows",
    "set_backend",
    "step_begin",
    "use_backend",
]


class Arena:
    """Per-step buffer pool keyed by ``(shape, dtype)``.

    ``empty(shape, dtype)`` hands out an uninitialized buffer; calling
    :meth:`new_step` (done by ``Optimizer.zero_grad``) rewinds every
    pool's cursor so the next step reuses the same memory.  Buffers from
    step *t* may therefore be overwritten during step *t + 1* — callers
    must only put graph-lifetime values (activations, gradients) in
    arena buffers, never anything that outlives the step.  The fused
    kernels enforce this by falling back to ``np.empty`` whenever grad
    recording is off (export/eval paths keep references to outputs).

    :meth:`scratch` is a separate persistent pool for optimizer work
    buffers: the same key always returns the same array.
    """

    __slots__ = ("_pools", "_scratch", "hits", "misses")

    def __init__(self) -> None:
        # key -> [cursor, [buffers]]
        self._pools: Dict[Tuple, List] = {}
        self._scratch: Dict[Tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def new_step(self) -> None:
        """Rewind all pools; previously handed-out buffers become reusable."""
        for slot in self._pools.values():
            slot[0] = 0

    def empty(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized ``(shape, dtype)`` buffer, reused across steps."""
        key = (shape, np.dtype(dtype).char)
        slot = self._pools.get(key)
        if slot is None:
            slot = self._pools[key] = [0, []]
        cursor, buffers = slot
        if cursor < len(buffers):
            slot[0] = cursor + 1
            self.hits += 1
            return buffers[cursor]
        buf = np.empty(shape, dtype=dtype)
        buffers.append(buf)
        slot[0] = cursor + 1
        self.misses += 1
        return buf

    def scratch(self, key: Tuple, shape: Tuple[int, ...],
                dtype) -> np.ndarray:
        """A persistent named work buffer (same key -> same array)."""
        buf = self._scratch.get(key)
        if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
            buf = self._scratch[key] = np.empty(shape, dtype=dtype)
        return buf

    def stats(self) -> Dict[str, float]:
        n_buffers = sum(len(slot[1]) for slot in self._pools.values())
        nbytes = sum(b.nbytes for slot in self._pools.values()
                     for b in slot[1])
        total = self.hits + self.misses
        return {
            "buffers": n_buffers,
            "bytes": nbytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }


class Backend:
    """Execution policy: compute dtype, kernel set, arena, thread budget."""

    __slots__ = ("name", "dtype", "fused", "arena", "threads")

    def __init__(self, name: str, dtype: np.dtype, fused: bool,
                 arena: Optional[Arena], threads: int):
        self.name = name
        self.dtype = np.dtype(dtype)
        self.fused = fused
        self.arena = arena
        self.threads = int(threads)

    def __repr__(self) -> str:
        return (f"Backend(name={self.name!r}, dtype={self.dtype.name}, "
                f"fused={self.fused}, threads={self.threads})")


def _default_threads() -> int:
    """Thread budget for the fast backend's sparse matmul.

    ``REPRO_BACKEND_THREADS`` overrides; otherwise use up to 4 cores but
    never oversubscribe — on a single-core box this resolves to 1 and
    the threaded spmm path stays dormant.
    """
    env = os.environ.get("REPRO_BACKEND_THREADS", "")
    if env:
        return max(1, int(env))
    return max(1, min(4, os.cpu_count() or 1))


def _make_backend(name: str) -> Backend:
    if name == "reference":
        return Backend("reference", np.float64, fused=False, arena=None,
                       threads=1)
    if name == "fast":
        return Backend("fast", np.float32, fused=True, arena=Arena(),
                       threads=_default_threads())
    raise ValueError(f"unknown backend {name!r}; "
                     f"available: {available_backends()}")


def available_backends() -> Tuple[str, ...]:
    return ("reference", "fast")


_ACTIVE: Optional[Backend] = None
_LOCK = threading.Lock()


def get_backend() -> Backend:
    """The active backend (resolving ``REPRO_BACKEND`` on first use)."""
    backend = _ACTIVE
    if backend is None:
        with _LOCK:
            backend = _ACTIVE
            if backend is None:
                backend = _make_backend(
                    os.environ.get("REPRO_BACKEND") or "reference")
                _set_active(backend)
    return backend


def _set_active(backend: Backend) -> None:
    global _ACTIVE
    _ACTIVE = backend


def set_backend(name: str) -> Backend:
    """Switch the process-global backend; returns the new one."""
    backend = _make_backend(name)
    _set_active(backend)
    return backend


@contextlib.contextmanager
def use_backend(name: str):
    """Temporarily switch backends (tests, per-phase overrides)."""
    previous = get_backend()
    backend = _make_backend(name)
    _set_active(backend)
    try:
        yield backend
    finally:
        _set_active(previous)


def compute_dtype() -> np.dtype:
    """Dtype for newly created tensors / op intermediates."""
    return get_backend().dtype


def step_begin() -> None:
    """Start-of-step hook (called by ``Optimizer.zero_grad``)."""
    arena = get_backend().arena
    if arena is not None:
        arena.new_step()


def arena_stats() -> Optional[Dict[str, float]]:
    """Arena telemetry for the active backend (``None`` if it has none)."""
    arena = get_backend().arena
    return arena.stats() if arena is not None else None


def describe() -> Dict[str, object]:
    """Active-backend description for run manifests and trace metadata."""
    backend = get_backend()
    info: Dict[str, object] = {
        "name": backend.name, "dtype": backend.dtype.name,
        "fused": backend.fused, "threads": backend.threads}
    stats = arena_stats()
    if stats is not None:
        info["arena"] = stats
    return info


def publish_metrics() -> None:
    """Mirror arena telemetry into obs gauges.

    Called once at the *end* of instrumented work (not per step — the
    arena's byte accounting walks every pool), so run summaries show
    final pool occupancy and hit rate next to the fused-kernel counters.
    No-op without an active run or without an arena.
    """
    from repro import obs
    if not obs.enabled():
        return
    stats = arena_stats()
    if stats is None:
        return
    obs.gauge_set("backend/arena/buffers", float(stats["buffers"]))
    obs.gauge_set("backend/arena/bytes", float(stats["bytes"]))
    obs.gauge_set("backend/arena/hit_rate", float(stats["hit_rate"]))


# ----------------------------------------------------------------------
# Kernel registry
# ----------------------------------------------------------------------
_KERNELS: Dict[str, Dict[str, Callable]] = {}


def register_kernel(name: str, reference: Optional[Callable] = None,
                    fast: Optional[Callable] = None) -> None:
    """Register implementations for a named kernel (merging per variant)."""
    entry = _KERNELS.setdefault(name, {})
    if reference is not None:
        entry["reference"] = reference
    if fast is not None:
        entry["fast"] = fast


def kernel(name: str) -> Callable:
    """Resolve ``name`` for the active backend.

    The fast variant is used only when the active backend asks for fused
    kernels *and* one is registered; everything else falls back to the
    reference implementation, so partially fused backends degrade
    gracefully.
    """
    entry = _KERNELS[name]
    if get_backend().fused:
        fast = entry.get("fast")
        if fast is not None:
            return fast
    return entry["reference"]


def registered_kernels() -> Dict[str, Tuple[str, ...]]:
    """{kernel name: available variants} — introspection for tests/docs."""
    return {name: tuple(sorted(entry)) for name, entry in _KERNELS.items()}


# ----------------------------------------------------------------------
# Shared primitives
# ----------------------------------------------------------------------
# (batch, dtype.char) -> (ones, indptr) for the one-hot scatter matrix.
_SCATTER_CACHE: Dict[Tuple[int, str], Tuple[np.ndarray, np.ndarray]] = {}

try:  # raw CSC matmul kernel; absent on exotic scipy builds
    from scipy.sparse import _sparsetools as _sptools
except ImportError:  # pragma: no cover - scipy always ships it today
    _sptools = None


def scatter_add_rows(grad: np.ndarray, index: np.ndarray,
                     shape: Tuple[int, ...]) -> np.ndarray:
    """Adjoint of a row gather: scatter-add ``grad`` rows into ``shape``.

    Byte-identical to ``np.zeros(shape)`` + ``np.add.at(out, index,
    grad)`` on every backend, but ~10x faster (``add.at`` is
    unbuffered).  The scatter is ``M @ grad`` with ``M`` the one-hot
    (n, batch) selection matrix.  Each of ``M``'s columns holds one
    entry and they arrive in order, so its CSC arrays are free to build
    (indptr = arange, indices = the gather index), and ``csc_matvecs``
    is called directly to skip matrix-construction validation.  That
    kernel computes ``out[index[j]] += 1.0 * grad[j]`` for ascending
    ``j`` starting from zero; ``1.0 * g`` is exact, so every cell sees
    the same additions in the same order as under ``add.at``.

    ``index`` holds integer row ids.  Negative ids wrap as in
    ``np.take``; ids outside ``[-n, n)`` raise ``IndexError``, because
    ``csc_matvecs`` does no bounds checks of its own.  Anything but a
    2-D float32/float64 ``grad`` with one row per id falls back to
    ``add.at``.
    """
    n_rows = shape[0]
    index = np.asarray(index)
    if index.size:
        lo = index.min()
        if not -n_rows <= lo <= index.max() < n_rows:
            raise IndexError(f"row ids out of bounds for axis 0 with size "
                             f"{n_rows}")
        if lo < 0:
            index = np.where(index < 0, index + n_rows, index)
    out = np.zeros(shape, dtype=grad.dtype)
    if (_sptools is None or grad.dtype.char not in "fd" or index.ndim != 1
            or len(shape) != 2 or grad.shape != (len(index), shape[1])):
        np.add.at(out, index, grad)
        return out
    batch = len(index)
    key = (batch, grad.dtype.char)
    cached = _SCATTER_CACHE.get(key)
    if cached is None:
        cached = _SCATTER_CACHE[key] = (
            np.ones(batch, dtype=grad.dtype),
            np.arange(batch + 1, dtype=np.int64))
    ones, indptr = cached
    _sptools.csc_matvecs(shape[0], batch, shape[1], indptr,
                         np.ascontiguousarray(index, dtype=np.int64), ones,
                         np.ascontiguousarray(grad), out)
    return out
