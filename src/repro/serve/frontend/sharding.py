"""User-range sharding of a :class:`RetrievalIndex` over shared memory.

The front-end splits the frozen index by **user range** into
``n_shards`` contiguous slices.  User-side tables (the ``user`` /
``user_h`` / ``user_e`` embedding rows, the ``dense`` score rows, and
the per-user CSR seen-mask) are sliced per shard; item-side tables
(item embeddings, biases, the popularity ranking) are identical for
every shard and stored **once**.  Each distinct array lands in its own
:class:`multiprocessing.shared_memory.SharedMemory` segment, so worker
processes map the tables zero-copy — attaching a shard is a handful of
``shm_open`` calls plus ``np.ndarray(buffer=...)`` views, never a
deserialization of the index.

Ownership is explicit: :func:`create_shards` returns a
:class:`SharedIndexArena` that owns the segments (close+unlink on
:meth:`SharedIndexArena.close`) plus a picklable :class:`ShardLayout`
describing them; :func:`attach_shard` re-materializes one shard as a
plain :class:`~repro.serve.index.RetrievalIndex` over **shard-local**
user ids (row 0 is global user ``lo``) — the worker translates ids at
its boundary, and everything downstream (engine, cache, masks) runs
unchanged, bit-identical to the unsharded index.

Cross-process timestamps elsewhere in the front-end rely on
``time.monotonic()`` being comparable between processes; on Linux both
``monotonic`` and ``perf_counter`` read the system-wide
``CLOCK_MONOTONIC``, which is the platform this module targets
(``multiprocessing.shared_memory`` + fork).
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

from repro.serve.index import RetrievalIndex

__all__ = ["SharedIndexArena", "ShardLayout", "ShardSegment",
           "ShardSpec", "attach_shard", "create_shards",
           "shard_boundaries"]

# Slots whose leading axis is the user axis; everything else is
# item-side (or scalar) and shared across shards.
_USER_SLOTS = frozenset({"user", "user_h", "user_e", "scores"})


@dataclass(frozen=True)
class ShardSegment:
    """One shared-memory-backed array: segment name + array geometry."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize
                   * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class ShardSpec:
    """One user-range shard: ``[lo, hi)`` plus its array segments.

    ``arrays`` maps slot name → segment for the scoring tables
    (user-side slots sliced to the range, item-side slots pointing at
    the shared segments); ``indptr`` / ``indices`` are the shard-local
    seen-mask CSR (``indptr[0] == 0``); ``popularity`` is the shared
    global ranking.
    """

    shard_id: int
    lo: int
    hi: int
    arrays: Dict[str, ShardSegment]
    indptr: ShardSegment
    indices: ShardSegment
    popularity: ShardSegment

    @property
    def n_users(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class ShardLayout:
    """Picklable description of a sharded index (what workers receive)."""

    kind: str
    scalars: Dict[str, float]
    meta: Dict[str, object]
    n_users: int
    n_items: int
    shards: List[ShardSpec] = field(default_factory=list)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_for_user(self, user_id: int) -> int:
        """Shard owning ``user_id`` (caller checks the id is known)."""
        for spec in self.shards:
            if spec.lo <= user_id < spec.hi:
                return spec.shard_id
        raise KeyError(f"user {user_id} is outside every shard range")


def shard_boundaries(n_users: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal user ranges; later shards may be empty
    when ``n_shards > n_users`` (their workers simply never see
    traffic)."""
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    edges = [n_users * i // n_shards for i in range(n_shards + 1)]
    return [(edges[i], edges[i + 1]) for i in range(n_shards)]


class SharedIndexArena:
    """Owner of the shared-memory segments behind a :class:`ShardLayout`.

    Create with :func:`create_shards`; call :meth:`close` (idempotent)
    to release them.  The arena registers nothing global — whoever
    builds it is responsible for closing it, which the front-end does
    in its ``stop()`` path and tests do in ``finally`` blocks.
    """

    def __init__(self, layout: ShardLayout,
                 segments: List[shared_memory.SharedMemory]):
        self.layout = layout
        self._segments = segments
        self._closed = False

    def close(self, unlink: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        for shm in self._segments:
            try:
                shm.close()
            except OSError:  # pragma: no cover - already gone
                pass
            if unlink:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    def __del__(self):  # pragma: no cover - backstop only
        self.close()


def _new_segment(prefix: str, label: str, array: np.ndarray,
                 segments: List[shared_memory.SharedMemory]
                 ) -> ShardSegment:
    """Copy ``array`` into a fresh named segment; records the handle."""
    array = np.ascontiguousarray(array)
    name = f"{prefix}_{label}"
    # SharedMemory refuses size=0; empty arrays (an empty shard's user
    # table) get a 1-byte segment and reattach via the recorded shape.
    shm = shared_memory.SharedMemory(name=name, create=True,
                                     size=max(1, array.nbytes))
    segments.append(shm)
    if array.nbytes:
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
    return ShardSegment(name=name, shape=tuple(array.shape),
                        dtype=array.dtype.str)


def create_shards(index: RetrievalIndex, n_shards: int,
                  name_prefix: str = None) -> SharedIndexArena:
    """Split ``index`` into ``n_shards`` shared-memory user-range shards.

    Segment names are prefixed ``repro_shm_<pid>_<token>`` so parallel
    front-ends (tests, CI) never collide and leaked segments are
    greppable in ``/dev/shm``.
    """
    prefix = name_prefix or \
        f"repro_shm_{os.getpid()}_{secrets.token_hex(4)}"
    segments: List[shared_memory.SharedMemory] = []
    try:
        shared_slots: Dict[str, ShardSegment] = {}
        for slot, array in index.arrays.items():
            if slot not in _USER_SLOTS:
                shared_slots[slot] = _new_segment(
                    prefix, f"item_{slot}", array, segments)
        popularity = _new_segment(prefix, "popularity", index.popularity,
                                  segments)
        specs: List[ShardSpec] = []
        for shard_id, (lo, hi) in enumerate(
                shard_boundaries(index.n_users, n_shards)):
            arrays = dict(shared_slots)
            for slot, array in index.arrays.items():
                if slot in _USER_SLOTS:
                    arrays[slot] = _new_segment(
                        prefix, f"s{shard_id}_{slot}", array[lo:hi],
                        segments)
            start, end = (int(index.train_indptr[lo]),
                          int(index.train_indptr[hi]))
            indptr = _new_segment(
                prefix, f"s{shard_id}_indptr",
                index.train_indptr[lo:hi + 1] - start, segments)
            indices = _new_segment(
                prefix, f"s{shard_id}_indices",
                index.train_indices[start:end], segments)
            specs.append(ShardSpec(shard_id=shard_id, lo=lo, hi=hi,
                                   arrays=arrays, indptr=indptr,
                                   indices=indices,
                                   popularity=popularity))
        layout = ShardLayout(kind=index.kind, scalars=dict(index.scalars),
                             meta=dict(index.meta),
                             n_users=index.n_users,
                             n_items=index.n_items, shards=specs)
        return SharedIndexArena(layout, segments)
    except BaseException:
        for shm in segments:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        raise


class _AttachedShard:
    """A worker-side shard: local index view + the handles keeping the
    shared-memory mappings alive (close on :meth:`close`, never unlink
    — the arena owns that)."""

    def __init__(self, index: RetrievalIndex, lo: int, hi: int,
                 handles: List[shared_memory.SharedMemory]):
        self.index = index
        self.lo = lo
        self.hi = hi
        self._handles = handles

    def close(self) -> None:
        for shm in self._handles:
            try:
                shm.close()
            except OSError:  # pragma: no cover
                pass
        self._handles = []


def _attach_array(segment: ShardSegment,
                  handles: List[shared_memory.SharedMemory],
                  cache: Dict[str, shared_memory.SharedMemory]
                  ) -> np.ndarray:
    shm = cache.get(segment.name)
    if shm is None:
        # Attaching re-registers the name with the resource tracker
        # (no ``track=False`` before 3.13).  Workers are *forked*, so
        # they share the parent's tracker process and the re-register
        # is an idempotent set-add; the arena's ``unlink`` unregisters
        # the name exactly once.  Do NOT unregister here — that would
        # strip the parent's own registration out from under it.
        shm = shared_memory.SharedMemory(name=segment.name)
        cache[segment.name] = shm
        handles.append(shm)
    if not int(np.prod(segment.shape, dtype=np.int64)):
        return np.empty(segment.shape, dtype=np.dtype(segment.dtype))
    return np.ndarray(segment.shape, dtype=np.dtype(segment.dtype),
                      buffer=shm.buf)


def attach_shard(layout: ShardLayout, shard_id: int) -> _AttachedShard:
    """Map one shard zero-copy; returns the local index view + handles.

    The returned index is a plain :class:`RetrievalIndex` over
    **shard-local** user ids (``score_users([0])`` scores global
    user ``spec.lo``) whose array views alias the shared segments directly.
    """
    spec = layout.shards[shard_id]
    handles: List[shared_memory.SharedMemory] = []
    cache: Dict[str, shared_memory.SharedMemory] = {}
    try:
        arrays = {slot: _attach_array(seg, handles, cache)
                  for slot, seg in spec.arrays.items()}
        indptr = _attach_array(spec.indptr, handles, cache)
        indices = _attach_array(spec.indices, handles, cache)
        popularity = _attach_array(spec.popularity, handles, cache)
        meta = dict(layout.meta)
        meta["n_users"] = spec.n_users
        meta["n_items"] = layout.n_items
        meta["shard"] = {"shard_id": spec.shard_id, "lo": spec.lo,
                         "hi": spec.hi,
                         "global_n_users": layout.n_users}
        index = RetrievalIndex(kind=layout.kind, arrays=arrays,
                               scalars=dict(layout.scalars),
                               train_indptr=indptr,
                               train_indices=indices,
                               popularity=popularity, meta=meta)
        return _AttachedShard(index, spec.lo, spec.hi, handles)
    except BaseException:
        for shm in handles:
            shm.close()
        raise
