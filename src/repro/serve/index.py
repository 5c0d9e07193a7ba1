"""Offline retrieval index: frozen scoring tables + request-time masks.

:func:`build_index` freezes a trained model's scoring arithmetic via
:meth:`Recommender.export_scoring` into a :class:`RetrievalIndex`.  For
graph models this is the payoff of serving offline: ``score_users`` on
the live model re-runs the full (hyperbolic) graph convolution per call,
while the index stores the *propagated* tables once and replays only the
final distance arithmetic — one GEMM per batch of requests.

Exactness contract
------------------
``RetrievalIndex.score_users(ids)`` is :func:`repro.manifolds.score_rows`
on the spec the model exported, so it is the live model's
``score_users`` on the same ids.  A batch is one GEMM, and a batched
row can differ from the ``(1, d)`` row ``recommend()`` scores in the
last ulp (BLAS blocking).  The contract is therefore on rankings: the
engine's top-K for a user equals ``recommend()``'s under the tie rule
(descending score, ties by ascending item id), with one named
exception — items whose scores lie within a few ulps of each other
(near-ties) may swap places.  ``tests/test_ranking_contract.py``
checks it for every score kind (DESIGN.md §8).

The index also carries everything request handling needs beyond scores:
the train-interaction CSR structure (per-user seen-item masks) and a
global popularity ranking (the unknown-user fallback).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.artifact import ArtifactFormat
from repro.data.dataset import InteractionDataset, Split
from repro.eval.evaluator import csr_row_coords
from repro.manifolds.scoring import score_rows

INDEX_VERSION = 1

# Array-slot names per score kind; every listed slot must be present.
_KIND_SLOTS = {
    "dot": ("user", "item"),
    "dot_bias": ("user", "item", "bias"),
    "neg_sq_dist": ("user", "item"),
    "neg_dist": ("user", "item"),
    "lorentz": ("user", "item"),
    "poincare": ("user", "item"),
    "gdcf_mix": ("user_h", "item_h", "user_e", "item_e"),
    "dense": ("scores",),
}


class IndexFormatError(Exception):
    """An index could not be read: missing, corrupted, or wrong version."""


FORMAT = ArtifactFormat("index.npz", "index.json", "index",
                        IndexFormatError, INDEX_VERSION)


class RetrievalIndex:
    """Precomputed scoring tables plus per-request masks and fallback.

    Parameters
    ----------
    kind:
        Score family from :meth:`Recommender.export_scoring`.
    arrays:
        The kind's table slots (see ``_KIND_SLOTS``).
    scalars:
        Scalar parameters of the score formula (``gdcf_mix``'s mix
        weight).
    train_indptr, train_indices:
        CSR structure of the training interaction matrix, for per-user
        seen-item masking.
    popularity:
        All item ids ordered most- to least-popular on the training
        split (ties broken by ascending id) — the unknown-user fallback.
    meta:
        Provenance (model class, dataset name, universe sizes).
    """

    def __init__(self, kind: str, arrays: Dict[str, np.ndarray],
                 scalars: Dict[str, float], train_indptr: np.ndarray,
                 train_indices: np.ndarray, popularity: np.ndarray,
                 meta: Dict[str, object]):
        if kind not in _KIND_SLOTS:
            raise IndexFormatError(f"unknown score kind {kind!r}")
        missing = [s for s in _KIND_SLOTS[kind] if s not in arrays]
        if missing:
            raise IndexFormatError(
                f"score kind {kind!r} is missing array slots {missing}")
        self.kind = kind
        self.arrays = {k: np.asarray(v) for k, v in arrays.items()}
        self.scalars = {k: float(v) for k, v in scalars.items()}
        self.train_indptr = np.asarray(train_indptr, dtype=np.int64)
        self.train_indices = np.asarray(train_indices, dtype=np.int64)
        self.popularity = np.asarray(popularity, dtype=np.int64)
        self.meta = dict(meta)
        self.n_users = int(meta["n_users"])
        self.n_items = int(meta["n_items"])
        self._spec = {"kind": kind, **self.arrays, **self.scalars}

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_users(self, user_ids) -> np.ndarray:
        """Score matrix of ``user_ids`` against every item, in one call."""
        return score_rows(self._spec, user_ids)

    # ------------------------------------------------------------------
    # Masks and fallback
    # ------------------------------------------------------------------
    def seen_items(self, user_id: int) -> np.ndarray:
        """Training items of one user (the engine's exclusion set)."""
        uid = int(user_id)
        return self.train_indices[
            self.train_indptr[uid]:self.train_indptr[uid + 1]]

    def mask_coords(self, user_ids: np.ndarray):
        """(local_row, item) coords of the batch users' seen items."""
        return csr_row_coords(self.train_indptr, self.train_indices,
                              user_ids)

    def with_extended_seen(self, user_ids: np.ndarray,
                           item_ids: np.ndarray) -> "RetrievalIndex":
        """A new index sharing this one's scores with a fresher seen mask.

        The online-ingest fast path: streamed interactions must stop
        being recommended back immediately, long before the next
        fine-tune re-exports scoring tables.  Score arrays are shared
        (no copy); only the seen-mask CSR is rebuilt with the new
        ``(user, item)`` pairs appended and deduplicated.  Users beyond
        ``n_users`` are ignored here — truly cold users are served from
        popularity until a fine-tuned index lands.

        Returns a *new* index (generation-bumped in ``meta``) so callers
        swap it in atomically rather than mutating a live one.
        """
        user_ids = np.asarray(user_ids, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        known = (user_ids >= 0) & (user_ids < self.n_users) \
            & (item_ids >= 0) & (item_ids < self.n_items)
        user_ids, item_ids = user_ids[known], item_ids[known]
        counts = np.diff(self.train_indptr)
        old_users = np.repeat(np.arange(self.n_users, dtype=np.int64),
                              counts)
        all_u = np.concatenate([old_users, user_ids])
        all_i = np.concatenate([self.train_indices, item_ids])
        keys = np.unique(all_u * np.int64(self.n_items) + all_i)
        new_users, new_items = keys // self.n_items, keys % self.n_items
        indptr = np.zeros(self.n_users + 1, dtype=np.int64)
        np.add.at(indptr, new_users + 1, 1)
        indptr = np.cumsum(indptr)
        meta = dict(self.meta)
        meta["generation"] = int(meta.get("generation", 0)) + 1
        return RetrievalIndex(kind=self.kind, arrays=self.arrays,
                              scalars=self.scalars, train_indptr=indptr,
                              train_indices=new_items,
                              popularity=self.popularity, meta=meta)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        payload = {f"slot:{k}": v for k, v in self.arrays.items()}
        payload["train_indptr"] = self.train_indptr
        payload["train_indices"] = self.train_indices
        payload["popularity"] = self.popularity
        return FORMAT.write(path, payload, {"kind": self.kind,
                                            "scalars": self.scalars,
                                            "meta": self.meta})


def build_index(model, dataset: InteractionDataset,
                split: Split) -> RetrievalIndex:
    """Freeze ``model`` + the training split into a servable index."""
    spec = dict(model.export_scoring())
    kind = str(spec.pop("kind"))
    scalars = {k: float(v) for k, v in spec.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)}
    arrays = {k: np.asarray(v) for k, v in spec.items()
              if not isinstance(v, (int, float, bool))}
    train_matrix = dataset.interaction_matrix(split.train)
    counts = np.asarray(train_matrix.sum(axis=0)).ravel()
    # Stable argsort on -counts: most popular first, ties by ascending id.
    popularity = np.argsort(-counts, kind="stable").astype(np.int64)
    meta = {
        "model_class": type(model).__name__,
        "dataset": dataset.name,
        "n_users": int(model.n_users),
        "n_items": int(model.n_items),
    }
    return RetrievalIndex(kind=kind, arrays=arrays, scalars=scalars,
                          train_indptr=train_matrix.indptr,
                          train_indices=train_matrix.indices,
                          popularity=popularity, meta=meta)


def load_index(path) -> RetrievalIndex:
    """Load a saved index; validates version and checksum."""
    meta, payload = FORMAT.read(path)
    arrays = {key[len("slot:"):]: value for key, value in payload.items()
              if key.startswith("slot:")}
    try:
        return RetrievalIndex(
            kind=meta["kind"], arrays=arrays,
            scalars=meta.get("scalars", {}),
            train_indptr=payload["train_indptr"],
            train_indices=payload["train_indices"],
            popularity=payload["popularity"], meta=meta["meta"])
    except KeyError as exc:
        raise IndexFormatError(
            f"index {path} is missing required entry {exc}") from exc
