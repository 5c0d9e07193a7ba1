"""Core dataset containers.

:class:`InteractionDataset` bundles implicit-feedback interactions (user,
item, timestamp), the item-tag matrix Q, the tag taxonomy, and the extracted
logical relations.  :class:`Split` holds the temporal train/valid/test
partition of interaction indices (the paper's 60/20/20 per-user protocol).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.taxonomy import LogicalRelations, Taxonomy, extract_relations


class StreamError(ValueError):
    """A streaming batch violated an ingest invariant.

    Raised by :meth:`InteractionDataset.append_interactions` (and the
    online journal/ingest layer built on it) *before* any state is
    mutated, so a rejected batch leaves the dataset untouched instead of
    silently corrupting the CSR seen masks.
    """


@dataclass
class Split:
    """Index arrays into an :class:`InteractionDataset`'s interaction list.

    ``train_weights``, when set, weighs each ``train`` interaction in
    LogiRec++'s tag frequencies (Eq. 11) — online fine-tuning sets
    recency weights there; ``None`` means unit weights.
    """

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    train_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        self.train = np.asarray(self.train, dtype=np.int64)
        self.valid = np.asarray(self.valid, dtype=np.int64)
        self.test = np.asarray(self.test, dtype=np.int64)
        if self.train_weights is not None:
            self.train_weights = np.asarray(self.train_weights,
                                            dtype=np.float64)
            if self.train_weights.shape != self.train.shape:
                raise ValueError("train_weights must align with train")


class InteractionDataset:
    """Implicit-feedback interactions with tag side information.

    Parameters
    ----------
    user_ids, item_ids, timestamps:
        Parallel arrays, one entry per interaction.
    n_users, n_items:
        Universe sizes (ids are dense in ``[0, n)``).
    item_tags:
        Sparse ``(n_items, n_tags)`` binary matrix Q.
    taxonomy:
        The tag forest.
    relations:
        Pre-extracted logical relations; extracted on demand if omitted.
    name:
        Optional dataset name for reporting.
    """

    def __init__(self, user_ids: np.ndarray, item_ids: np.ndarray,
                 timestamps: np.ndarray, n_users: int, n_items: int,
                 item_tags: sp.spmatrix, taxonomy: Taxonomy,
                 relations: Optional[LogicalRelations] = None,
                 name: str = "dataset"):
        self.user_ids = np.asarray(user_ids, dtype=np.int64)
        self.item_ids = np.asarray(item_ids, dtype=np.int64)
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        if not (len(self.user_ids) == len(self.item_ids)
                == len(self.timestamps)):
            raise ValueError("interaction arrays must have equal length")
        if len(self.user_ids) and self.user_ids.max() >= n_users:
            raise ValueError("user id out of range")
        if len(self.item_ids) and self.item_ids.max() >= n_items:
            raise ValueError("item id out of range")
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.item_tags = sp.csr_matrix(item_tags)
        if self.item_tags.shape[0] != n_items:
            raise ValueError("item_tags row count must equal n_items")
        self.taxonomy = taxonomy
        self.relations = relations if relations is not None else (
            extract_relations(taxonomy, self.item_tags))
        self.name = name

    # ------------------------------------------------------------------
    @property
    def n_interactions(self) -> int:
        return len(self.user_ids)

    @property
    def n_tags(self) -> int:
        return self.taxonomy.n_tags

    @property
    def density(self) -> float:
        """Interaction density in percent, as reported in Table I."""
        return 100.0 * self.n_interactions / (self.n_users * self.n_items)

    def items_of_user(self, indices: Optional[np.ndarray] = None
                      ) -> Dict[int, np.ndarray]:
        """Map each user to the item ids of the selected interactions."""
        if indices is None:
            users, items = self.user_ids, self.item_ids
        else:
            users, items = self.user_ids[indices], self.item_ids[indices]
        order = np.argsort(users, kind="stable")
        users, items = users[order], items[order]
        boundaries = np.searchsorted(users, np.arange(self.n_users + 1))
        return {u: items[boundaries[u]:boundaries[u + 1]]
                for u in range(self.n_users)
                if boundaries[u + 1] > boundaries[u]}

    def interaction_matrix(self, indices: Optional[np.ndarray] = None
                           ) -> sp.csr_matrix:
        """Binary user-item matrix over the selected interactions."""
        if indices is None:
            users, items = self.user_ids, self.item_ids
        else:
            users, items = self.user_ids[indices], self.item_ids[indices]
        data = np.ones(len(users))
        mat = sp.coo_matrix((data, (users, items)),
                            shape=(self.n_users, self.n_items))
        mat = mat.tocsr()
        mat.data[:] = 1.0  # deduplicate repeated interactions
        return mat

    def tags_of_items(self, items: np.ndarray) -> List[np.ndarray]:
        """Tag id arrays for each item in ``items``."""
        csr = self.item_tags
        return [csr.indices[csr.indptr[i]:csr.indptr[i + 1]]
                for i in np.asarray(items)]

    def tag_occurrences(self, indices: Optional[np.ndarray] = None,
                        weights: Optional[np.ndarray] = None
                        ) -> Tuple[np.ndarray, np.ndarray,
                                   Optional[np.ndarray]]:
        """The tag multisets T_u as flat ``(users, tags, weights)`` arrays.

        One entry per selected interaction and tag its item carries, in
        interaction order, preserving the multiplicity Eq. 11's frequency
        term requires.  ``weights`` (aligned with ``indices``) is repeated
        onto each of its interaction's tags; ``None`` stays ``None``.
        """
        selected = slice(None) if indices is None else np.asarray(
            indices, dtype=np.int64)
        users, items = self.user_ids[selected], self.item_ids[selected]
        indptr = self.item_tags.indptr
        starts = indptr[items].astype(np.int64)
        lengths = indptr[items + 1] - starts
        # Offset of each occurrence inside its item's CSR row.
        offsets = (np.arange(lengths.sum(), dtype=np.int64)
                   - np.repeat(np.cumsum(lengths) - lengths, lengths))
        tags = self.item_tags.indices[np.repeat(starts, lengths) + offsets]
        if weights is not None:
            weights = np.repeat(np.asarray(weights, dtype=np.float64),
                                lengths)
        return (np.repeat(users, lengths), tags.astype(np.int64),
                weights)

    # ------------------------------------------------------------------
    # Streaming ingest (online learning)
    # ------------------------------------------------------------------
    def held_pairs(self, users: np.ndarray, items: np.ndarray,
                   width: int) -> np.ndarray:
        """Mask of the ``(user, item)`` pairs the dataset already holds,
        flat-keyed as ``user * width + item`` (``width`` above every item
        id).  One sort and a binary search: ``np.isin`` would hash the
        whole log, ~20x slower for a small batch."""
        held = np.sort(self.user_ids * np.int64(width) + self.item_ids)
        if not len(held):
            return np.zeros(len(users), dtype=bool)
        keys = users * np.int64(width) + items
        at = np.searchsorted(held, keys).clip(max=len(held) - 1)
        return held[at] == keys

    def append_interactions(self, user_ids, item_ids, timestamps, *,
                            n_users: Optional[int] = None,
                            n_items: Optional[int] = None,
                            item_tags: Optional[sp.spmatrix] = None
                            ) -> dict:
        """Fold a batch of new interactions into the dataset in place.

        The universe may only grow: ``n_users`` / ``n_items`` (defaulting
        to the current sizes, auto-grown to cover the batch) must be at
        least the current counts.  Every invariant is checked **before**
        any mutation — a rejected batch raises :class:`StreamError` and
        leaves the dataset exactly as it was:

        * parallel arrays of equal length, ids non-negative and inside
          the (grown) universe;
        * timestamps nondecreasing within the batch and not before the
          newest existing interaction (the temporal-split contract);
        * no duplicate ``(user, item)`` pair within the batch or against
          the existing interactions (duplicates would double-count in the
          CSR seen masks downstream).

        ``item_tags`` replaces Q for a grown item universe (shape
        ``(new_n_items, n_tags)``); when omitted, new items get empty tag
        rows.  Returns a summary dict (counts of new users/items/events).
        """
        new_u = np.asarray(user_ids, dtype=np.int64).ravel()
        new_i = np.asarray(item_ids, dtype=np.int64).ravel()
        new_t = np.asarray(timestamps, dtype=np.int64).ravel()
        if not (len(new_u) == len(new_i) == len(new_t)):
            raise StreamError("batch arrays must have equal length")
        if len(new_u) and (new_u.min() < 0 or new_i.min() < 0):
            raise StreamError("negative user/item id in batch")

        grown_users = int(n_users) if n_users is not None else max(
            self.n_users, int(new_u.max()) + 1 if len(new_u) else 0)
        grown_items = int(n_items) if n_items is not None else max(
            self.n_items, int(new_i.max()) + 1 if len(new_i) else 0)
        if grown_users < self.n_users or grown_items < self.n_items:
            raise StreamError(
                f"universe may only grow: ({self.n_users}, {self.n_items})"
                f" -> ({grown_users}, {grown_items})")
        if len(new_u) and int(new_u.max()) >= grown_users:
            raise StreamError("user id out of range for grown universe")
        if len(new_i) and int(new_i.max()) >= grown_items:
            raise StreamError("item id out of range for grown universe")

        if len(new_t):
            if np.any(np.diff(new_t) < 0):
                raise StreamError("out-of-order timestamps in batch")
            if len(self.timestamps) and new_t[0] < self.timestamps.max():
                raise StreamError(
                    "batch timestamps precede the newest existing "
                    "interaction (temporal ordering violated)")

        # Duplicate (user, item) pairs — within the batch and against
        # the existing interactions — flat-keyed on the grown universe.
        keys = new_u * np.int64(grown_items) + new_i
        if len(keys) != len(np.unique(keys)):
            raise StreamError("duplicate (user, item) pair within batch")
        if np.any(self.held_pairs(new_u, new_i, grown_items)):
            raise StreamError(
                "duplicate (user, item) pair against existing "
                "interactions")

        if item_tags is not None:
            q = sp.csr_matrix(item_tags)
            if q.shape[0] != grown_items:
                raise StreamError("item_tags row count must equal the "
                                  "grown n_items")
        elif grown_items > self.n_items:
            pad = sp.csr_matrix(
                (grown_items - self.n_items, self.item_tags.shape[1]))
            q = sp.vstack([self.item_tags, pad]).tocsr()
        else:
            q = None  # unchanged

        # All checks passed — mutate atomically.
        n_new_users = grown_users - self.n_users
        n_new_items = grown_items - self.n_items
        self.user_ids = np.concatenate([self.user_ids, new_u])
        self.item_ids = np.concatenate([self.item_ids, new_i])
        self.timestamps = np.concatenate([self.timestamps, new_t])
        self.n_users = grown_users
        self.n_items = grown_items
        if q is not None:
            self.item_tags = q
            if item_tags is not None:
                # Tag memberships changed: re-extract logical relations.
                self.relations = extract_relations(self.taxonomy,
                                                   self.item_tags)
        return {"n_appended": int(len(new_u)),
                "n_new_users": int(n_new_users),
                "n_new_items": int(n_new_items),
                "n_users": self.n_users, "n_items": self.n_items,
                "n_interactions": self.n_interactions}

    # ------------------------------------------------------------------
    def statistics(self) -> dict:
        """Dataset statistics in the shape of the paper's Table I."""
        counts = self.relations.counts
        return {
            "name": self.name,
            "n_users": self.n_users,
            "n_items": self.n_items,
            "n_interactions": self.n_interactions,
            "density_pct": round(self.density, 4),
            "n_tags": self.n_tags,
            "n_membership": counts["n_membership"],
            "n_hierarchy": counts["n_hierarchy"],
            "n_exclusion": counts["n_exclusion"],
        }

    def __repr__(self) -> str:
        return (f"InteractionDataset(name={self.name!r}, "
                f"users={self.n_users}, items={self.n_items}, "
                f"interactions={self.n_interactions}, tags={self.n_tags})")
