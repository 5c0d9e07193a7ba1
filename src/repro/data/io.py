"""Dataset serialization and interchange.

A downstream adopter has interactions in flat files, not in our synthetic
generator.  This module provides:

* :func:`save_dataset` / :func:`load_dataset_file` — lossless npz + JSON
  round-trip of an :class:`~repro.data.InteractionDataset`, each file
  replaced whole (:func:`repro.artifact.replaced`);
* :func:`read_interactions_csv` — ``user,item,timestamp`` CSV ingestion
  with dense id re-mapping;
* :func:`read_item_tags_csv` — ``item,tag`` CSV into the sparse Q matrix;
* :func:`dataset_from_frames` — assemble a dataset from the raw pieces.
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.artifact import replaced
from repro.data.dataset import InteractionDataset
from repro.taxonomy import Taxonomy, extract_relations


def _dataset_paths(path: str) -> Tuple[pathlib.Path, pathlib.Path]:
    """The ``.npz`` / ``.taxonomy.json`` pair for a dataset base path.

    Suffixes are *appended*, never substituted: ``with_suffix`` would
    clobber dotted stems (``snap.v1`` and ``snap.v2`` both collapsing to
    ``snap.npz``), silently cross-loading another snapshot's
    interactions — fatal for the online loop, which saves versioned
    snapshots and relies on timestamp ordering for recency weighting.
    """
    base = pathlib.Path(path)
    if base.suffix == ".npz":
        base = base.with_suffix("")
    return (base.parent / (base.name + ".npz"),
            base.parent / (base.name + ".taxonomy.json"))


def save_dataset(dataset: InteractionDataset, path: str) -> None:
    """Write the dataset to ``<path>.npz`` plus ``<path>.taxonomy.json``."""
    npz_path, tax_path = _dataset_paths(path)
    coo = sp.coo_matrix(dataset.item_tags)
    with replaced(npz_path, "wb") as fh:
        np.savez_compressed(
            fh,
            user_ids=dataset.user_ids,
            item_ids=dataset.item_ids,
            timestamps=dataset.timestamps,
            n_users=np.array([dataset.n_users]),
            n_items=np.array([dataset.n_items]),
            q_row=coo.row, q_col=coo.col,
            q_shape=np.array(coo.shape),
        )
    payload = dataset.taxonomy.to_dict()
    payload["name"] = dataset.name
    with replaced(tax_path) as f:
        json.dump(payload, f)


def load_dataset_file(path: str) -> InteractionDataset:
    """Inverse of :func:`save_dataset`."""
    npz_path, tax_path = _dataset_paths(path)
    arrays = np.load(npz_path)
    with open(tax_path) as f:
        payload = json.load(f)
    taxonomy = Taxonomy(payload["parents"], payload.get("names"))
    q = sp.coo_matrix(
        (np.ones(len(arrays["q_row"])),
         (arrays["q_row"], arrays["q_col"])),
        shape=tuple(arrays["q_shape"])).tocsr()
    return InteractionDataset(
        user_ids=arrays["user_ids"],
        item_ids=arrays["item_ids"],
        timestamps=arrays["timestamps"],
        n_users=int(arrays["n_users"][0]),
        n_items=int(arrays["n_items"][0]),
        item_tags=q,
        taxonomy=taxonomy,
        name=payload.get("name", "dataset"),
    )


def read_interactions_csv(path: str, has_header: bool = True
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     Dict[str, int], Dict[str, int]]:
    """Read ``user,item,timestamp`` rows, densifying string ids.

    Returns ``(user_ids, item_ids, timestamps, user_map, item_map)``.
    Timestamps default to row order when the column is missing.
    """
    users: List[int] = []
    items: List[int] = []
    times: List[int] = []
    user_map: Dict[str, int] = {}
    item_map: Dict[str, int] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        rows = iter(reader)
        if has_header:
            next(rows, None)
        for order, row in enumerate(rows):
            if len(row) < 2:
                continue
            user_key, item_key = row[0].strip(), row[1].strip()
            users.append(user_map.setdefault(user_key, len(user_map)))
            items.append(item_map.setdefault(item_key, len(item_map)))
            times.append(int(float(row[2])) if len(row) > 2 and row[2]
                         else order)
    return (np.asarray(users, dtype=np.int64),
            np.asarray(items, dtype=np.int64),
            np.asarray(times, dtype=np.int64), user_map, item_map)


def read_item_tags_csv(path: str, item_map: Dict[str, int],
                       tag_map: Optional[Dict[str, int]] = None,
                       has_header: bool = True
                       ) -> Tuple[sp.csr_matrix, Dict[str, int]]:
    """Read ``item,tag`` rows into a sparse Q matrix.

    Unknown items (absent from ``item_map``) are skipped; new tags extend
    ``tag_map``.
    """
    tag_map = dict(tag_map) if tag_map else {}
    rows: List[int] = []
    cols: List[int] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        lines = iter(reader)
        if has_header:
            next(lines, None)
        for row in lines:
            if len(row) < 2:
                continue
            item_key, tag_key = row[0].strip(), row[1].strip()
            if item_key not in item_map:
                continue
            rows.append(item_map[item_key])
            cols.append(tag_map.setdefault(tag_key, len(tag_map)))
    q = sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                      shape=(len(item_map), max(len(tag_map), 1))).tocsr()
    q.data[:] = 1.0
    return q, tag_map


def dataset_from_frames(user_ids: np.ndarray, item_ids: np.ndarray,
                        timestamps: np.ndarray, item_tags: sp.spmatrix,
                        taxonomy: Taxonomy,
                        name: str = "imported") -> InteractionDataset:
    """Assemble a dataset from raw pieces, extracting logical relations."""
    n_users = int(user_ids.max()) + 1 if len(user_ids) else 0
    n_items = max(int(item_ids.max()) + 1 if len(item_ids) else 0,
                  item_tags.shape[0])
    return InteractionDataset(
        user_ids=user_ids, item_ids=item_ids, timestamps=timestamps,
        n_users=n_users, n_items=n_items, item_tags=item_tags,
        taxonomy=taxonomy,
        relations=extract_relations(taxonomy, item_tags), name=name)
