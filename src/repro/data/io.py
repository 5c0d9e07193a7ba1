"""Dataset serialization and interchange.

A downstream adopter has interactions in flat files, not in our synthetic
generator.  This module provides:

* :func:`save_dataset` / :func:`load_dataset_file` — lossless round-trip
  of an :class:`~repro.data.InteractionDataset` as a :mod:`repro.artifact`
  snapshot whose manifest also records the event-journal offset it
  covers (:func:`load_snapshot` returns it);
* :func:`read_interactions_csv` — ``user,item,timestamp`` CSV ingestion
  with dense id re-mapping;
* :func:`read_item_tags_csv` — ``item,tag`` CSV into the sparse Q matrix;
* :func:`dataset_from_frames` — assemble a dataset from the raw pieces.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.artifact import ArtifactFormat
from repro.data.dataset import InteractionDataset
from repro.taxonomy import Taxonomy, extract_relations


class SnapshotError(Exception):
    """A dataset snapshot is missing its manifest, unreadable, of another
    format version, or fails its checksum."""


def _snapshot(path) -> Tuple[ArtifactFormat, pathlib.Path]:
    """The artifact format and directory of a dataset base path.

    Suffixes are *appended*, never substituted: ``with_suffix`` would
    collapse ``snap.v1`` and ``snap.v2`` to one ``snap.npz``, silently
    cross-loading another snapshot's interactions.
    """
    base = pathlib.Path(path)
    if base.suffix == ".npz":
        base = base.with_suffix("")
    return (ArtifactFormat(base.name + ".npz", base.name + ".taxonomy.json",
                           "dataset snapshot", SnapshotError, version=1),
            base.parent)


def save_dataset(dataset: InteractionDataset, path, *,
                 journal_offset: int = 0) -> int:
    """Write ``<path>.npz`` and its manifest ``<path>.taxonomy.json``,
    recording that the snapshot covers the event journal up to byte
    ``journal_offset``; returns the arrays file's size in bytes."""
    fmt, directory = _snapshot(path)
    coo = sp.coo_matrix(dataset.item_tags)
    meta = dict(dataset.taxonomy.to_dict(), name=dataset.name,
                journal_offset=int(journal_offset))
    fmt.write(directory, {
        "user_ids": dataset.user_ids, "item_ids": dataset.item_ids,
        "timestamps": dataset.timestamps,
        "n_users": np.array([dataset.n_users]),
        "n_items": np.array([dataset.n_items]),
        "q_row": coo.row, "q_col": coo.col, "q_shape": np.array(coo.shape),
    }, meta)
    return (directory / fmt.arrays_file).stat().st_size


def load_snapshot(path) -> Tuple[InteractionDataset, int]:
    """The dataset saved at ``path`` and the journal offset it covers;
    :class:`SnapshotError` when a load check fails."""
    fmt, directory = _snapshot(path)
    meta, arrays = fmt.read(directory)
    q = sp.coo_matrix(
        (np.ones(len(arrays["q_row"])),
         (arrays["q_row"], arrays["q_col"])),
        shape=tuple(arrays["q_shape"])).tocsr()
    dataset = InteractionDataset(
        user_ids=arrays["user_ids"],
        item_ids=arrays["item_ids"],
        timestamps=arrays["timestamps"],
        n_users=int(arrays["n_users"][0]),
        n_items=int(arrays["n_items"][0]),
        item_tags=q,
        taxonomy=Taxonomy.from_dict(meta),
        name=meta["name"],
    )
    return dataset, int(meta["journal_offset"])


def load_dataset_file(path) -> InteractionDataset:
    """Inverse of :func:`save_dataset`."""
    return load_snapshot(path)[0]


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
