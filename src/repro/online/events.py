"""Append-only interaction event log for streaming ingest.

The journal is a JSONL file of :class:`InteractionEvent` records with
compact keys (``{"u": user, "i": item, "t": timestamp}``).  The format
is deliberately boring: append-only, one event per line, byte offsets
as replay cursors.  :meth:`EventJournal.read` resumes from any offset
returned by a previous read/append, so the ingest loop survives process
restarts by persisting nothing but an integer.

Robustness contract:

* a malformed line (bad JSON, missing/non-integer fields) raises
  :class:`~repro.data.dataset.StreamError` carrying the byte offset of
  the poison record — the cursor does not advance past it, so the
  corruption is inspectable and the drill in
  :func:`repro.robust.drills.run_stream_drill` can assert containment;
* a trailing line without a newline is treated as an in-progress append
  (torn write), not an error: the reader stops before it and picks it
  up once the writer finishes the line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.data.dataset import InteractionDataset, StreamError


@dataclass(frozen=True)
class InteractionEvent:
    """One observed interaction: user ``user_id`` touched ``item_id``."""

    user_id: int
    item_id: int
    timestamp: int

    def to_record(self) -> dict:
        return {"u": int(self.user_id), "i": int(self.item_id),
                "t": int(self.timestamp)}

    @classmethod
    def from_record(cls, record: dict) -> "InteractionEvent":
        try:
            return cls(user_id=int(record["u"]), item_id=int(record["i"]),
                       timestamp=int(record["t"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamError(
                f"event record {record!r} is missing or has non-integer "
                f"u/i/t fields: {exc}") from exc


class EventJournal:
    """Append-only JSONL event log with byte-offset replay cursors."""

    def __init__(self, path):
        self.path = Path(path)

    def size(self) -> int:
        """Current journal size in bytes (0 when absent)."""
        return self.path.stat().st_size if self.path.is_file() else 0

    def append(self, events: List[InteractionEvent]) -> int:
        """Append events; returns the end offset (next read cursor)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as fh:
            for event in events:
                line = json.dumps(event.to_record(),
                                  separators=(",", ":"))
                fh.write(line.encode("utf-8") + b"\n")
            fh.flush()
            return fh.tell()

    def read(self, offset: int = 0, max_events: Optional[int] = None,
             end: Optional[int] = None
             ) -> Tuple[List[InteractionEvent], int]:
        """Events from ``offset`` onward (stopping at the line boundary
        ``end`` when given), plus the next cursor.

        Only *complete* lines are consumed: the returned offset always
        points at a line boundary, so it is safe to persist as a replay
        cursor.  A malformed complete line raises :class:`StreamError`
        with its byte offset; the cursor semantics guarantee the caller
        still holds the offset *of* the poison line.
        """
        if not self.path.is_file():
            return [], int(offset)
        events: List[InteractionEvent] = []
        with open(self.path, "rb") as fh:
            fh.seek(int(offset))
            cursor = int(offset)
            while ((max_events is None or len(events) < max_events)
                   and (end is None or cursor < end)):
                line = fh.readline()
                if not line:
                    break
                if not line.endswith(b"\n"):
                    break  # torn write in progress; retry later
                stripped = line.strip()
                if stripped:
                    try:
                        record = json.loads(stripped)
                    except (json.JSONDecodeError,
                            UnicodeDecodeError) as exc:
                        raise StreamError(
                            f"corrupt journal record at byte {cursor} "
                            f"of {self.path}: {exc}") from exc
                    if not isinstance(record, dict):
                        raise StreamError(
                            f"corrupt journal record at byte {cursor} "
                            f"of {self.path}: not an object")
                    events.append(InteractionEvent.from_record(record))
                cursor += len(line)
        return events, cursor


def simulate_events(dataset: InteractionDataset, n_events: int,
                    n_new_users: int = 0, n_new_items: int = 0,
                    seed: int = 0, start_timestamp: Optional[int] = None
                    ) -> List[InteractionEvent]:
    """A synthetic, ingest-valid event stream for demos, CI, and tests.

    Generated events satisfy every :meth:`InteractionDataset.\
append_interactions` invariant by construction: timestamps are strictly
    increasing from after the dataset's newest interaction, and no
    ``(user, item)`` pair repeats — within the stream or against the
    existing interactions.  Each of the ``n_new_users`` /``n_new_items``
    cold-start entities (ids allocated densely above the current
    universe) appears in at least one event.
    """
    if n_events < n_new_users + n_new_items:
        raise ValueError(
            f"n_events={n_events} cannot cover {n_new_users} new users "
            f"+ {n_new_items} new items with one event each")
    rng = np.random.default_rng(seed)
    if start_timestamp is None:
        start_timestamp = (int(dataset.timestamps.max()) + 1
                           if dataset.n_interactions else 0)
    seen = {(int(u), int(i))
            for u, i in zip(dataset.user_ids, dataset.item_ids)}
    n_users = dataset.n_users + n_new_users
    n_items = dataset.n_items + n_new_items

    pairs: List[Tuple[int, int]] = []

    def _add_pair(user: int, item: int) -> bool:
        if (user, item) in seen:
            return False
        seen.add((user, item))
        pairs.append((user, item))
        return True

    # Cold-start coverage first: every new user and new item gets one.
    for j in range(n_new_users):
        user = dataset.n_users + j
        while not _add_pair(user, int(rng.integers(0, n_items))):
            pass
    for j in range(n_new_items):
        item = dataset.n_items + j
        while not _add_pair(int(rng.integers(0, n_users)), item):
            pass
    while len(pairs) < n_events:
        _add_pair(int(rng.integers(0, n_users)),
                  int(rng.integers(0, n_items)))

    # Shuffle so cold-start events interleave with warm traffic, then
    # stamp strictly increasing timestamps in stream order.
    order = rng.permutation(len(pairs))
    return [InteractionEvent(user_id=pairs[j][0], item_id=pairs[j][1],
                             timestamp=start_timestamp + rank)
            for rank, j in enumerate(order)]
