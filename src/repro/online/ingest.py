"""Streaming ingest: fold journal events into the live dataset.

:class:`StreamIngestor` is the bridge between the append-only
:class:`~repro.online.events.EventJournal` and the in-memory
:class:`~repro.data.InteractionDataset`.  Each :meth:`poll` reads the
journal from the replay cursor, pre-filters duplicates per policy with
flat ``(user, item)`` keys over the batch and the dataset, and
folds the batch in through
:meth:`~repro.data.InteractionDataset.append_interactions` — which
validates every ingest invariant *before* mutating, so a poison batch
(out-of-order timestamps, shrunk universe) raises
:class:`~repro.data.dataset.StreamError` and leaves both the dataset
and the replay cursor untouched.  The cursor advances only on success:
crash-and-retry re-reads exactly the events that were not applied.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.online.events import EventJournal

DUPLICATE_POLICIES = ("skip", "error")


class StreamIngestor:
    """Replays an :class:`EventJournal` into an :class:`InteractionDataset`.

    Parameters
    ----------
    dataset:
        The live dataset, mutated in place by successful polls.
    journal:
        The event log to follow.
    on_duplicate:
        ``"skip"`` (default) silently drops events whose ``(user,
        item)`` pair is already interacted (re-sends and at-least-once
        delivery are normal in streams); ``"error"`` surfaces them as
        :class:`StreamError` — the strict mode the duplicate-injection
        drill runs under.
    """

    def __init__(self, dataset: InteractionDataset, journal: EventJournal,
                 on_duplicate: str = "skip"):
        if on_duplicate not in DUPLICATE_POLICIES:
            raise ValueError(
                f"unknown duplicate policy {on_duplicate!r}; "
                f"known: {list(DUPLICATE_POLICIES)}")
        self.dataset = dataset
        self.journal = journal
        self.on_duplicate = on_duplicate
        self.offset = 0
        self.counters: Dict[str, int] = {"events_ingested": 0}

    def lag_bytes(self) -> int:
        """Journal bytes not yet applied (freshness in log terms)."""
        return max(0, self.journal.size() - self.offset)

    def _duplicates(self, users: np.ndarray, items: np.ndarray
                    ) -> np.ndarray:
        """Mask of events whose pair the dataset or an earlier event of
        the batch already holds, flat-keyed as ``append_interactions``
        keys them.  A record with a negative id is never marked: its key
        can alias a real pair, and it must reach the validation that
        rejects it."""
        width = max(self.dataset.n_items, int(items.max()) + 1)
        first = np.zeros(len(users), dtype=bool)
        first[np.unique(users * np.int64(width) + items,
                        return_index=True)[1]] = True
        held = self.dataset.held_pairs(users, items, width)
        return (users >= 0) & (items >= 0) & (held | ~first)

    def poll(self, max_events: Optional[int] = None,
             end: Optional[int] = None) -> Dict[str, object]:
        """Apply one batch of journal events (up to byte ``end`` when
        given); returns a summary dict.

        The replay cursor advances past exactly the events that were
        applied (or skipped as duplicates under the ``"skip"`` policy).
        On :class:`StreamError` — from a corrupt record, a disordered
        batch, or a duplicate under ``"error"`` — nothing advances.
        """
        events, next_offset = self.journal.read(self.offset, max_events,
                                                end)
        users = np.array([e.user_id for e in events], dtype=np.int64)
        items = np.array([e.item_id for e in events], dtype=np.int64)
        times = np.array([e.timestamp for e in events], dtype=np.int64)
        n_duplicates = 0
        if self.on_duplicate == "skip" and events:
            keep = ~self._duplicates(users, items)
            n_duplicates = len(events) - int(keep.sum())
            users, items, times = users[keep], items[keep], times[keep]
        # Under "error", duplicates flow through to append_interactions,
        # whose pre-mutation checks raise the typed StreamError.
        summary = {"n_appended": 0, "n_new_users": 0, "n_new_items": 0}
        if len(users):
            summary = self.dataset.append_interactions(users, items, times)

        # Success: advance the cursor (duplicate skips advance too —
        # they are consumed).
        self.offset = next_offset
        self.counters["events_ingested"] += summary["n_appended"]
        return {"n_read": len(events), "n_appended": summary["n_appended"],
                "n_duplicates": n_duplicates, "offset": self.offset,
                "n_new_users": summary["n_new_users"],
                "n_new_items": summary["n_new_items"]}

    def drain(self, batch_size: int = 1024, end: Optional[int] = None
              ) -> Dict[str, object]:
        """Poll until the journal (or byte ``end``) is exhausted; returns
        totals."""
        totals = {"n_read": 0, "n_appended": 0, "n_duplicates": 0,
                  "n_new_users": 0, "n_new_items": 0}
        while True:
            batch = self.poll(max_events=batch_size, end=end)
            for key in totals:
                totals[key] += batch[key]
            if batch["n_read"] < batch_size:  # end of journal (or end)
                break
        totals["offset"] = self.offset
        return totals
