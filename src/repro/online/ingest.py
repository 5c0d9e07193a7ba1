"""Streaming ingest: fold journal events into the live dataset.

:class:`StreamIngestor` is the bridge between the append-only
:class:`~repro.online.events.EventJournal` and the in-memory
:class:`~repro.data.InteractionDataset`.  Each :meth:`poll` reads the
journal from the replay cursor, pre-filters duplicates per policy, and
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

from repro import obs
from repro.data.dataset import InteractionDataset, StreamError
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
        self._seen = {(int(u), int(i))
                      for u, i in zip(dataset.user_ids, dataset.item_ids)}
        self.counters: Dict[str, int] = {
            "polls": 0, "events_read": 0, "events_ingested": 0,
            "duplicates_skipped": 0, "new_users": 0, "new_items": 0}

    def lag_bytes(self) -> int:
        """Journal bytes not yet applied (freshness in log terms)."""
        return max(0, self.journal.size() - self.offset)

    def poll(self, max_events: Optional[int] = None) -> Dict[str, object]:
        """Apply one batch of journal events; returns a summary dict.

        The replay cursor advances past exactly the events that were
        applied (or skipped as duplicates under the ``"skip"`` policy).
        On :class:`StreamError` — from a corrupt record, a disordered
        batch, or a duplicate under ``"error"`` — nothing advances.
        """
        self.counters["polls"] += 1
        events, next_offset = self.journal.read(self.offset, max_events)
        if not events:
            return {"n_read": 0, "n_appended": 0, "n_duplicates": 0,
                    "offset": self.offset, "n_new_users": 0,
                    "n_new_items": 0}
        self.counters["events_read"] += len(events)

        kept = events
        n_duplicates = 0
        if self.on_duplicate == "skip":
            kept = []
            batch_seen = set()
            for event in events:
                pair = (int(event.user_id), int(event.item_id))
                if pair in self._seen or pair in batch_seen:
                    n_duplicates += 1
                else:
                    batch_seen.add(pair)
                    kept.append(event)
        # Under "error", duplicates flow through to append_interactions,
        # whose pre-mutation checks raise the typed StreamError.

        if kept:
            users = np.array([e.user_id for e in kept], dtype=np.int64)
            items = np.array([e.item_id for e in kept], dtype=np.int64)
            times = np.array([e.timestamp for e in kept], dtype=np.int64)
            summary = self.dataset.append_interactions(users, items, times)
        else:
            summary = {"n_appended": 0, "n_new_users": 0, "n_new_items": 0}

        # Success: advance the cursor and fold the batch into the seen
        # set (duplicate skips advance too — they are consumed).
        self.offset = next_offset
        for event in kept:
            self._seen.add((int(event.user_id), int(event.item_id)))
        self.counters["events_ingested"] += summary["n_appended"]
        self.counters["duplicates_skipped"] += n_duplicates
        self.counters["new_users"] += summary["n_new_users"]
        self.counters["new_items"] += summary["n_new_items"]
        if obs.enabled():
            obs.count("online/events_ingested", summary["n_appended"])
            if n_duplicates:
                obs.count("online/duplicates_skipped", n_duplicates)
            obs.gauge_set("online/ingest_lag_bytes",
                          float(self.lag_bytes()))
        return {"n_read": len(events), "n_appended": summary["n_appended"],
                "n_duplicates": n_duplicates, "offset": self.offset,
                "n_new_users": summary["n_new_users"],
                "n_new_items": summary["n_new_items"]}

    def drain(self, batch_size: int = 1024) -> Dict[str, object]:
        """Poll until the journal is exhausted; returns totals."""
        totals = {"n_read": 0, "n_appended": 0, "n_duplicates": 0,
                  "n_new_users": 0, "n_new_items": 0}
        while True:
            batch = self.poll(max_events=batch_size)
            if batch["n_read"] == 0:
                break
            for key in totals:
                totals[key] += batch[key]
        totals["offset"] = self.offset
        return totals
