"""``repro.online`` — streaming ingest, incremental fine-tune, hot swap.

The online-learning subsystem closes the loop from observed interaction
to servable recommendation without a full retrain or a restart:

* :mod:`repro.online.events` — :class:`InteractionEvent` and the
  append-only JSONL :class:`EventJournal` with byte-offset replay
  cursors (plus :func:`simulate_events` for demos and CI);
* :mod:`repro.online.ingest` — :class:`StreamIngestor`, folding journal
  batches into the live :class:`~repro.data.InteractionDataset` under
  the :class:`~repro.data.StreamError` invariants;
* :mod:`repro.online.finetune` — warm-start incremental fine-tuning on
  the recency-weighted stream tail, growing embedding tables for
  cold-start users/items with a tag prior; the tail split carries the
  recency weights LogiRec++'s consistency weighting counts with;
* :mod:`repro.online.swap` — versioned index export and the
  swap-under-load / degraded-mode drills;
* :mod:`repro.online.loop` — :class:`OnlineLoop`, the filesystem-backed
  driver behind ``repro online ingest|finetune|swap|run``.
"""

from repro.online.events import (EventJournal, InteractionEvent,
                                 simulate_events)
from repro.online.finetune import (incremental_finetune,
                                   recency_tail_split,
                                   recency_weights, tag_prior_neighbors)
from repro.online.ingest import DUPLICATE_POLICIES, StreamIngestor
from repro.online.loop import OnlineLoop
from repro.online.swap import (export_online_index, full_split,
                               run_online_serve_drill, run_swap_drill)

__all__ = [
    "DUPLICATE_POLICIES",
    "EventJournal",
    "InteractionEvent",
    "OnlineLoop",
    "StreamIngestor",
    "export_online_index",
    "full_split",
    "incremental_finetune",
    "recency_tail_split",
    "recency_weights",
    "run_online_serve_drill",
    "run_swap_drill",
    "simulate_events",
    "tag_prior_neighbors",
]
