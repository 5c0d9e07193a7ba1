"""The online-learning driver behind ``repro online ...``.

:class:`OnlineLoop` owns a working directory and wires the pieces into
the ingest → fine-tune → swap cycle, restartable at every step because
all state lives on disk:

.. code-block:: text

    <workdir>/
      journal.jsonl         append-only event log (EventJournal)
      state.json            ingest cursor + current index version
      dataset.npz           dataset snapshot arrays (repro.artifact format)
      dataset.taxonomy.json its manifest: taxonomy, checksum, and the
                            journal offset the snapshot covers
      checkpoint/           warm-start checkpoint
      index.v<N>/           versioned RetrievalIndex exports
      CURRENT               name of the live index version

The live dataset is the snapshot plus the journal from the offset it
covers up to ``state.json``'s cursor, replayed at load (DESIGN.md §13).

The swap verb is a two-level operation: on disk it atomically flips
``CURRENT`` to the freshly exported version (readers that follow the
pointer never observe a half-written index — versions are immutable
once exported); in process, a live
:class:`~repro.serve.RecommendService` or
:class:`~repro.serve.frontend.ServingFrontend` attached via
:meth:`OnlineLoop.attach` is hot-swapped through its own
``swap_index`` protocol.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.artifact import replaced
from repro.online.events import EventJournal, simulate_events
from repro.online.finetune import incremental_finetune
from repro.online.ingest import StreamIngestor
from repro.online.swap import export_online_index, full_split

CURRENT_FILE = "CURRENT"
STATE_FILE = "state.json"
SNAPSHOT = "dataset"


class OnlineLoop:
    """Filesystem-backed ingest → fine-tune → swap orchestration."""

    def __init__(self, workdir, model_name: str = "BPRMF",
                 dataset_name: str = "cd", seed: int = 0):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.model_name = model_name
        self.dataset_name = dataset_name
        self.seed = int(seed)
        self.journal = EventJournal(self.workdir / "journal.jsonl")
        self._ingestor: Optional[StreamIngestor] = None
        self._covered = 0          # journal offset the snapshot covers
        self._snapshot_bytes = 0   # its arrays file size (0: none yet)
        self._live = []   # attached services/frontends to hot-swap
        self.state: Dict[str, object] = self._load_state()

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------
    def _load_state(self) -> Dict[str, object]:
        path = self.workdir / STATE_FILE
        if path.is_file():
            with open(path) as fh:
                return json.load(fh)
        return {"journal_offset": 0, "index_version": 0,
                "model": self.model_name, "dataset": self.dataset_name,
                "last_append_wall": None}

    def _save_state(self) -> None:
        with replaced(self.workdir / STATE_FILE) as fh:
            json.dump(self.state, fh, indent=2, sort_keys=True)

    @property
    def checkpoint_dir(self) -> Path:
        return self.workdir / "checkpoint"

    def index_dir(self, version: int) -> Path:
        return self.workdir / f"index.v{int(version)}"

    def current_version(self) -> int:
        path = self.workdir / CURRENT_FILE
        if not path.is_file():
            return 0
        return int(path.read_text().strip().rsplit(".v", 1)[1])

    def current_index_path(self) -> Optional[Path]:
        version = self.current_version()
        return self.index_dir(version) if version else None

    # ------------------------------------------------------------------
    # Dataset: snapshot + journal replay
    # ------------------------------------------------------------------
    @property
    def dataset(self):
        return self.ingestor.dataset

    @property
    def ingestor(self) -> StreamIngestor:
        """The ingestor over the live dataset, loaded on first use: the
        snapshot (the registry dataset, covering offset 0, when there is
        none) plus the journal replayed up to the ingest cursor."""
        if self._ingestor is None:
            from repro.data import load_dataset
            from repro.data.io import load_snapshot
            if any((self.workdir / (SNAPSHOT + suffix)).exists()
                   for suffix in (".npz", ".taxonomy.json")):
                dataset, self._covered = load_snapshot(
                    self.workdir / SNAPSHOT)
                self._snapshot_bytes = (
                    self.workdir / (SNAPSHOT + ".npz")).stat().st_size
            else:
                dataset = load_dataset(self.dataset_name)
            ingestor = StreamIngestor(dataset, self.journal)
            ingestor.offset = self._covered
            replayed = ingestor.drain(end=int(self.state["journal_offset"]))
            obs.count("online/events_replayed", replayed["n_read"])
            self._ingestor = ingestor  # only once the replay is whole
        return self._ingestor

    def _save_dataset(self) -> int:
        """Snapshot the live dataset as covering the ingest cursor;
        returns the bytes of its arrays file."""
        from repro.data.io import save_dataset
        dataset = self.dataset
        self._covered = int(self.state["journal_offset"])
        self._snapshot_bytes = save_dataset(
            dataset, self.workdir / SNAPSHOT, journal_offset=self._covered)
        return self._snapshot_bytes

    def attach(self, service) -> None:
        """Register a live service/front-end for hot swaps.

        Anything with a ``swap_index(new_index)`` method qualifies
        (:class:`RecommendService`, :class:`ServingFrontend`).
        """
        self._live.append(service)

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def bootstrap(self, epochs: int = 3) -> Dict[str, object]:
        """Train the base model and export index v1 (idempotent)."""
        from repro.data import temporal_split
        from repro.experiments.runner import build_model
        from repro.serve.checkpoint import save_checkpoint

        if self.current_version() and self.checkpoint_dir.is_dir():
            return {"bootstrapped": False,
                    "version": self.current_version()}
        dataset = self.dataset
        split = temporal_split(dataset)
        model = build_model(self.model_name, dataset, seed=self.seed)
        model.config.epochs = int(epochs)
        with obs.trace("online/bootstrap", model=self.model_name):
            model.fit(dataset, split)
        save_checkpoint(model, self.checkpoint_dir, dataset=dataset)
        index = export_online_index(model, dataset, full_split(dataset))
        version = self._export(index)
        self._flip_current(version)
        self._save_dataset()
        self._save_state()
        return {"bootstrapped": True, "version": version,
                "final_loss": float(model.loss_history[-1])
                if model.loss_history else None}

    def append_events(self, events) -> Dict[str, object]:
        """Append events to the journal (producer side)."""
        events = list(events)
        end = self.journal.append(events)
        self.state["last_append_wall"] = time.time()
        self._save_state()
        return {"n_events": len(events), "journal_bytes": end}

    def simulate(self, n_events: int, n_new_users: int = 0,
                 n_new_items: int = 0) -> Dict[str, object]:
        """Append a synthetic, ingest-valid event stream (demo/CI)."""
        events = simulate_events(self.dataset, n_events, n_new_users,
                                 n_new_items, seed=self.seed)
        record = self.append_events(events)
        record["n_new_users"] = n_new_users
        record["n_new_items"] = n_new_items
        return record

    def ingest(self, max_events: Optional[int] = None
               ) -> Dict[str, object]:
        """Fold pending journal events into the live dataset; rewrite
        the snapshot (after ``state.json``) only once the journal past
        the offset it covers outgrows its arrays file."""
        summary = (self.ingestor.drain() if max_events is None
                   else self.ingestor.poll(max_events))
        self.state["journal_offset"] = int(self.ingestor.offset)
        self._save_state()
        written = 0
        if self.ingestor.offset - self._covered > self._snapshot_bytes:
            written = self._save_dataset()
        if obs.enabled():
            obs.count("online/events_ingested", summary["n_appended"])
            obs.count("online/duplicates_skipped", summary["n_duplicates"])
            obs.count("online/snapshot_bytes_written", written)
            obs.gauge_set("online/ingest_lag_bytes",
                          float(self.ingestor.lag_bytes()))
            staleness = self.staleness_s()
            if staleness is not None:
                obs.gauge_set("online/staleness_s", staleness)
        return summary

    def finetune(self, epochs: int = 3, tail_frac: float = 0.25,
                 half_life: Optional[float] = None) -> Dict[str, object]:
        """Fine-tune the warm checkpoint; export the next index version."""
        if not self.checkpoint_dir.is_dir():
            raise FileNotFoundError(
                f"no checkpoint at {self.checkpoint_dir}; run bootstrap "
                f"first (repro online run)")
        record = incremental_finetune(
            self.checkpoint_dir, self.dataset, epochs=epochs,
            tail_frac=tail_frac, half_life=half_life,
            save_to=self.checkpoint_dir)
        index = export_online_index(record["model"], self.dataset)
        version = self._export(index)
        out = {"version": version, "growth": record["growth"],
               "n_tail": record["n_tail"],
               "half_life": record["half_life"],
               "final_loss": record["final_loss"]}
        return out

    def _export(self, index) -> int:
        version = int(self.state["index_version"]) + 1
        index.meta["online_version"] = version
        index.save(self.index_dir(version))
        self.state["index_version"] = version
        self._save_state()
        return version

    def swap(self, version: Optional[int] = None) -> Dict[str, object]:
        """Flip ``CURRENT`` to ``version`` and hot-swap live services."""
        from repro.serve.index import load_index

        if version is None:
            version = int(self.state["index_version"])
        path = self.index_dir(version)
        index = load_index(path)  # validates checksum before the flip
        t0 = time.monotonic()
        self._flip_current(version)
        swaps: List[Dict[str, object]] = [
            dict(live.swap_index(index)) for live in self._live]
        latency_ms = (time.monotonic() - t0) * 1e3
        freshness_s = None
        if self.state.get("last_append_wall"):
            freshness_s = time.time() - float(
                self.state["last_append_wall"])
        if obs.enabled():
            obs.count("online/swaps")
            obs.observe("online/swap_latency_ms", latency_ms)
            if freshness_s is not None:
                obs.observe("online/freshness_s", freshness_s)
        return {"version": version, "path": str(path),
                "swap_latency_ms": latency_ms,
                "event_to_servable_s": freshness_s,
                "live_swaps": swaps}

    def _flip_current(self, version: int) -> None:
        with replaced(self.workdir / CURRENT_FILE) as fh:
            fh.write(self.index_dir(version).name + "\n")

    # ------------------------------------------------------------------
    # Full cycle + health
    # ------------------------------------------------------------------
    def run_cycle(self, n_events: int = 50, n_new_users: int = 2,
                  n_new_items: int = 2, bootstrap_epochs: int = 3,
                  finetune_epochs: int = 3, tail_frac: float = 0.25,
                  probe_k: int = 10) -> Dict[str, object]:
        """One full ingest → fine-tune → swap cycle with simulated events.

        Bootstraps on first run.  Returns the per-verb records plus the
        cycle-level health metrics: event→servable freshness and the
        cold-start hit rate (fraction of streamed-in new users served
        from the index, not a fallback, after the swap).
        """
        boot = self.bootstrap(epochs=bootstrap_epochs)
        old_users = self.dataset.n_users
        sim = self.simulate(n_events, n_new_users, n_new_items)
        ingest = self.ingest()
        finetune = self.finetune(epochs=finetune_epochs,
                                 tail_frac=tail_frac)
        swap = self.swap(finetune["version"])
        cold = self.cold_start_probe(old_users, k=probe_k)
        if obs.enabled() and cold["n_probed"]:
            obs.gauge_set("online/cold_start_hit_rate", cold["hit_rate"])
        return {"bootstrap": boot, "simulate": sim, "ingest": ingest,
                "finetune": finetune, "swap": swap, "cold_start": cold,
                "staleness_s": self.staleness_s()}

    def cold_start_probe(self, first_new_user: int,
                         k: int = 10) -> Dict[str, object]:
        """Query users ``[first_new_user, n_users)`` on the live index."""
        from repro.serve.config import ServiceConfig
        from repro.serve.engine import RecommendService
        from repro.serve.index import load_index

        path = self.current_index_path()
        if path is None:
            return {"n_probed": 0, "n_hit": 0, "hit_rate": None}
        service = RecommendService(load_index(path),
                                   ServiceConfig(k=int(k), cache_size=0))
        probes = list(range(int(first_new_user), self.dataset.n_users))
        responses = service.query_batch(probes, k=int(k)) if probes \
            else []
        n_hit = sum(1 for r in responses if r["source"] == "index")
        return {"n_probed": len(probes), "n_hit": int(n_hit),
                "hit_rate": (n_hit / len(probes)) if probes else None}

    def staleness_s(self) -> Optional[float]:
        """Seconds of journal lag behind the live dataset (None = fresh)."""
        lag = self.ingestor.lag_bytes()
        if lag == 0:
            return 0.0
        if self.state.get("last_append_wall") is None:
            return None
        return time.time() - float(self.state["last_append_wall"])

    def status(self) -> Dict[str, object]:
        return {
            "workdir": str(self.workdir),
            "model": self.model_name,
            "dataset": self.dataset_name,
            "journal_bytes": self.journal.size(),
            "journal_offset": int(self.state["journal_offset"]),
            "lag_bytes": self.ingestor.lag_bytes(),
            "index_version": int(self.state["index_version"]),
            "current": self.current_version(),
            "n_users": self.dataset.n_users,
            "n_items": self.dataset.n_items,
            "n_interactions": self.dataset.n_interactions,
        }
