"""Hot index swap: versioned export plus the swap-under-load drills.

Two swap surfaces exist and both are exercised here:

* :meth:`repro.serve.RecommendService.swap_index` — single-process: one
  attribute rebind, old index demoted to the ``stale_index`` fallback;
* :meth:`repro.serve.frontend.ServingFrontend.swap_index` — the
  multi-worker warm/drain/cutover/teardown protocol.

:func:`run_swap_drill` is the acceptance drill for the front-end path:
it swaps a live, loaded front-end twice — first to a bit-identically
rebuilt index (proving the swap machinery itself perturbs nothing),
then to a grown fine-tuned index (proving cold-start users become
servable) — while an open-loop load generator offers traffic the whole
time, and asserts zero hard failures and zero dropped requests.

:func:`run_online_serve_drill` is the engine-level degraded-mode drill
behind ``repro robust inject serve --swap``: a fault plan fires *inside
the swap window* and the stale-index fallback (the pre-swap index) must
carry the traffic until a clean swap recovers.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

import numpy as np

from repro.data.dataset import InteractionDataset, Split


def full_split(dataset: InteractionDataset) -> Split:
    """Every interaction as train — the online index's seen mask.

    An online index has no held-out protocol: everything the user has
    touched (batch history plus stream) must be masked from their
    recommendations, and popularity should count all of it.
    """
    empty = np.zeros(0, dtype=np.int64)
    return Split(train=np.arange(dataset.n_interactions, dtype=np.int64),
                 valid=empty, test=empty)


def export_online_index(model, dataset: InteractionDataset,
                        split: Optional[Split] = None):
    """Freeze ``model`` into a servable index with a full seen mask."""
    from repro.serve.index import build_index
    return build_index(model, dataset,
                       split if split is not None else full_split(dataset))


def run_swap_drill(model_name: str = "BPRMF", dataset_name: str = "cd",
                   epochs: int = 2, finetune_epochs: int = 2,
                   n_workers: int = 2, qps: float = 150.0,
                   n_events: int = 40, n_new_users: int = 3,
                   n_new_items: int = 2, k: int = 10,
                   workdir=None, seed: int = 0) -> Dict[str, object]:
    """The tentpole drill: ingest → fine-tune → hot swap under load.

    Pass criteria surfaced in the returned record:

    * ``identity_preserved`` — responses for probe users are identical
      before and after swapping in a bit-identically rebuilt index
      (the swap machinery adds nothing and loses nothing);
    * ``zero_hard_failures`` / ``zero_dropped`` — across the whole
      loaded window covering both swaps, every offered request resolved
      (ok, degraded, or shed — never an exception, never silence);
    * ``cold_start_served`` — after the second swap, users that existed
      only in the stream get real index-backed rankings, not the
      unknown-user popularity fallback.
    """
    import tempfile

    from repro.data import load_dataset, temporal_split
    from repro.experiments.runner import build_model
    from repro.online.events import EventJournal, simulate_events
    from repro.online.finetune import incremental_finetune
    from repro.online.ingest import StreamIngestor
    from repro.serve.checkpoint import save_checkpoint
    from repro.serve.config import ServiceConfig
    from repro.serve.bench import run_open_loop
    from repro.serve.frontend import FrontendConfig, ServingFrontend
    from repro.serve.index import build_index

    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro_swap_drill_")
    workdir = str(workdir)

    # -- offline base: train, checkpoint, index -------------------------
    dataset = load_dataset(dataset_name)
    split = temporal_split(dataset)
    model = build_model(model_name, dataset, seed=seed)
    model.config.epochs = int(epochs)
    model.fit(dataset, split)
    save_checkpoint(model, workdir + "/ck", dataset=dataset)
    index_v1 = build_index(model, dataset, split)
    index_v1_rebuilt = build_index(model, dataset, split)

    # -- stream: journal -> ingest (dataset grows in place) -------------
    journal = EventJournal(workdir + "/journal.jsonl")
    events = simulate_events(dataset, n_events, n_new_users, n_new_items,
                             seed=seed)
    journal.append(events)
    ingestor = StreamIngestor(dataset, journal)
    ingest_summary = ingestor.drain()

    # -- fine-tune the warm checkpoint over the grown universe ----------
    finetune = incremental_finetune(workdir + "/ck", dataset,
                                    epochs=finetune_epochs)
    index_v2 = export_online_index(finetune["model"], dataset)

    # -- serve under load; swap twice mid-stream ------------------------
    probe_users = list(range(min(5, index_v1.n_users)))
    cold_users = [dataset.n_users - 1 - j for j in range(n_new_users)] \
        if n_new_users else []
    config = FrontendConfig(
        n_workers=int(n_workers),
        service=ServiceConfig(k=int(k), cache_size=0),
        max_queue_depth=4096, default_deadline_ms=None, telemetry=False)
    rng = np.random.default_rng(seed)
    load_users = rng.integers(0, index_v1.n_users, size=256)

    record: Dict[str, object] = {
        "model": model_name, "dataset": dataset_name,
        "ingest": ingest_summary,
        "growth": finetune["growth"],
    }
    with ServingFrontend(index_v1, config) as frontend:
        outcome_box: Dict[str, object] = {}

        def _offer():
            # Deadlines off: the drill asserts zero shed outside the
            # swap window's degraded allowance, and this machine's
            # scheduling jitter should not flake the bit.
            outcome_box.update(run_open_loop(
                frontend, load_users, int(k), offered_qps=float(qps),
                duration_s=2.5, deadline_ms=None))

        loader = threading.Thread(target=_offer, daemon=True)
        loader.start()
        time.sleep(0.4)  # let traffic establish on v1

        def _answer(uid: int) -> Dict[str, object]:
            resolution = frontend.query(uid, k, deadline_ms=None)
            if resolution.get("status") != "ok":
                return {"items": [], "source": resolution.get("status"),
                        "fallback": True}
            return resolution["result"]

        before = {u: _answer(u) for u in probe_users}
        swap1 = frontend.swap_index(index_v1_rebuilt)
        after = {u: _answer(u) for u in probe_users}
        identity_preserved = all(
            before[u]["items"] == after[u]["items"]
            and not after[u]["fallback"] for u in probe_users)

        time.sleep(0.3)
        pre_cold = {u: _answer(u) for u in cold_users}
        swap2 = frontend.swap_index(index_v2)
        post_cold = {u: _answer(u) for u in cold_users}
        loader.join(timeout=10.0)
        counters = dict(frontend.counters)

    cold_start_served = all(
        pre_cold[u]["source"] == "popularity"      # unknown pre-swap
        and post_cold[u]["source"] == "index"      # servable post-swap
        and len(post_cold[u]["items"]) == int(k)
        for u in cold_users) if cold_users else True

    offered = int(outcome_box.get("n_offered", 0))
    # "degraded" is a subset of "completed" in the open-loop outcome.
    resolved = sum(int(outcome_box.get(key, 0)) for key in
                   ("completed", "shed", "draining", "hard_failures"))
    record.update({
        "swap1": swap1, "swap2": swap2,
        "identity_preserved": bool(identity_preserved),
        "cold_start_served": bool(cold_start_served),
        "load": outcome_box,
        "zero_hard_failures":
            int(outcome_box.get("hard_failures", 1)) == 0,
        "zero_dropped": offered == resolved,
        "index_swaps": counters.get("index_swaps", 0),
        "swap_stragglers": counters.get("swap_stragglers", 0),
        "passed": bool(identity_preserved and cold_start_served
                       and int(outcome_box.get("hard_failures", 1)) == 0
                       and offered == resolved),
    })
    return record


def run_online_serve_drill(model_name: str = "BPRMF",
                           dataset_name: str = "cd", epochs: int = 2,
                           finetune_epochs: int = 2, n_requests: int = 60,
                           n_events: int = 30, n_new_users: int = 2,
                           n_new_items: int = 2, k: int = 10,
                           workdir=None,
                           seed: int = 0) -> Dict[str, object]:
    """Degraded-mode serving through a faulty swap, then clean recovery.

    Three phases against one :class:`RecommendService` configured with
    the ``stale_index`` fallback:

    1. serve on the v1 index — all responses from the primary;
    2. swap in a v2 index wrapped to fail *every* scoring call (the
       fault fires mid-swap-window) — the demoted v1 index must carry
       all traffic as the ``stale_index`` fallback, zero invalid
       responses;
    3. swap in the clean v2 — service recovers to primary scoring.
    """
    import tempfile

    from repro.data import load_dataset, temporal_split
    from repro.experiments.runner import build_model
    from repro.online.events import EventJournal, simulate_events
    from repro.online.finetune import incremental_finetune
    from repro.online.ingest import StreamIngestor
    from repro.robust.faults import FaultPlan, FaultSpec, FaultyIndex
    from repro.robust.policies import BreakerPolicy, RetryPolicy
    from repro.serve.checkpoint import save_checkpoint
    from repro.serve.config import ServiceConfig
    from repro.serve.engine import RecommendService
    from repro.serve.index import build_index

    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro_online_drill_")
    workdir = str(workdir)

    dataset = load_dataset(dataset_name)
    split = temporal_split(dataset)
    model = build_model(model_name, dataset, seed=seed)
    model.config.epochs = int(epochs)
    model.fit(dataset, split)
    save_checkpoint(model, workdir + "/ck", dataset=dataset)
    index_v1 = build_index(model, dataset, split)

    journal = EventJournal(workdir + "/journal.jsonl")
    journal.append(simulate_events(dataset, n_events, n_new_users,
                                   n_new_items, seed=seed))
    StreamIngestor(dataset, journal).drain()
    finetune = incremental_finetune(workdir + "/ck", dataset,
                                    epochs=finetune_epochs)
    index_v2 = export_online_index(finetune["model"], dataset)

    config = ServiceConfig(
        k=int(k), cache_size=0, fallback="stale_index",
        retry=RetryPolicy(retries=0, backoff_s=0.0),
        breaker=BreakerPolicy())
    service = RecommendService(index_v1, config=config)
    rng = np.random.default_rng(seed)
    users = rng.integers(0, index_v1.n_users, size=int(n_requests))

    def _valid(responses) -> int:
        return sum(1 for r in responses
                   if len(r["items"]) == int(k)
                   and len(set(r["items"])) == int(k))

    phase1 = service.query_batch(users)
    plan = FaultPlan([FaultSpec("score_error", rate=1.0)], seed=seed)
    service.swap_index(FaultyIndex(index_v2, plan))
    phase2 = service.query_batch(users)
    stale_hits = service.stats["stale_index_hits"]
    service.swap_index(index_v2, keep_stale_fallback=False)
    phase3 = service.query_batch(users)

    record = {
        "model": model_name, "dataset": dataset_name,
        "n_requests": int(n_requests),
        "phase1_valid": _valid(phase1),
        "phase2_valid": _valid(phase2),
        "phase3_valid": _valid(phase3),
        "phase1_primary": sum(1 for r in phase1
                              if r["source"] == "index"),
        "phase2_stale": sum(1 for r in phase2
                            if r["source"] == "stale_index"),
        "phase3_primary": sum(1 for r in phase3
                              if r["source"] == "index"),
        "stale_index_hits": int(stale_hits),
        "index_swaps": service.stats.get("index_swaps", 0),
        "faults_injected": plan.counts(),
    }
    record["all_valid"] = (record["phase1_valid"] == record["phase2_valid"]
                           == record["phase3_valid"] == int(n_requests))
    record["degraded_mode_held"] = record["phase2_stale"] > 0
    record["recovered"] = record["phase3_primary"] == int(n_requests)
    record["passed"] = bool(record["all_valid"]
                            and record["degraded_mode_held"]
                            and record["recovered"])
    return record
