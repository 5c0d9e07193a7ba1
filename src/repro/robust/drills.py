"""Reusable fault-injection drills behind ``repro robust inject``.

Each drill builds a small real workload, injects the requested faults
through :class:`~repro.robust.faults.FaultPlan`, exercises the recovery
machinery end to end, and returns a plain dict of observations — the
CLI is only a formatter over these, and ``scripts/ci.sh`` greps their
output, so the exact same code path is what CI gates on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.robust.faults import (FaultPlan, FaultSpec, FaultyIndex,
                                 SimulatedCrash)
from repro.robust.policies import (BreakerPolicy, ResilienceConfig,
                                   RetryPolicy)
from repro.robust.training import TrainingSupervisor, has_fit_state


def run_training_drill(model_name: str = "BPRMF",
                       dataset_name: str = "cd", epochs: int = 4,
                       checkpoint_dir="robust_ck",
                       nan_epoch: Optional[int] = None,
                       nan_kind: str = "nan_grad",
                       kill_epoch: Optional[int] = None,
                       checkpoint_every: int = 1, max_retries: int = 3,
                       lr_backoff: float = 0.5, resume: bool = False,
                       seed: int = 0) -> Dict[str, object]:
    """Train with injected training faults; returns the recovery record.

    ``crashed=True`` means the injected kill point fired (the drill
    swallows :class:`SimulatedCrash` — that *is* the expected outcome);
    re-running with ``resume=True`` finishes the run from the
    auto-checkpoint.  Divergence-budget exhaustion is **not** swallowed:
    :class:`~repro.robust.training.TrainingDivergedError` propagates so
    callers see the failure mode they asked to provoke.
    """
    from repro.data import load_dataset, temporal_split
    from repro.experiments.runner import build_model
    from repro.serve.checkpoint import load_checkpoint

    dataset = load_dataset(dataset_name)
    split = temporal_split(dataset)
    resumed_from = None
    if resume and has_fit_state(checkpoint_dir):
        model = load_checkpoint(checkpoint_dir, dataset=dataset,
                                split=split)
        resumed_from = len(model.loss_history)
    else:
        model = build_model(model_name, dataset, seed=seed)
    model.config.epochs = int(epochs)
    specs = []
    if nan_epoch is not None:
        specs.append(FaultSpec(nan_kind, epoch=int(nan_epoch)))
    if kill_epoch is not None:
        specs.append(FaultSpec("kill", epoch=int(kill_epoch)))
    plan = FaultPlan(specs, seed=seed)
    policy = ResilienceConfig(
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
        max_retries=max_retries, lr_backoff=lr_backoff, resume=resume)
    supervisor = TrainingSupervisor(policy, fault_plan=plan)
    crashed = False
    try:
        model.fit(dataset, split, supervisor=supervisor)
    except SimulatedCrash:
        crashed = True
    losses = model.loss_history
    return {
        "model": type(model).__name__,
        "dataset": dataset_name,
        "epochs_requested": int(epochs),
        "epochs_done": len(losses),
        "completed": not crashed and len(losses) >= int(epochs),
        "crashed": crashed,
        "resumed_from": resumed_from,
        "final_loss": float(losses[-1]) if losses else None,
        "all_losses_finite": bool(np.isfinite(losses).all()) if losses
        else True,
        "faults_injected": plan.counts(),
        **supervisor.summary(),
    }


def run_serving_drill(model_name: str = "BPRMF", dataset_name: str = "cd",
                      epochs: int = 2, n_requests: int = 100,
                      fail_rate: float = 0.1, delay_rate: float = 0.0,
                      delay_s: float = 0.05,
                      timeout_s: Optional[float] = None,
                      retries: int = 2, k: int = 10,
                      breaker: Optional[BreakerPolicy] = None,
                      seed: int = 0) -> Dict[str, object]:
    """Serve ``n_requests`` against a fault-wrapped index.

    The acceptance bar this measures: every request gets a valid ranked
    list of ``k`` distinct item ids, no exception escapes the service,
    and the degradation shows up in the counters rather than in the
    responses.
    """
    from repro.data import load_dataset, temporal_split
    from repro.experiments.runner import build_model
    from repro.serve.config import ServiceConfig
    from repro.serve.engine import RecommendService
    from repro.serve.index import build_index

    dataset = load_dataset(dataset_name)
    split = temporal_split(dataset)
    model = build_model(model_name, dataset, seed=seed)
    model.config.epochs = int(epochs)
    model.fit(dataset, split)
    index = build_index(model, dataset, split)
    specs = []
    if fail_rate > 0:
        specs.append(FaultSpec("score_error", rate=fail_rate))
    if delay_rate > 0:
        specs.append(FaultSpec("score_delay", rate=delay_rate,
                               delay_s=delay_s))
    plan = FaultPlan(specs, seed=seed)
    config = ServiceConfig(
        k=int(k), cache_size=0,
        retry=RetryPolicy(retries=int(retries), backoff_s=0.0,
                          timeout_s=timeout_s),
        breaker=breaker if breaker is not None else BreakerPolicy())
    service = RecommendService(FaultyIndex(index, plan), config=config)
    rng = np.random.default_rng(seed)
    users = rng.integers(0, dataset.n_users, size=int(n_requests))
    responses = service.query_batch(users)
    n_valid = sum(
        1 for r in responses
        if len(r["items"]) == int(k) and len(set(r["items"])) == int(k))
    return {
        "model": model_name,
        "dataset": dataset_name,
        "n_requests": int(n_requests),
        "n_valid": int(n_valid),
        "all_valid": n_valid == int(n_requests),
        "faults_injected": plan.counts(),
        "breaker": service.breaker.snapshot(),
        "stats": dict(service.stats),
    }


def run_frontend_drill(model_name: str = "BPRMF",
                       dataset_name: str = "cd", epochs: int = 2,
                       n_requests: int = 200, n_workers: int = 2,
                       kill_after: Optional[int] = None,
                       stall_after: Optional[int] = None,
                       stall_delay_s: float = 3.0,
                       slow_rate: float = 0.0,
                       slow_delay_s: float = 0.02,
                       worker: int = 0, k: int = 10,
                       qps: float = 200.0,
                       seed: int = 0) -> Dict[str, object]:
    """Drive the multi-worker front-end through process-level faults.

    Trains a small model, shards its index across ``n_workers``
    processes, and offers ``n_requests`` open-loop while the requested
    ``worker_kill`` / ``worker_stall`` / ``slow_shard`` faults fire.
    The acceptance bar: zero hard failures (every request resolves
    ``ok``/``shed``), failures surface only as degraded fallbacks, and
    the supervisor restarts every lost worker.
    """
    from repro.data import load_dataset, temporal_split
    from repro.experiments.runner import build_model
    from repro.serve.config import ServiceConfig
    from repro.serve.bench import run_open_loop
    from repro.serve.frontend import FrontendConfig, ServingFrontend
    from repro.serve.index import build_index

    dataset = load_dataset(dataset_name)
    split = temporal_split(dataset)
    model = build_model(model_name, dataset, seed=seed)
    model.config.epochs = int(epochs)
    model.fit(dataset, split)
    index = build_index(model, dataset, split)
    specs = []
    if kill_after is not None:
        specs.append(FaultSpec("worker_kill",
                               after_requests=int(kill_after),
                               worker=int(worker)))
    if stall_after is not None:
        specs.append(FaultSpec("worker_stall",
                               after_requests=int(stall_after),
                               delay_s=float(stall_delay_s),
                               worker=int(worker)))
    if slow_rate > 0:
        specs.append(FaultSpec("slow_shard", rate=float(slow_rate),
                               delay_s=float(slow_delay_s)))
    plan = FaultPlan(specs, seed=seed)
    config = FrontendConfig(
        n_workers=int(n_workers),
        service=ServiceConfig(k=int(k), cache_size=0),
        stall_after_s=max(0.5, float(stall_delay_s) / 4),
        telemetry=False)
    rng = np.random.default_rng(seed)
    users = rng.integers(0, dataset.n_users,
                         size=min(int(n_requests), dataset.n_users))
    with ServingFrontend(index, config, faults=plan) as frontend:
        outcome = run_open_loop(
            frontend, users, int(k), offered_qps=float(qps),
            duration_s=int(n_requests) / float(qps))
        restarts = frontend.supervisor.total_restarts
        fleet = frontend.supervisor.fleet_health()
        counters = dict(frontend.counters)
    return {
        "model": model_name,
        "dataset": dataset_name,
        "n_workers": int(n_workers),
        "fault_kinds": sorted({s.kind for s in specs}),
        "n_offered": outcome["n_offered"],
        "n_ok": outcome["completed"],
        "n_degraded": outcome["degraded"],
        "n_shed": outcome["shed"],
        "hard_failures": outcome["hard_failures"],
        "all_answered": outcome["hard_failures"] == 0,
        "worker_restarts": restarts,
        "fleet_ready": fleet["ready"],
        "recovered": fleet["ready"] == int(n_workers),
        "p99_ms": outcome["p99_ms"],
        "frontend_counters": counters,
    }


def run_stream_drill(kind: str = "journal_corrupt",
                     dataset_name: str = "cd", n_events: int = 20,
                     workdir=None, seed: int = 0) -> Dict[str, object]:
    """Inject one stream fault into a live ingest loop; assert containment.

    ``detected=True`` means the poison surfaced as a typed
    :class:`~repro.data.dataset.StreamError`; ``contained=True`` means
    the ingest state survived untouched — replay cursor not advanced
    past the poison, dataset interaction count and universe unchanged.
    Both must hold for the drill to pass.  For ``event_duplicate`` the
    drill additionally shows the default at-least-once policy
    (``on_duplicate="skip"``) absorbing the same re-delivery cleanly.
    """
    import tempfile

    from repro.data import load_dataset
    from repro.data.dataset import StreamError
    from repro.online.events import (EventJournal, InteractionEvent,
                                     simulate_events)
    from repro.online.ingest import StreamIngestor

    if kind not in ("journal_corrupt", "event_disorder",
                    "event_duplicate"):
        raise ValueError(f"unknown stream fault kind {kind!r}")
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro_stream_drill_")
    plan = FaultPlan([FaultSpec(kind)], seed=seed)

    dataset = load_dataset(dataset_name)
    journal = EventJournal(Path(workdir) / "journal.jsonl")
    clean = simulate_events(dataset, n_events, seed=seed)
    policy = "error" if kind == "event_duplicate" else "skip"
    ingestor = StreamIngestor(dataset, journal, on_duplicate=policy)

    plan.take_stream(kind)
    if kind == "journal_corrupt":
        # A clean prefix ingests first; the poison lands in a later
        # record, so the drill also proves the cursor holds its ground.
        journal.append(clean[:n_events // 2])
        ingestor.drain()
        end = journal.append(clean[n_events // 2:])
        # Flip one seeded byte inside the fresh records (never the
        # final newline — that would read as a torn write, not
        # corruption, and legitimately defer the tail).
        blob = bytearray(journal.path.read_bytes())
        span = end - ingestor.offset - 1
        offset = ingestor.offset + int(
            np.random.default_rng(seed).integers(0, span))
        blob[offset] ^= 0xFF
        journal.path.write_bytes(bytes(blob))
    elif kind == "event_disorder":
        journal.append(clean[:5])
        ingestor.drain()
        t0 = int(dataset.timestamps.max())
        disordered = [
            InteractionEvent(e.user_id, e.item_id, t0 + 10 - 3 * j)
            for j, e in enumerate(clean[5:8])]
        journal.append(disordered)
    else:  # event_duplicate
        journal.append(clean[:5])
        ingestor.drain()
        # At-least-once re-delivery: same (user, item), fresh timestamp.
        journal.append([InteractionEvent(
            clean[0].user_id, clean[0].item_id,
            int(dataset.timestamps.max()) + 1)])

    offset_before = ingestor.offset
    interactions_before = dataset.n_interactions
    universe_before = (dataset.n_users, dataset.n_items)
    detected = False
    error = None
    try:
        ingestor.drain()
    except StreamError as exc:
        detected = True
        error = str(exc)
    contained = (ingestor.offset == offset_before
                 and dataset.n_interactions == interactions_before
                 and (dataset.n_users, dataset.n_items) == universe_before)

    record: Dict[str, object] = {
        "kind": kind,
        "dataset": dataset_name,
        "detected": detected,
        "contained": contained,
        "offset": int(ingestor.offset),
        "n_interactions": int(dataset.n_interactions),
        "error": error,
        "faults_injected": plan.counts(),
        "passed": detected and contained,
    }
    if kind == "event_duplicate":
        # The default policy must absorb the same re-delivery.
        lenient = StreamIngestor(dataset, journal, on_duplicate="skip")
        lenient.offset = offset_before
        summary = lenient.drain()
        record["skip_policy_duplicates"] = summary["n_duplicates"]
        record["skip_policy_appended"] = summary["n_appended"]
        record["passed"] = bool(record["passed"]
                                and summary["n_duplicates"] >= 1
                                and summary["n_appended"] == 0)
    return record


def run_checkpoint_drill(path, seed: int = 0) -> Dict[str, object]:
    """Corrupt one byte of a checkpoint and verify loading rejects it.

    ``detected=True`` is the pass condition: the checksum caught the
    corruption and :class:`CheckpointError` carried a one-line reason
    instead of a silently wrong model coming back.
    """
    from repro.serve.checkpoint import (ARRAYS_FILE, CheckpointError,
                                        load_checkpoint)

    arrays_path = Path(path) / ARRAYS_FILE
    if not arrays_path.is_file():
        return {"path": str(path), "detected": False,
                "error": f"no checkpoint arrays at {arrays_path}"}
    offset = FaultPlan.corrupt_file(arrays_path, seed=seed)
    try:
        load_checkpoint(path)
    except CheckpointError as exc:
        return {"path": str(path), "detected": True,
                "corrupted_offset": offset, "error": str(exc)}
    return {"path": str(path), "detected": False,
            "corrupted_offset": offset,
            "error": "corrupted checkpoint loaded without complaint"}
