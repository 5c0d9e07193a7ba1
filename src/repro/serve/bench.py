"""Serving load harness: closed-loop request paths and open-loop overload.

:func:`run_serve_benchmark` trains a small model, freezes it into a
:class:`~repro.serve.RetrievalIndex`, and measures four request paths
in a closed loop (each request is issued when the last returns):

* ``naive`` — ``model.recommend`` per request on the live model (graph
  models re-run the full propagation every call);
* ``indexed`` — :class:`~repro.serve.RecommendService` single requests
  with the cache disabled (the honest cold-path number);
* ``cached`` — the same requests repeated against a warm LRU cache;
* ``batched`` — ``query_batch`` throughput at a fixed micro-batch
  size (32).

With ``index_path`` a *saved* index (``repro serve export``) is
measured instead of training in-process; the naive path and speedup are
skipped because there is no live model to compare against.

Closed loops cannot see overload: the generator slows down with the
server and the queue never grows.  :func:`run_open_loop` therefore
schedules arrivals on a fixed clock — request *i* is offered at
``start + i / qps`` whether or not earlier requests completed — which
is how real traffic behaves and the only way to measure shed rate and
admitted-latency percentiles under pressure.  ``frontend_workers > 0``
appends :func:`run_frontend_benchmark`, the overload drill over the
multi-worker front-end:

1. estimate capacity with a pipelined closed loop;
2. size admission bounds off capacity (≈50 ms of queue), then sweep
   offered load at 0.5x and 2x capacity — under overload the shed rate
   must be positive while the **admitted** p99 stays within the
   latency SLO (shedding is the mechanism that protects it);
3. re-run under a ``worker_kill`` :class:`~repro.robust.FaultPlan`
   (telemetry off, so the deliberate fault does not pollute the run's
   SLO metrics) and report that zero requests hard-failed while the
   supervisor restarted the worker.

Every latency number of either loop is :func:`latency_summary` of an
HDR histogram with the bounds of the live serve path's
``serve/latency_ms``, so the offline number and the SLO number agree by
construction, and both results carry an SLO report from
:func:`repro.obs.slo.evaluate_serving`.  ``benchmarks/bench_serve.py``
and ``repro serve bench`` are thin wrappers over this module; the ≥5x
indexed-vs-naive speedup is the acceptance floor the benchmark records
into ``BENCH_serve.json``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait as wait_futures
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.obs.hdr import HdrHistogram
from repro.obs.slo import (evaluate_serve_results, evaluate_serving,
                           format_report)
from repro.robust.faults import FaultPlan, FaultSpec
from repro.serve.config import ServiceConfig
from repro.serve.engine import RecommendService
from repro.serve.frontend import FrontendConfig, ServingFrontend
from repro.serve.index import RetrievalIndex, build_index, load_index

# 0.5% relative error is far below run-to-run noise.
_HDR_REL_ERROR = 0.005

_BATCH_SIZE = 32          # the closed-loop ``batched`` path

# Capacity estimate: closed-loop window and requests kept in flight, so
# micro-batching and every worker are exercised.
_CAPACITY_S = 1.0
_PIPELINE = 16
# Open-loop windows: each load level, then the kill drill.
_LEVEL_S = 1.5
_DRILL_S = 2.0
_N_PROBE_USERS = 256      # distinct users the open loop cycles through

# Admission sizing for the benchmark: bound the queue at roughly this
# many seconds of work at estimated capacity, so typical queue wait
# stays well inside the latency objective.
_QUEUE_SECONDS = 0.05

# Per-request deadline for the benchmark levels.  The admitted-latency
# tail is bounded by deadline + one micro-batch of scoring (a request
# can start scoring just before its deadline expires), so the deadline
# sits below the 250 ms p99 objective with enough headroom for a full
# batch on a contended box.
_BENCH_DEADLINE_MS = 150.0


def latency_histogram() -> HdrHistogram:
    """An empty request-latency histogram in milliseconds."""
    return HdrHistogram("bench/latency_ms", rel_error=_HDR_REL_ERROR,
                        min_value=1e-4, max_value=1e7)


def latency_summary(hist: HdrHistogram) -> Dict[str, Optional[float]]:
    """p50/p95/p99 (within the HDR bound) and exact mean of ``hist``.

    An empty histogram gives ``None`` for every statistic.
    """
    empty = not hist.count
    out: Dict[str, Optional[float]] = {
        f"p{q}_ms": None if empty else float(hist.percentile(q))
        for q in (50, 95, 99)}
    out["mean_ms"] = None if empty else hist.mean
    out["hdr_rel_error"] = hist.rel_error
    return out


# ----------------------------------------------------------------------
# Closed loop: the in-process request paths
# ----------------------------------------------------------------------
def _timed_each(fn, requests) -> Dict[str, float]:
    """Per-request latencies + aggregate QPS for ``fn(request)``."""
    hist = latency_histogram()
    start_all = time.perf_counter()
    for request in requests:
        start = time.perf_counter()
        fn(request)
        hist.observe((time.perf_counter() - start) * 1e3)
    wall = time.perf_counter() - start_all
    out = latency_summary(hist)
    out["qps"] = hist.count / wall
    out["n_requests"] = hist.count
    return out


def run_serve_benchmark(model_name: str = "LogiRec++",
                        dataset_name: str = "ciao", epochs: int = 3,
                        n_requests: int = 200, k: int = 10, seed: int = 0,
                        index_path=None, frontend_workers: int = 0
                        ) -> Dict[str, object]:
    """Measure the request paths; returns the results dict.

    ``epochs`` is tiny on purpose: request latency does not depend on
    model quality, only on the scoring arithmetic being the real one.
    With ``index_path`` the saved index is benchmarked as-is (no
    training, no naive path).  ``frontend_workers > 0`` appends
    :func:`run_frontend_benchmark` over the same index as ``frontend``.
    """
    with obs.trace("serve_bench", model=model_name, dataset=dataset_name):
        model = None
        naive = None
        if index_path is not None:
            with obs.trace("load_index"):
                index = load_index(index_path)
            model_name = str(index.meta.get("model_class", model_name))
            dataset_name = str(index.meta.get("dataset", dataset_name))
            n_users, n_items = index.n_users, index.n_items
        else:
            from repro.data import load_dataset, temporal_split
            from repro.experiments.runner import build_model

            dataset = load_dataset(dataset_name)
            split = temporal_split(dataset)
            model = build_model(model_name, dataset, seed=seed)
            model.config.epochs = int(epochs)
            with obs.trace("train"):
                model.fit(dataset, split)
            with obs.trace("build_index"):
                index = build_index(model, dataset, split)
            n_users, n_items = dataset.n_users, dataset.n_items

        rng = np.random.default_rng(seed)
        users = rng.integers(0, n_users, size=n_requests)

        cold = RecommendService(index, ServiceConfig(k=k, cache_size=0))
        warm = RecommendService(
            index, ServiceConfig(k=k, cache_size=4 * n_requests))

        if model is not None:
            train_items = dataset.items_of_user(split.train)

            def _naive(uid: int):
                return model.recommend(
                    int(uid), k=k, exclude=train_items.get(int(uid), ()))

            with obs.trace("naive"):
                naive = _timed_each(_naive, users)
        with obs.trace("indexed"):
            indexed = _timed_each(lambda u: cold.query(int(u)), users)
        with obs.trace("cached"):
            warm.query_batch(users)         # fill the cache
            cached = _timed_each(lambda u: warm.query(int(u)), users)
        with obs.trace("batched"):
            batch_req = RecommendService(
                index, ServiceConfig(k=k, cache_size=0))
            batches = [users[s:s + _BATCH_SIZE]
                       for s in range(0, len(users), _BATCH_SIZE)]
            start = time.perf_counter()
            for batch in batches:
                batch_req.query_batch(batch)
            wall = time.perf_counter() - start
            batched = {"qps": len(users) / wall,
                       "batch_size": _BATCH_SIZE,
                       "n_requests": int(len(users))}

    service_stats: Dict[str, int] = {}
    for service in (cold, warm, batch_req):
        for stat_name, value in service.stats.items():
            service_stats[stat_name] = (
                service_stats.get(stat_name, 0) + int(value))

    results = {
        "model": model_name,
        "dataset": dataset_name,
        "n_users": int(n_users),
        "n_items": int(n_items),
        "k": k,
        "epochs": int(epochs),
        "index_kind": index.kind,
        "naive": naive,
        "indexed": indexed,
        "cached": cached,
        "batched": batched,
        "speedup_indexed_vs_naive": (
            naive["mean_ms"] / indexed["mean_ms"] if naive else None),
        "cache_stats": warm.cache_info(),
        "service_stats": service_stats,
    }
    results["slo"] = evaluate_serve_results(results)
    if frontend_workers > 0:
        with obs.trace("frontend_bench", n_workers=frontend_workers):
            results["frontend"] = run_frontend_benchmark(
                index, n_workers=int(frontend_workers), k=k, seed=seed)
    return results


def format_results(results: Dict[str, object]) -> str:
    lines = [
        f"serve bench: {results['model']} on {results['dataset']} "
        f"({results['n_users']} users x {results['n_items']} items, "
        f"index kind={results['index_kind']}, k={results['k']})"]
    for path in ("naive", "indexed", "cached"):
        row = results.get(path)
        if row is None:
            continue
        lines.append(
            f"{path:>8}: p50={row['p50_ms']:.3f}ms "
            f"p95={row['p95_ms']:.3f}ms p99={row['p99_ms']:.3f}ms "
            f"({row['qps']:.0f} qps)")
    batched = results["batched"]
    lines.append(f" batched: {batched['qps']:.0f} qps at "
                 f"batch_size={batched['batch_size']}")
    speedup = results.get("speedup_indexed_vs_naive")
    if speedup is not None:
        lines.append(f"speedup (indexed vs naive single request): "
                     f"{speedup:.1f}x")
    slo = results.get("slo")
    if slo is not None:
        lines.append(format_report(slo))
    frontend = results.get("frontend")
    if frontend is not None:
        lines.append(format_frontend_results(frontend))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Open loop: the multi-worker front-end under offered load
# ----------------------------------------------------------------------
def estimate_capacity(frontend: ServingFrontend,
                      user_ids: Sequence[int], k: int,
                      duration_s: float = _CAPACITY_S) -> float:
    """Sustained QPS from a pipelined closed loop (no deadlines).

    The result is the denominator every open-loop level is sized
    against.
    """
    users = list(user_ids)
    completed = 0
    i = 0
    start = time.monotonic()
    deadline = start + duration_s
    while time.monotonic() < deadline:
        futures = [frontend.submit(int(users[(i + j) % len(users)]), k,
                                   deadline_ms=None)
                   for j in range(_PIPELINE)]
        i += _PIPELINE
        for future in futures:
            if future.result(timeout=30.0)["status"] == "ok":
                completed += 1
    wall = time.monotonic() - start
    return completed / wall if wall > 0 else 0.0


def run_open_loop(frontend: ServingFrontend, user_ids: Sequence[int],
                  k: int, offered_qps: float, duration_s: float,
                  deadline_ms="default") -> Dict[str, object]:
    """Offer ``offered_qps`` for ``duration_s``; classify every outcome.

    Latency percentiles cover **admitted, completed** requests only
    (submit → future resolution, i.e. what a client that was not shed
    experienced).  Shed/draining responses are counted, not timed —
    they resolve in microseconds by design and would only flatter the
    percentiles.
    """
    users = list(user_ids)
    n_offered = max(1, int(offered_qps * duration_s))
    interval = 1.0 / offered_qps
    hist = latency_histogram()
    lock = threading.Lock()
    outcomes = {"ok": 0, "degraded": 0, "shed": 0, "draining": 0,
                "hard_failures": 0}

    def _classify(future, t_submit: float) -> None:
        elapsed = time.monotonic() - t_submit
        try:
            resolution = future.result()
            status = resolution.get("status")
        except Exception:
            status = None
        with lock:
            if status == "ok":
                outcomes["ok"] += 1
                if resolution["result"].get("degraded"):
                    outcomes["degraded"] += 1
                hist.observe(elapsed * 1e3)
            elif status in ("shed", "draining"):
                outcomes[status] += 1
            else:
                outcomes["hard_failures"] += 1

    futures: List = []
    start = time.monotonic()
    for i in range(n_offered):
        target = start + i * interval
        now = time.monotonic()
        if target > now:
            time.sleep(target - now)
        # Behind schedule: do NOT skip or delay — open loop means the
        # backlog lands on the server, not on the generator.
        t_submit = time.monotonic()
        future = frontend.submit(int(users[i % len(users)]), k,
                                 deadline_ms)
        future.add_done_callback(
            lambda f, t=t_submit: _classify(f, t))
        futures.append(future)
    wait_futures(futures, timeout=30.0)
    wall = time.monotonic() - start
    with lock:
        done = dict(outcomes)
        latency = latency_summary(hist)
    admitted = done["ok"]
    return {
        "offered_qps": float(offered_qps),
        "duration_s": float(duration_s),
        "n_offered": n_offered,
        "completed": admitted,
        "degraded": done["degraded"],
        "shed": done["shed"],
        "draining": done["draining"],
        "hard_failures": done["hard_failures"],
        "shed_rate": done["shed"] / n_offered,
        "achieved_qps": admitted / wall if wall > 0 else 0.0,
        **latency,
    }


def _bench_config(n_workers: int, capacity_qps: float, k: int,
                  telemetry: bool) -> FrontendConfig:
    depth = max(4, int(capacity_qps * _QUEUE_SECONDS))
    return FrontendConfig(
        n_workers=n_workers,
        service=ServiceConfig(k=k, cache_size=0),
        max_queue_depth=depth,
        default_deadline_ms=_BENCH_DEADLINE_MS,
        telemetry=telemetry)


def run_frontend_benchmark(index: RetrievalIndex, n_workers: int = 2,
                           k: int = 10, seed: int = 0
                           ) -> Dict[str, object]:
    """The overload + kill drill; returns the BENCH ``frontend`` dict."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, index.n_users,
                         size=min(_N_PROBE_USERS, index.n_users))

    # Phase 1+2: capacity, then open-loop levels, one telemetered
    # front-end for all of it (capacity sizing uses a generous queue).
    sizing = _bench_config(n_workers, 1e4, k, telemetry=True)
    with ServingFrontend(index, sizing) as frontend:
        capacity = estimate_capacity(frontend, users, k)
    config = _bench_config(n_workers, capacity, k, telemetry=True)
    levels: List[Dict[str, object]] = []
    with ServingFrontend(index, config) as frontend:
        for factor in (0.5, 2.0):
            level = run_open_loop(
                frontend, users, k,
                offered_qps=max(1.0, capacity * factor),
                duration_s=_LEVEL_S)
            level["load_factor"] = factor
            levels.append(level)
        admission = dict(frontend.counters)
        status = frontend.status()

    # SLO view over the open-loop levels: worst admitted p99 against
    # the latency objective, degraded fraction of completed requests
    # against availability.  Sheds are excluded by construction — the
    # SLO covers what was admitted; the shed rate is reported (and
    # asserted positive under overload) separately.
    p99s = [lvl["p99_ms"] for lvl in levels if lvl["p99_ms"] is not None]
    results: Dict[str, object] = {
        "n_workers": n_workers,
        "k": k,
        "capacity_qps": float(capacity),
        "max_queue_depth": config.max_queue_depth,
        "default_deadline_ms": config.default_deadline_ms,
        "levels": levels,
        "admission_counters": admission,
        "ewma_queue_wait_ms": status["ewma_queue_wait_ms"],
        "slo": evaluate_serving(
            max(p99s) if p99s else None,
            requests=sum(lvl["completed"] for lvl in levels),
            degraded=sum(lvl["degraded"] for lvl in levels)),
    }

    # Kill worker 0 early in the drill window: roughly 5% of the
    # drill's offered traffic, at least a handful.
    after = max(5, int(0.05 * capacity * _DRILL_S / 2))
    plan = FaultPlan([FaultSpec("worker_kill", after_requests=after)],
                     seed=seed)
    drill_config = _bench_config(n_workers, capacity, k, telemetry=False)
    with ServingFrontend(index, drill_config, faults=plan) as frontend:
        drill = run_open_loop(
            frontend, users, k, offered_qps=max(1.0, capacity * 0.7),
            duration_s=_DRILL_S)
        drill["worker_restarts"] = frontend.supervisor.total_restarts
        drill["fault_kinds"] = sorted({spec.kind for spec in plan.specs})
        drill["fleet_ready"] = frontend.supervisor.fleet_health()["ready"]
    results["kill_drill"] = drill
    return results


def format_frontend_results(results: Dict[str, object]) -> str:
    lines = [f"frontend bench: {results['n_workers']} worker(s), "
             f"capacity~{results['capacity_qps']:.0f} qps, "
             f"queue depth {results['max_queue_depth']}, "
             f"deadline {results['default_deadline_ms']:.0f}ms"]
    for level in results["levels"]:
        p99 = level["p99_ms"]
        p99_s = f"p99={p99:.1f}ms" if p99 is not None else "p99=-"
        lines.append(
            f"  {level['load_factor']:>4}x: offered "
            f"{level['offered_qps']:.0f} qps -> {level['completed']} ok "
            f"({level['degraded']} degraded), {level['shed']} shed "
            f"(rate {level['shed_rate']:.1%}), {p99_s}")
    drill = results["kill_drill"]
    lines.append(
        f"  kill drill: {drill['completed']} ok "
        f"({drill['degraded']} degraded), {drill['shed']} shed, "
        f"{drill['hard_failures']} hard failure(s), "
        f"{drill['worker_restarts']} restart(s), "
        f"{drill['fleet_ready']}/{results['n_workers']} ready")
    lines.append(format_report(results["slo"], title="frontend slo"))
    return "\n".join(lines)
