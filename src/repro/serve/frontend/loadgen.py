"""Open-loop load generation and the front-end overload benchmark.

Closed-loop benchmarks (issue the next request when the last returns)
cannot see overload: the generator slows down with the server and the
queue never grows.  :func:`run_open_loop` therefore schedules arrivals
on a fixed clock — request *i* is offered at ``start + i / qps``
whether or not earlier requests completed — which is how real traffic
behaves and the only way to measure shed rate and admitted-latency
percentiles under pressure.

:func:`run_frontend_benchmark` is the overload drill recorded into
``BENCH_serve.json``:

1. estimate single-box capacity with a pipelined closed loop;
2. size admission bounds off capacity (≈50 ms of queue), then sweep
   offered load at 0.5x and 2x capacity — under overload the shed rate
   must be positive while the **admitted** p99 stays within the
   latency SLO (shedding is the mechanism that protects it);
3. optionally re-run under a ``worker_kill``
   :class:`~repro.robust.FaultPlan` (telemetry off, so the deliberate
   fault does not pollute the run's SLO metrics) and report that zero
   requests hard-failed while the supervisor restarted the worker.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait as wait_futures
from typing import Dict, List, Sequence

import numpy as np

from repro.obs.hdr import HdrHistogram
from repro.robust.faults import FaultPlan, FaultSpec
from repro.serve.config import ServiceConfig
from repro.serve.frontend.config import FrontendConfig
from repro.serve.frontend.core import ServingFrontend
from repro.serve.index import RetrievalIndex

_HDR_REL_ERROR = 0.005

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


def estimate_capacity(frontend: ServingFrontend,
                      user_ids: Sequence[int], k: int,
                      duration_s: float = 1.0,
                      pipeline: int = 16) -> float:
    """Sustained QPS from a pipelined closed loop (no deadlines).

    ``pipeline`` requests are kept in flight so micro-batching and both
    workers are exercised; the result is the denominator every
    open-loop level is sized against.
    """
    users = list(user_ids)
    completed = 0
    i = 0
    start = time.monotonic()
    deadline = start + duration_s
    while time.monotonic() < deadline:
        futures = [frontend.submit(int(users[(i + j) % len(users)]), k,
                                   deadline_ms=None)
                   for j in range(pipeline)]
        i += pipeline
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
    hist = HdrHistogram("loadgen/latency_ms", rel_error=_HDR_REL_ERROR,
                        min_value=1e-4, max_value=1e7)
    lock = threading.Lock()
    outcomes = {"ok": 0, "degraded": 0, "shed": 0, "draining": 0,
                "hard_failures": 0}
    latency_sum = [0.0]

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
                latency_sum[0] += elapsed * 1e3
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
        total_ms = latency_sum[0]
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
        "p50_ms": float(hist.percentile(50)) if admitted else None,
        "p95_ms": float(hist.percentile(95)) if admitted else None,
        "p99_ms": float(hist.percentile(99)) if admitted else None,
        "mean_ms": total_ms / admitted if admitted else None,
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
                           k: int = 10, seed: int = 0,
                           n_probe_users: int = 256,
                           capacity_duration_s: float = 1.0,
                           level_duration_s: float = 1.5,
                           drill_duration_s: float = 2.0,
                           kill_drill: bool = True
                           ) -> Dict[str, object]:
    """The overload + kill drill; returns the BENCH ``frontend`` dict."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, index.n_users,
                         size=min(n_probe_users, index.n_users))

    # Phase 1+2: capacity, then open-loop levels, one telemetered
    # front-end for all of it (capacity sizing uses a generous queue).
    sizing = _bench_config(n_workers, 1e4, k, telemetry=True)
    with ServingFrontend(index, sizing) as frontend:
        capacity = estimate_capacity(frontend, users, k,
                                     capacity_duration_s)
    config = _bench_config(n_workers, capacity, k, telemetry=True)
    levels: List[Dict[str, object]] = []
    with ServingFrontend(index, config) as frontend:
        for factor in (0.5, 2.0):
            level = run_open_loop(
                frontend, users, k,
                offered_qps=max(1.0, capacity * factor),
                duration_s=level_duration_s)
            level["load_factor"] = factor
            levels.append(level)
        admission = dict(frontend.counters)
        status = frontend.status()

    results: Dict[str, object] = {
        "n_workers": n_workers,
        "k": k,
        "capacity_qps": float(capacity),
        "max_queue_depth": config.max_queue_depth,
        "default_deadline_ms": config.default_deadline_ms,
        "levels": levels,
        "admission_counters": admission,
        "ewma_queue_wait_ms": status["ewma_queue_wait_ms"],
    }

    # SLO view over the open-loop levels: worst admitted p99 against
    # the latency objective, degraded fraction of completed requests
    # against availability.  Sheds are excluded by construction — the
    # SLO covers what was admitted; the shed rate is reported (and
    # asserted positive under overload) separately.
    from repro.obs.slo import _report, evaluate_slos, load_slo_config
    p99s = [lvl["p99_ms"] for lvl in levels if lvl["p99_ms"] is not None]
    completed = sum(lvl["completed"] for lvl in levels)
    degraded = sum(lvl["degraded"] for lvl in levels)
    results["slo"] = _report(evaluate_slos(
        load_slo_config(),
        latency_p99_ms={"serve/latency_ms": max(p99s)} if p99s else {},
        requests=completed, degraded=degraded))

    if kill_drill:
        # Kill worker 0 early in the drill window: roughly 5% of the
        # drill's offered traffic, at least a handful.
        after = max(5, int(0.05 * capacity * drill_duration_s / 2))
        plan = FaultPlan([FaultSpec("worker_kill", after_requests=after)],
                         seed=seed)
        drill_config = _bench_config(n_workers, capacity, k,
                                     telemetry=False)
        with ServingFrontend(index, drill_config,
                             faults=plan) as frontend:
            drill = run_open_loop(
                frontend, users, k,
                offered_qps=max(1.0, capacity * 0.7),
                duration_s=drill_duration_s)
            drill["worker_restarts"] = frontend.supervisor.total_restarts
            drill["fault_kinds"] = sorted(
                {spec.kind for spec in plan.specs})
            fleet = frontend.supervisor.fleet_health()
            drill["fleet_ready"] = fleet["ready"]
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
    drill = results.get("kill_drill")
    if drill is not None:
        lines.append(
            f"  kill drill: {drill['completed']} ok "
            f"({drill['degraded']} degraded), {drill['shed']} shed, "
            f"{drill['hard_failures']} hard failure(s), "
            f"{drill['worker_restarts']} restart(s), "
            f"{drill['fleet_ready']}/{results['n_workers']} ready")
    slo = results.get("slo")
    if slo is not None:
        from repro.obs.slo import format_report
        lines.append(format_report(slo, title="frontend slo"))
    return "\n".join(lines)
