"""Serving benchmark: request latency and the offline-index payoff.

Wraps :func:`repro.serve.bench.run_serve_benchmark` (see that module for
what the four request paths measure) and writes ``BENCH_serve.json`` at
the repository root, next to ``BENCH_perf.json``, so the serving numbers
get the same machine-readable regression trail.

The recorded floor: index-backed single-request serving must be at least
**5x** faster than naive per-request scoring on the live model.  The gap
comes from graph models re-running their full (hyperbolic) propagation
on every ``recommend`` call while the index replays only the final
distance arithmetic.

The percentiles are HDR-histogram-derived (bounded 0.5% relative
error, same machinery the live serve path records into) and the results
carry an ``slo`` report evaluated against the built-in objectives; the
suite asserts that report passes, so a latency or availability
regression fails the benchmark, not just the speedup floor.

The suite also drives the multi-worker front-end through the open-loop
overload drill (:func:`repro.serve.bench.run_frontend_benchmark`):
capacity is estimated, then load is offered at 0.5x and 2x capacity,
and the recorded contract is that under 2x overload the shed rate is
**positive** (admission control engaged) while the admitted p99 still
passes the latency SLO; a ``worker_kill`` drill then asserts zero hard
failures and a restarted fleet.  Results land under the ``frontend``
key of ``BENCH_serve.json``.

Run standalone (``PYTHONPATH=src python benchmarks/bench_serve.py``) or
through pytest (``pytest benchmarks/bench_serve.py``).  Set
``REPRO_BENCH_FAST=1`` for a smaller closed-loop request count; the
open-loop windows are fixed and do not shrink.
"""

from __future__ import annotations

import json
from typing import Dict

from conftest import FAST, REPO_ROOT, bench_meta

RESULT_PATH = REPO_ROOT / "BENCH_serve.json"

N_REQUESTS = 60 if FAST else 200
MIN_SPEEDUP = 5.0
FRONTEND_WORKERS = 2


def run_serve_suite(write: bool = False) -> Dict[str, object]:
    from repro.serve.bench import run_serve_benchmark

    results = run_serve_benchmark(
        model_name="LogiRec++", dataset_name="ciao", epochs=3,
        n_requests=N_REQUESTS, k=10, seed=0,
        frontend_workers=FRONTEND_WORKERS)
    results["meta"] = {**bench_meta(scale=1.0),
                       "min_speedup_floor": MIN_SPEEDUP}
    if write:
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def check_serve_results(results: Dict[str, object]) -> None:
    """The recorded contract; shared by pytest and standalone runs."""
    assert results["speedup_indexed_vs_naive"] >= MIN_SPEEDUP, (
        f"indexed serving speedup "
        f"{results['speedup_indexed_vs_naive']:.1f}x is below the "
        f"{MIN_SPEEDUP}x floor")
    slo = results["slo"]
    assert slo["passed"], (
        f"serve SLO report failed: {slo['n_violations']} violation(s) "
        f"in {json.dumps(slo['results'], indent=2)}")
    frontend = results["frontend"]
    overload = [lvl for lvl in frontend["levels"]
                if lvl["load_factor"] >= 2.0]
    assert overload, "frontend bench recorded no overload level"
    for level in overload:
        assert level["shed_rate"] > 0, (
            f"no load shedding at {level['load_factor']}x capacity "
            f"({level['offered_qps']:.0f} qps offered) -- admission "
            f"control is not engaging")
        assert level["hard_failures"] == 0
    assert frontend["slo"]["passed"], (
        f"frontend SLO report failed under overload: "
        f"{json.dumps(frontend['slo']['results'], indent=2)}")
    drill = frontend["kill_drill"]
    assert drill["hard_failures"] == 0, (
        f"{drill['hard_failures']} request(s) hard-failed during the "
        f"worker-kill drill; the contract is degraded answers, never "
        f"errors")
    assert drill["worker_restarts"] >= 1, (
        "the kill drill ran but the supervisor never restarted a "
        "worker")
    assert drill["fleet_ready"] == frontend["n_workers"], (
        f"fleet did not recover: {drill['fleet_ready']}/"
        f"{frontend['n_workers']} worker(s) ready after the drill")


def test_serve_latency(benchmark, artifact):
    """Regenerate BENCH_serve.json and hold the serving contracts."""
    from repro.serve.bench import format_results

    results = benchmark.pedantic(run_serve_suite,
                                 kwargs=dict(write=not FAST),
                                 rounds=1, iterations=1)
    artifact("serve_latency", format_results(results))
    check_serve_results(results)


if __name__ == "__main__":
    from repro.serve.bench import format_results

    out = run_serve_suite(write=True)
    print(format_results(out))
    check_serve_results(out)
    print(f"[results written to {RESULT_PATH}]")
