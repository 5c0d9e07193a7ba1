"""Declarative service-level objectives and their evaluation.

An SLO here is a small dict — name, kind, objective — declared in JSON
(or the built-in defaults) and evaluated against the *serialized*
artifacts a run leaves behind, never live objects: what you can gate on
is exactly what a crashed or remote run wrote to disk, the same
philosophy as :mod:`repro.obs.summarize`.

Three objective kinds cover the serving contract:

``latency_p99``
    HDR-histogram p99 of a latency metric (default
    ``serve/latency_ms``) must not exceed ``objective_ms``.
``availability``
    The fraction of requests served *undegraded* — fresh index scores
    or a cache hit, not a breaker/failure fallback — must be at least
    ``objective``.  Unknown-user popularity responses are policy, not
    failures, and do not count against availability.
``degraded_rate``
    ``serve/degraded / serve/requests`` must stay at or below
    ``objective``.

Every result carries a **burn rate**: how much of the objective's budget
the observation consumes, normalized so ``1.0`` is exactly at the
objective.  For latency that is ``observed / objective``; for
availability it is ``error_rate / error_budget`` (the standard
burn-rate alerting quantity: 2.0 means errors are landing twice as fast
as the budget allows).

Exit-code contract of ``repro obs slo`` (pinned in tests): 0 every
objective with data passes, 1 any violation, 2 nothing evaluable
(missing run, no manifest, or no objective had data).
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.obs.sink import read_manifest

__all__ = ["DEFAULT_SLOS", "SloConfigError", "SloResult",
           "evaluate_manifest", "evaluate_run", "evaluate_serve_results",
           "evaluate_serving", "evaluate_slos", "format_report",
           "load_slo_config"]

DEFAULT_SLOS: List[Dict[str, object]] = [
    {"name": "latency-p99", "kind": "latency_p99",
     "metric": "serve/latency_ms", "objective_ms": 250.0},
    {"name": "availability", "kind": "availability", "objective": 0.999},
    {"name": "degraded-rate", "kind": "degraded_rate", "objective": 0.01},
]

_KINDS = ("latency_p99", "availability", "degraded_rate")


class SloConfigError(ValueError):
    """An SLO declaration file is malformed."""


@dataclass
class SloResult:
    """Outcome of one objective against one set of observations.

    ``ok`` is ``None`` when the run carried no data for the objective
    (e.g. a pure training run evaluated against serve SLOs) — reported,
    but neither a pass nor a violation.
    """

    name: str
    kind: str
    objective: float
    observed: Optional[float]
    burn_rate: Optional[float]
    ok: Optional[bool]
    detail: str


def load_slo_config(path=None) -> List[Dict[str, object]]:
    """Objectives from a JSON file, or the defaults when ``path`` is None.

    File shape: ``{"slos": [{"name": ..., "kind": ..., ...}, ...]}``.
    """
    if path is None:
        return [dict(slo) for slo in DEFAULT_SLOS]
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SloConfigError(f"unreadable SLO config {path}: {exc}") from exc
    slos = data.get("slos") if isinstance(data, dict) else None
    if not isinstance(slos, list) or not slos:
        raise SloConfigError(
            f"SLO config {path} must be an object with a non-empty "
            f"'slos' list")
    for i, slo in enumerate(slos):
        if not isinstance(slo, dict) or "name" not in slo:
            raise SloConfigError(
                f"SLO config {path}: slos[{i}] needs a 'name'")
        if slo.get("kind") not in _KINDS:
            raise SloConfigError(
                f"SLO config {path}: slos[{i}] has unknown kind "
                f"{slo.get('kind')!r}; known: {list(_KINDS)}")
        key = ("objective_ms" if slo["kind"] == "latency_p99"
               else "objective")
        if not isinstance(slo.get(key), (int, float)):
            raise SloConfigError(
                f"SLO config {path}: slos[{i}] ({slo['name']}) needs a "
                f"numeric {key!r}")
    return [dict(slo) for slo in slos]


# ----------------------------------------------------------------------
# Core evaluation over plain observations
# ----------------------------------------------------------------------
def evaluate_slos(objectives: List[Dict[str, object]], *,
                  latency_p99_ms: Optional[Dict[str, float]] = None,
                  requests: Optional[int] = None,
                  degraded: Optional[int] = None) -> List[SloResult]:
    """Evaluate objectives against already-extracted observations.

    ``latency_p99_ms`` maps metric name → observed p99 (ms);
    ``requests`` / ``degraded`` are the serve counters.
    """
    latency_p99_ms = latency_p99_ms or {}
    results: List[SloResult] = []
    for slo in objectives:
        kind = str(slo["kind"])
        name = str(slo["name"])
        if kind == "latency_p99":
            objective = float(slo["objective_ms"])
            metric = str(slo.get("metric", "serve/latency_ms"))
            observed = latency_p99_ms.get(metric)
            if observed is None:
                results.append(SloResult(
                    name, kind, objective, None, None, None,
                    f"no data: metric {metric!r} not recorded"))
                continue
            burn = observed / objective if objective > 0 else math.inf
            results.append(SloResult(
                name, kind, objective, float(observed), burn,
                observed <= objective,
                f"p99={observed:.3f}ms vs objective<={objective:g}ms"))
            continue
        objective = float(slo["objective"])
        if not requests:
            results.append(SloResult(
                name, kind, objective, None, None, None,
                "no data: no serve requests recorded"))
            continue
        bad = int(degraded or 0)
        rate = bad / requests
        if kind == "availability":
            observed = 1.0 - rate
            budget = 1.0 - objective
            burn = (rate / budget if budget > 0
                    else (math.inf if bad else 0.0))
            ok = observed >= objective
            detail = (f"{observed:.5%} of {requests} requests undegraded "
                      f"vs objective>={objective:.5%}")
        else:  # degraded_rate
            observed = rate
            burn = (rate / objective if objective > 0
                    else (math.inf if bad else 0.0))
            ok = observed <= objective
            detail = (f"{bad}/{requests} degraded ({rate:.5%}) vs "
                      f"objective<={objective:.5%}")
        results.append(SloResult(name, kind, objective, observed, burn,
                                 ok, detail))
    return results


def _report(results: List[SloResult]) -> Dict[str, object]:
    n_violations = sum(1 for r in results if r.ok is False)
    n_no_data = sum(1 for r in results if r.ok is None)
    return {
        "passed": n_violations == 0 and n_no_data < len(results),
        "n_objectives": len(results),
        "n_violations": n_violations,
        "n_no_data": n_no_data,
        "results": [asdict(r) for r in results],
    }


# ----------------------------------------------------------------------
# Adapters: manifest / run dir / serve-bench results
# ----------------------------------------------------------------------
def evaluate_manifest(manifest: Dict[str, object],
                      objectives: Optional[List[Dict[str, object]]] = None
                      ) -> Dict[str, object]:
    """Evaluate a run manifest's metrics snapshot against objectives."""
    objectives = objectives if objectives is not None else load_slo_config()
    metrics = manifest.get("metrics") or {}
    counters = metrics.get("counters") or {}
    latency = {
        name: summary["p99"]
        for name, summary in (metrics.get("hdr") or {}).items()
        if summary.get("count")}
    results = evaluate_slos(
        objectives, latency_p99_ms=latency,
        requests=counters.get("serve/requests"),
        degraded=counters.get("serve/degraded"))
    return _report(results)


def evaluate_run(run_dir, objectives=None) -> Optional[Dict[str, object]]:
    """Evaluate a run directory; None when it has no manifest."""
    manifest = read_manifest(pathlib.Path(run_dir))
    if manifest is None:
        return None
    return evaluate_manifest(manifest, objectives)


def evaluate_serving(p99_ms: Optional[float], requests: Optional[int],
                     degraded: Optional[int],
                     objectives: Optional[List[Dict[str, object]]] = None
                     ) -> Dict[str, object]:
    """Evaluate one serving measurement: a ``serve/latency_ms`` p99 (or
    None when nothing was timed) plus request and degraded counts."""
    objectives = objectives if objectives is not None else load_slo_config()
    latency = {} if p99_ms is None else {"serve/latency_ms": float(p99_ms)}
    return _report(evaluate_slos(objectives, latency_p99_ms=latency,
                                 requests=requests, degraded=degraded))


def evaluate_serve_results(results: Dict[str, object],
                           objectives: Optional[List[Dict[str, object]]] =
                           None) -> Dict[str, object]:
    """Evaluate serve-bench results (the BENCH_serve.json dict).

    Latency comes from the cold indexed path (the honest number);
    availability from the aggregated service counters the bench records.
    """
    stats = results.get("service_stats") or {}
    return evaluate_serving((results.get("indexed") or {}).get("p99_ms"),
                            requests=stats.get("requests"),
                            degraded=stats.get("degraded"),
                            objectives=objectives)


def format_report(report: Dict[str, object], title: str = "slo") -> str:
    """Human-readable report: one PASS/FAIL/NO-DATA line per objective."""
    lines = [f"{title}: {report['n_objectives']} objective(s), "
             f"{report['n_violations']} violation(s)"]
    for result in report["results"]:
        if result["ok"] is None:
            verdict = "NO-DATA"
        else:
            verdict = "PASS" if result["ok"] else "FAIL"
        burn = result["burn_rate"]
        burn_s = f"burn={burn:.2f}" if burn is not None else "burn=-"
        lines.append(f"  {verdict:>7} {result['name']:<16} {burn_s:<12} "
                     f"{result['detail']}")
    return "\n".join(lines)
