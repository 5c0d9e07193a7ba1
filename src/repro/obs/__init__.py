"""``repro.obs`` — structured telemetry for training, eval, and autograd.

One import gives every layer the same four verbs:

* :func:`trace` / :func:`record_span` — wall-clock attribution (span tree);
* :func:`count` / :func:`gauge_set` / :func:`observe` — metrics
  registry (counters, gauges, bounded-error HDR histograms);
* :func:`event` / :func:`trace_event` — free-form JSONL events, the
  latter stamped with the current request's
  :class:`~repro.obs.trace_context.TraceContext`;
* :func:`get_logger` — the shared structured stderr logger.

Observability v2 (PR 7) adds the request-scoped layer: traces
(:func:`new_trace` / :func:`bind_trace` / :func:`current_trace`), the
Chrome-trace exporter (:mod:`repro.obs.export`), SLO evaluation
(:mod:`repro.obs.slo`), and the sampling profiler
(:mod:`repro.obs.profile`).

All of them are **strict no-ops while no run is active**: a single module
global load and ``None`` check, no allocation, no branching on config.
The instrumented hot paths (sampler, manifold projection, autograd
backward) therefore stay within the 2% disabled-overhead budget asserted
in ``tests/test_obs.py``.

Lifecycle::

    run = obs.start_run(run_dir="runs", config={"model": "LogiRec++"})
    with obs.trace("fit", model="LogiRec++"):
        ...
        obs.count("sampler/resampled", 17)
    obs.finish_run(final_metrics=result.means)   # writes manifest.json

NaN/inf gradient detection in the autograd engine is gated separately
(``nan_checks=True`` on :func:`start_run`, surfaced as ``--trace`` on the
CLI) because it inspects every gradient buffer and is priced accordingly.
"""

from __future__ import annotations

from repro.obs import run as _run
from repro.obs.export import (build_chrome_trace, export_chrome_trace,
                              validate_chrome_trace)
from repro.obs.hdr import HdrHistogram, WindowedHdrHistogram
from repro.obs.logger import RateLimiter, get_logger
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.profile import SamplingProfiler
from repro.obs.run import (Run, current_run, disable, finish_run, start_run)
from repro.obs.sink import (JsonlSink, MemorySink, git_sha, read_events,
                            read_manifest)
from repro.obs.summarize import (aggregate_spans, list_runs,
                                 render_span_tree, summarize,
                                 summarize_json, tree_coverage)
from repro.obs.trace_context import (TraceContext, bind_trace,
                                     current_trace, new_trace)
from repro.obs.tracing import NULL_SPAN, Span, Tracer

__all__ = [
    "Counter", "Gauge", "HdrHistogram", "MetricsRegistry",
    "Run", "SamplingProfiler", "Span", "TraceContext", "Tracer",
    "WindowedHdrHistogram", "NULL_SPAN", "JsonlSink", "MemorySink",
    "RateLimiter", "aggregate_spans", "bind_trace", "build_chrome_trace",
    "count", "current_run", "current_trace", "disable", "enabled",
    "event", "export_chrome_trace", "finish_run", "gauge_set",
    "get_logger", "git_sha", "list_runs", "nan_checks_enabled",
    "new_trace", "observe", "read_events", "read_manifest",
    "record_span", "render_span_tree", "start_run", "summarize",
    "summarize_json", "trace", "trace_event", "tree_coverage",
    "validate_chrome_trace",
]


# ----------------------------------------------------------------------
# Hot-path helpers.  Each starts with one module-global load + None
# check; that is the entire disabled-mode cost.
# ----------------------------------------------------------------------
def enabled() -> bool:
    """True while a run is active (telemetry is being collected)."""
    return _run._RUN is not None


def nan_checks_enabled() -> bool:
    """True when the autograd engine should scan gradients for NaN/inf."""
    return _run._NAN_CHECKS


def trace(name: str, **meta):
    """Open a span context; the shared no-op span when disabled."""
    r = _run._RUN
    if r is None:
        return NULL_SPAN
    return r.tracer.span(name, **meta)


def record_span(name: str, duration_s: float, count: int = 1, **meta):
    """Record a pre-aggregated span (no-op when disabled)."""
    r = _run._RUN
    if r is not None:
        r.tracer.record(name, duration_s, count=count, **meta)


def count(name: str, n: int = 1) -> None:
    """Increment a counter (no-op when disabled)."""
    r = _run._RUN
    if r is not None:
        r.registry.counter(name).inc(n)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge (no-op when disabled)."""
    r = _run._RUN
    if r is not None:
        r.registry.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Observe into a bounded-error HDR histogram (no-op when disabled)."""
    r = _run._RUN
    if r is not None:
        r.registry.hdr(name).observe(value)


def trace_event(name: str, **fields) -> None:
    """Emit a request-scoped instant event (no-op when disabled).

    Stamped with the current :class:`TraceContext` when one is bound —
    the serving engine uses this for retries, timeouts, breaker
    transitions, fallbacks, and cache hits.
    """
    r = _run._RUN
    if r is not None:
        r.trace_event(name, **fields)


def event(name: str, **fields) -> None:
    """Emit one free-form event (no-op when disabled)."""
    r = _run._RUN
    if r is not None:
        r.event(name, **fields)
