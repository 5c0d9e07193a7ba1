"""Tests for observability v2 (ISSUE 7).

Covers the request-scoped layer on top of the PR2 telemetry core:

* **HDR histograms** — the bounded-relative-error guarantee under a
  randomized workload, shard-merge equivalence, the sparse wire form,
  rolling windows under a fake clock, and the pinned percentile edge
  cases (shared with the reservoir histogram).
* **Trace contexts** — contextvars propagation, span stamping, and the
  engine threading one context per request through retries, breaker
  transitions, and fallbacks.
* **Chrome-trace export** — a golden file pinning the exact translation
  of handcrafted events, plus the structural validator both ways.
* **SLO evaluation** — the pass/fail/no-data matrix, burn rates, config
  validation, and the CLI's 0/1/2 exit-code contract.
* **Sampling profiler** — smoke (a busy function shows up) and span
  attribution when a run is active.
* **Thread safety** — concurrent counter/HDR mutation loses no updates.
* **Overhead** — the new disabled-path helpers priced like the old ones.
"""

from __future__ import annotations

import json
import math
import pathlib
import threading
import time

import pytest

from repro import obs
from repro.obs.hdr import HdrHistogram, WindowedHdrHistogram
from repro.obs.slo import (SloConfigError, evaluate_serve_results,
                           evaluate_slos, load_slo_config)
from repro.obs.trace_context import reset_trace_ids

GOLDEN_TRACE = pathlib.Path(__file__).parent / "data" / "trace_golden.json"


@pytest.fixture(autouse=True)
def _obs_reset():
    """Every test starts and ends with telemetry off and fresh trace ids."""
    obs.disable()
    reset_trace_ids()
    yield
    obs.disable()


# ----------------------------------------------------------------------
# HDR histograms
# ----------------------------------------------------------------------
def test_hdr_percentiles_within_relative_error_bound():
    import random
    rng = random.Random(7)
    values = sorted(rng.lognormvariate(1.0, 1.5) for _ in range(5000))
    for rel_error in (0.01, 0.005):
        hist = HdrHistogram("h", rel_error=rel_error, min_value=1e-3,
                            max_value=1e6)
        for v in values:
            hist.observe(v)
        for q in (1, 10, 25, 50, 75, 90, 95, 99, 99.9):
            exact = values[max(0, math.ceil(q / 100 * len(values)) - 1)]
            got = hist.percentile(q)
            assert abs(got - exact) / exact <= rel_error, (
                f"rel_error={rel_error} q={q}: {got} vs exact {exact}")


def test_hdr_counts_are_exact_and_mean_exact():
    hist = HdrHistogram("h")
    for v in range(1, 1001):
        hist.observe(float(v))
    assert hist.count == 1000
    assert hist.mean == pytest.approx(500.5)
    assert hist.min == 1.0 and hist.max == 1000.0


def test_hdr_edge_cases_pinned():
    hist = HdrHistogram("h")
    assert math.isnan(hist.percentile(50))          # empty -> NaN
    with pytest.raises(ValueError):
        hist.percentile(-1)
    with pytest.raises(ValueError):
        hist.percentile(100.5)
    hist.observe(42.0)                              # single observation
    for q in (0, 37, 50, 100):
        assert hist.percentile(q) == 42.0
    hist.observe(7.0)
    assert hist.percentile(0) == 7.0                # exact observed min
    assert hist.percentile(100) == 42.0             # exact observed max


def test_hdr_underflow_overflow_buckets():
    hist = HdrHistogram("h", min_value=1.0, max_value=100.0)
    hist.observe(0.25)      # below range -> underflow
    hist.observe(5000.0)    # above range -> overflow
    assert hist.count == 2
    assert hist.percentile(25) == 0.25      # exact observed extremes
    assert hist.percentile(99) == 5000.0


def test_hdr_merge_of_shards_equals_whole():
    whole = HdrHistogram("lat")
    shards = [HdrHistogram("lat") for _ in range(4)]
    for i in range(1, 2001):
        whole.observe(float(i))
        shards[i % 4].observe(float(i))
    merged = HdrHistogram("lat")
    for shard in shards:
        merged.merge(shard)
    assert merged.count == whole.count
    assert merged.total == pytest.approx(whole.total)
    assert merged.counts == whole.counts
    for q in (50, 95, 99):
        assert merged.percentile(q) == whole.percentile(q)


def test_hdr_merge_rejects_geometry_mismatch():
    a = HdrHistogram("a", rel_error=0.01)
    b = HdrHistogram("b", rel_error=0.005)
    with pytest.raises(ValueError, match="geometry"):
        a.merge(b)
    c = HdrHistogram("c", min_value=1e-2)
    with pytest.raises(ValueError, match="geometry"):
        a.merge(c)


def test_hdr_dict_round_trip_is_json_safe():
    hist = HdrHistogram("h")
    for v in (0.5, 3.0, 3.1, 250.0, 1e9):
        hist.observe(v)
    wire = json.loads(json.dumps(hist.to_dict()))   # survives JSON
    back = HdrHistogram.from_dict(wire)
    assert back.count == hist.count
    assert back.counts == hist.counts
    for q in (0, 50, 99, 100):
        assert back.percentile(q) == hist.percentile(q)


def test_windowed_hdr_expires_old_slices():
    clock = [0.0]
    win = WindowedHdrHistogram("w", window_s=60.0, n_slices=6,
                               clock=lambda: clock[0])
    for _ in range(100):
        win.observe(1000.0)             # slow requests at t=0
    clock[0] = 30.0
    for _ in range(100):
        win.observe(1.0)                # fast requests at t=30
    snap = win.snapshot()
    assert snap.count == 200            # both slices inside the window
    assert snap.percentile(99) > 500
    clock[0] = 65.0                     # t=0 slice now outside [5, 65]
    snap = win.snapshot()
    assert snap.count == 100
    assert snap.percentile(99) < 2.0
    clock[0] = 1000.0                   # everything expired
    assert win.snapshot().count == 0
    assert win.summary() == {"count": 0, "window_s": 60.0}


def test_registry_hdr_get_or_create_and_snapshot_section():
    reg = obs.MetricsRegistry()
    reg.hdr("serve/latency_ms").observe(12.0)
    assert reg.hdr("serve/latency_ms").count == 1   # same object
    with pytest.raises(TypeError):
        reg.counter("serve/latency_ms")             # type confusion
    snap = reg.snapshot()
    assert snap["hdr"]["serve/latency_ms"]["count"] == 1
    assert set(snap) == {"counters", "gauges", "hdr"}


def test_hdr_nan_is_counted_apart():
    hist = HdrHistogram("h")
    for v in (5.0, float("nan"), 1.0, 2.0, 3.0, 4.0):
        hist.observe(v)
    assert hist.nan == 1
    assert hist.count == 5 and sum(hist.counts) == 5
    assert hist.total == 15.0 and hist.mean == 3.0
    assert (hist.min, hist.max) == (1.0, 5.0)
    assert abs(hist.percentile(50) - 3.0) <= 3.0 * hist.rel_error
    summary = hist.summary()
    assert (summary["count"], summary["nan"]) == (5, 1)
    only_nan = HdrHistogram("n")
    only_nan.observe(float("nan"))
    assert only_nan.summary() == {"count": 0, "nan": 1}
    assert math.isnan(only_nan.percentile(50))


def test_hdr_nan_survives_merge_and_wire_form():
    a, b = HdrHistogram("h"), HdrHistogram("h")
    a.observe(float("nan"))
    b.observe(float("nan"))
    b.observe(2.0)
    a.merge(b)
    assert (a.nan, a.count, a.min, a.max) == (2, 1, 2.0, 2.0)
    back = HdrHistogram.from_dict(json.loads(json.dumps(a.to_dict())))
    assert (back.nan, back.count) == (2, 1)
    assert back.counts == a.counts
    assert back.summary() == a.summary()


# ----------------------------------------------------------------------
# Thread safety (satellite 1)
# ----------------------------------------------------------------------
def test_concurrent_metric_mutation_loses_nothing():
    reg = obs.MetricsRegistry()
    n_threads, per_thread = 8, 4000

    def work() -> None:
        for i in range(per_thread):
            reg.counter("c").inc()
            reg.gauge("g").set(float(i))
            reg.hdr("l").observe(1.0 + i % 7)

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = n_threads * per_thread
    assert reg.counter("c").value == expected
    assert reg.hdr("l").count == expected
    assert sum(reg.hdr("l").counts) == expected


# ----------------------------------------------------------------------
# Trace contexts
# ----------------------------------------------------------------------
def test_trace_ids_deterministic_and_context_propagates():
    ctx1 = obs.new_trace("serve/request", user=3)
    ctx2 = obs.new_trace("serve/request")
    assert (ctx1.trace_id, ctx2.trace_id) == ("00000001", "00000002")
    assert obs.current_trace() is None
    with obs.bind_trace(ctx1):
        assert obs.current_trace() is ctx1
        with obs.bind_trace(ctx2):                  # re-binding nests
            assert obs.current_trace() is ctx2
        assert obs.current_trace() is ctx1
    assert obs.current_trace() is None
    with obs.bind_trace(None):                      # disabled-mode no-op
        assert obs.current_trace() is None


def test_spans_and_trace_events_stamped_with_trace(tmp_path):
    run = obs.start_run(run_dir=tmp_path)
    ctx = obs.new_trace("serve/request", user=1)
    with obs.bind_trace(ctx):
        with obs.trace("serve/score", user=1):
            pass
        obs.trace_event("serve/retry", user=1, attempt=1)
    with obs.trace("fit"):                          # outside any trace
        pass
    obs.trace_event("orphan")                       # no trace bound
    obs.finish_run()
    events = obs.read_events(run.dir)
    spans = {e["name"]: e for e in events if e["type"] == "span"}
    assert spans["serve/score"]["meta"]["trace"] == ctx.trace_id
    assert "trace" not in spans["fit"].get("meta", {})
    tes = {e["name"]: e for e in events if e["type"] == "trace_event"}
    assert tes["serve/retry"]["trace"] == ctx.trace_id
    assert tes["serve/retry"]["span"] == ctx.span_id
    assert "trace" not in tes["orphan"]


# ----------------------------------------------------------------------
# Engine integration: one trace per request through failure machinery
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving():
    from repro.data import SyntheticConfig, generate_dataset, temporal_split
    from repro.experiments.runner import build_model
    from repro.serve import build_index

    ds = generate_dataset(SyntheticConfig(n_users=24, n_items=40, depth=2,
                                          branching=3,
                                          mean_interactions=8.0, seed=4))
    split = temporal_split(ds)
    model = build_model("BPRMF", ds, seed=0)
    model.config.epochs = 1
    model.fit(ds, split)
    return build_index(model, ds, split)


class _FailingIndex:
    """Proxy whose score_users always raises (breaker-drill workload)."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def score_users(self, uids):
        raise RuntimeError("scorer down")


def test_engine_emits_request_traces_and_breaker_events(tmp_path, serving):
    from repro.robust.policies import BreakerPolicy, RetryPolicy
    from repro.serve import RecommendService, ServiceConfig

    run = obs.start_run(run_dir=tmp_path)
    service = RecommendService(
        _FailingIndex(serving),
        ServiceConfig(k=5, cache_size=0,
                      retry=RetryPolicy(retries=1, backoff_s=0.0),
                      breaker=BreakerPolicy(window=4, min_requests=2,
                                            threshold=0.5, cooldown=2)))
    responses = service.query_batch(range(8))
    obs.finish_run()
    assert all(len(r["items"]) == 5 for r in responses)  # contract holds

    events = obs.read_events(run.dir)
    te = [e for e in events if e["type"] == "trace_event"]
    by_name = {}
    for e in te:
        by_name.setdefault(e["name"], []).append(e)
    assert "serve/scoring_error" in by_name
    assert "serve/retry" in by_name
    assert "serve/fallback" in by_name
    assert "serve/short_circuit" in by_name          # breaker cooldown
    transitions = [(e["old"], e["new"])
                   for e in by_name["serve/breaker_transition"]]
    assert ("closed", "open") in transitions
    assert ("open", "half_open") in transitions
    # Every failure-path event carries its request's trace id.
    assert all("trace" in e for e in by_name["serve/scoring_error"])
    # One request span per request, each on its own trace.
    reqs = [e for e in events
            if e["type"] == "span" and e["name"] == "serve/request"]
    assert len(reqs) == 8
    assert len({r["meta"]["trace"] for r in reqs}) == 8
    assert all(r["meta"]["source"] == "popularity" for r in reqs)

    manifest = obs.read_manifest(run.dir)
    hdr = manifest["metrics"]["hdr"]["serve/latency_ms"]
    assert hdr["count"] == 8
    counters = manifest["metrics"]["counters"]
    assert counters["serve/degraded"] >= 1
    assert counters["serve/breaker_opens"] >= 1


def test_engine_trace_disabled_has_no_contexts(serving):
    from repro.serve import RecommendService, ServiceConfig

    service = RecommendService(serving, ServiceConfig(k=5, cache_size=8))
    responses = service.query_batch([0, 1])
    responses += service.query_batch([0])
    assert obs.current_trace() is None
    assert [r["source"] for r in responses] == ["index", "index", "cache"]


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
def _handcrafted_events():
    """A fixed event log exercising every translation branch."""
    return [
        {"type": "event", "name": "run_start", "t0": 0.0,
         "run_id": "golden"},
        {"type": "span", "name": "fit", "id": 1, "parent": None,
         "t0": 0.001, "dur": 0.5, "meta": {"model": "LogiRecPP"}},
        {"type": "span", "name": "epoch", "id": 2, "parent": 1,
         "t0": 0.002, "dur": 0.25, "count": 3, "meta": {}},
        {"type": "span", "name": "serve/request", "id": 3, "parent": None,
         "t0": 0.6, "dur": 0.01,
         "meta": {"user": 7, "source": "index", "trace": "0000002a"}},
        {"type": "trace_event", "name": "serve/retry", "t0": 0.605,
         "trace": "0000002a", "span": 1, "user": 7, "attempt": 1},
        {"type": "event", "name": "run_end", "t0": 0.7, "n_events": 5},
    ]


def test_chrome_trace_matches_golden_file():
    doc = obs.build_chrome_trace(
        _handcrafted_events(),
        manifest={"run_id": "golden", "git_sha": "abc1234",
                  "started_at": "2026-01-01T00:00:00", "wall_s": 0.7})
    golden = json.loads(GOLDEN_TRACE.read_text(encoding="utf-8"))
    assert doc == golden


def test_chrome_trace_structure_and_lanes():
    doc = obs.build_chrome_trace(_handcrafted_events())
    assert obs.validate_chrome_trace(doc) == []
    events = doc["traceEvents"]
    lanes = {e["args"]["name"]: e["tid"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert lanes["main"] == 1
    assert lanes["request 0000002a"] == 2
    fit = next(e for e in events if e.get("name") == "fit")
    assert (fit["ph"], fit["tid"], fit["ts"], fit["dur"]) == \
        ("X", 1, 1000.0, 500000.0)                   # microseconds
    req = next(e for e in events if e.get("name") == "serve/request")
    assert req["tid"] == 2 and req["cat"] == "serve"
    assert "trace" not in req["args"]                # identity, not arg
    retry = next(e for e in events if e.get("name") == "serve/retry")
    assert (retry["ph"], retry["s"], retry["tid"]) == ("i", "t", 2)
    start = next(e for e in events if e.get("name") == "run_start")
    assert (start["ph"], start["s"], start["tid"]) == ("i", "g", 1)
    epoch = next(e for e in events if e.get("name") == "epoch")
    assert epoch["args"]["count"] == 3               # aggregated spans


def test_validator_flags_malformed_documents():
    assert obs.validate_chrome_trace([]) != []           # not an object
    assert obs.validate_chrome_trace({}) != []           # no traceEvents
    bad = {"traceEvents": [
        {"ph": "Z", "name": "x", "pid": 1, "tid": 1},    # unknown phase
        {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0},  # no dur
        {"ph": "i", "name": "x", "pid": 1, "tid": 1, "ts": 0,
         "s": "q"},                                      # bad scope
        {"ph": "X", "name": 3, "pid": "1", "tid": 1, "ts": 0,
         "dur": 1},                                      # wrong types
    ]}
    errors = obs.validate_chrome_trace(bad)
    assert len(errors) >= 4


def test_export_chrome_trace_round_trip(tmp_path):
    run = obs.start_run(run_dir=tmp_path)
    with obs.trace("fit"):
        pass
    obs.finish_run()
    out = obs.export_chrome_trace(run.dir)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert obs.validate_chrome_trace(doc) == []
    assert doc["otherData"]["run_id"] == pathlib.Path(run.dir).name
    with pytest.raises(FileNotFoundError):
        obs.export_chrome_trace(tmp_path / "empty")


# ----------------------------------------------------------------------
# SLO evaluation
# ----------------------------------------------------------------------
def test_slo_matrix_pass_fail_no_data():
    objectives = load_slo_config(None)               # the built-in three
    passing = evaluate_slos(objectives,
                            latency_p99_ms={"serve/latency_ms": 50.0},
                            requests=1000, degraded=0)
    assert [r.ok for r in passing] == [True, True, True]
    assert passing[0].burn_rate == pytest.approx(0.2)

    failing = evaluate_slos(objectives,
                            latency_p99_ms={"serve/latency_ms": 500.0},
                            requests=1000, degraded=100)
    assert [r.ok for r in failing] == [False, False, False]
    assert failing[0].burn_rate == pytest.approx(2.0)     # 500/250
    assert failing[1].burn_rate == pytest.approx(100.0)   # 10% vs 0.1%
    assert failing[2].burn_rate == pytest.approx(10.0)    # 10% vs 1%

    no_data = evaluate_slos(objectives, latency_p99_ms={},
                            requests=None, degraded=None)
    assert [r.ok for r in no_data] == [None, None, None]


def test_slo_availability_boundary_exact():
    objectives = [{"name": "a", "kind": "availability",
                   "objective": 0.99}]
    at = evaluate_slos(objectives, requests=100, degraded=1)
    assert at[0].ok is True                          # exactly at objective
    assert at[0].burn_rate == pytest.approx(1.0)
    over = evaluate_slos(objectives, requests=100, degraded=2)
    assert over[0].ok is False


def test_slo_config_validation(tmp_path):
    good = tmp_path / "slo.json"
    good.write_text(json.dumps({"slos": [
        {"name": "lat", "kind": "latency_p99", "objective_ms": 10.0}]}))
    assert load_slo_config(good)[0]["objective_ms"] == 10.0
    for payload in ("not json{", json.dumps({}), json.dumps({"slos": []}),
                    json.dumps({"slos": [{"kind": "latency_p99"}]}),
                    json.dumps({"slos": [{"name": "x", "kind": "nope"}]}),
                    json.dumps({"slos": [{"name": "x",
                                          "kind": "latency_p99"}]})):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        with pytest.raises(SloConfigError):
            load_slo_config(bad)
    with pytest.raises(SloConfigError):
        load_slo_config(tmp_path / "missing.json")


def test_slo_on_serve_bench_results():
    results = {"indexed": {"p99_ms": 12.0},
               "service_stats": {"requests": 400, "degraded": 0}}
    report = evaluate_serve_results(results)
    assert report["passed"] and report["n_violations"] == 0
    results["service_stats"]["degraded"] = 200
    report = evaluate_serve_results(results)
    assert not report["passed"]


def _write_manifest_run(tmp_path, name, metrics):
    run_dir = tmp_path / name
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(json.dumps(
        {"run_id": name, "wall_s": 1.0, "metrics": metrics}))
    return run_dir


def test_cli_slo_exit_code_contract(tmp_path, capsys):
    from repro.cli import main

    ok_dir = _write_manifest_run(tmp_path, "ok", {
        "counters": {"serve/requests": 1000, "serve/degraded": 0},
        "hdr": {"serve/latency_ms": {"count": 1000, "p99": 20.0}}})
    bad_dir = _write_manifest_run(tmp_path, "bad", {
        "counters": {"serve/requests": 1000, "serve/degraded": 400},
        "hdr": {"serve/latency_ms": {"count": 1000, "p99": 9000.0}}})
    train_dir = _write_manifest_run(tmp_path, "train", {"counters": {}})

    assert main(["obs", "slo", str(ok_dir)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["obs", "slo", str(bad_dir)]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(["obs", "slo", str(train_dir)]) == 2     # nothing evaluable
    capsys.readouterr()
    assert main(["obs", "slo", str(tmp_path / "missing")]) == 2
    capsys.readouterr()

    # --json emits the machine-readable report.
    assert main(["obs", "slo", str(bad_dir), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["n_violations"] >= 1

    # A run-local slo.json overrides the defaults.
    (bad_dir / "slo.json").write_text(json.dumps({"slos": [
        {"name": "soft", "kind": "latency_p99",
         "objective_ms": 10000.0}]}))
    assert main(["obs", "slo", str(bad_dir)]) == 0
    capsys.readouterr()

    # A malformed --config is a usage error, not a violation.
    cfg = tmp_path / "broken.json"
    cfg.write_text("{")
    assert main(["obs", "slo", str(ok_dir), "--config", str(cfg)]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# CLI: summarize --json, export-trace, profile
# ----------------------------------------------------------------------
def test_cli_summarize_json_and_export_trace(tmp_path, capsys):
    from repro.cli import main

    run = obs.start_run(run_dir=tmp_path / "runs")
    with obs.trace("fit"):
        with obs.trace("epoch"):
            pass
    obs.finish_run()
    run_dir = str(run.dir)

    assert main(["obs", "summarize", run_dir, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["finished"] is True
    assert summary["spans"][0]["name"] == "fit"
    assert summary["spans"][0]["children"][0]["name"] == "epoch"

    assert main(["obs", "export-trace", run_dir]) == 0
    capsys.readouterr()
    doc = json.loads((pathlib.Path(run_dir) / "trace.json").read_text())
    assert obs.validate_chrome_trace(doc) == []

    # Exit-2 contract on missing/empty run dirs, for every subcommand.
    missing = str(tmp_path / "nope")
    assert main(["obs", "summarize", missing]) == 2
    assert main(["obs", "summarize", missing, "--json"]) == 2
    assert main(["obs", "export-trace", missing]) == 2
    assert main(["obs", "profile", missing]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["obs", "export-trace", str(empty)]) == 2
    assert main(["obs", "profile", str(empty)]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
def _spin(seconds: float) -> int:
    acc = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for i in range(500):
            acc += i * i
    return acc


def test_profiler_samples_busy_function(tmp_path):
    profiler = obs.SamplingProfiler(interval_s=0.001)
    with profiler:
        _spin(0.25)
    assert profiler.n_samples > 10
    collapsed = "\n".join(profiler.collapsed())
    assert "_spin" in collapsed
    # Round trip through the collapsed-stack file.
    from repro.obs.profile import read_collapsed, render_profile
    path = profiler.write(tmp_path)
    assert path.name == "profile.collapsed"
    samples = read_collapsed(path)
    assert sum(samples.values()) == profiler.n_samples
    rendered = render_profile(path, top=5)
    assert "samples" in rendered and "_spin" in rendered


def test_profiler_attributes_samples_to_open_spans(tmp_path):
    obs.start_run(run_dir=tmp_path)
    profiler = obs.SamplingProfiler(interval_s=0.001)
    with profiler:
        with obs.trace("fit"):
            with obs.trace("epoch"):
                _spin(0.25)
    obs.finish_run()
    tagged = [s for s in profiler.samples
              if s.startswith("span:fit>epoch;")]
    assert tagged, f"no span-tagged samples in {list(profiler.samples)[:3]}"


def test_profiler_rejects_bad_interval_and_double_start():
    with pytest.raises(ValueError):
        obs.SamplingProfiler(interval_s=0.0)
    profiler = obs.SamplingProfiler(interval_s=0.05)
    profiler.start()
    try:
        with pytest.raises(RuntimeError):
            profiler.start()
    finally:
        profiler.stop()
    profiler.stop()                                  # idempotent


# ----------------------------------------------------------------------
# Bench percentiles now HDR-derived
# ----------------------------------------------------------------------
def test_bench_percentiles_are_hdr_derived():
    from repro.serve.bench import latency_histogram, latency_summary
    hist = latency_histogram()
    for i in range(1, 1001):                         # 1..1000 ms
        hist.observe(float(i))
    out = latency_summary(hist)
    assert out["hdr_rel_error"] == 0.005
    assert out["p50_ms"] == pytest.approx(500.0, rel=0.011)
    assert out["p99_ms"] == pytest.approx(990.0, rel=0.011)
    assert out["mean_ms"] == pytest.approx(500.5)    # mean stays exact


# ----------------------------------------------------------------------
# Disabled-path overhead of the new helpers
# ----------------------------------------------------------------------
def test_disabled_v2_helpers_are_cheap():
    """trace_event/observe priced like count/trace: ~a None check."""
    n = 20000

    def price(fn) -> float:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            best = min(best, (time.perf_counter() - t0) / n)
        return best

    assert price(lambda: obs.trace_event("serve/retry", user=1)) < 2e-6
    assert price(lambda: obs.observe("serve/latency_ms", 1.0)) < 2e-6
    assert price(lambda: obs.current_trace()) < 2e-6
