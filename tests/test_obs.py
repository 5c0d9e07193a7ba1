"""Tests for the ``repro.obs`` telemetry subsystem.

Covers the ISSUE-2 acceptance surface: span nesting/timing, metric
semantics (counter / gauge / HDR histogram), the JSONL sink +
manifest round trip, the disabled-mode no-op overhead budget, NaN/inf
gradient detection on a crafted divergent graph, and the instrumentation
threaded through the sampler, manifolds, training loop, and CLI.
"""

from __future__ import annotations

import json
import logging
import math
import time

import numpy as np
import pytest

from repro import obs
from repro.data import load_dataset, temporal_split
from repro.data.sampling import TripletSampler
from repro.eval import Evaluator
from repro.manifolds import Lorentz, PoincareBall
from repro.models.base import Recommender, TrainConfig
from repro.optim.parameter import Parameter
from repro.optim.sgd import SGD
from repro.tensor import Tensor


@pytest.fixture(autouse=True)
def _obs_reset():
    """Every test starts and ends with telemetry off."""
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def tiny():
    dataset = load_dataset("cd")
    return dataset, temporal_split(dataset)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_counter_and_gauge_semantics():
    reg = obs.MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(4)
    reg.gauge("g").set(2.5)
    reg.gauge("g").set(7.0)          # last write wins
    snap = reg.snapshot()
    assert snap["counters"]["c"] == 5
    assert snap["gauges"]["g"] == 7.0


def test_registry_rejects_type_confusion():
    reg = obs.MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_histogram_moments_exact_and_percentiles_close():
    reg = obs.MetricsRegistry()
    hist = reg.hdr("h")
    values = list(range(1, 2001))          # 1..2000
    for v in values:
        hist.observe(v)
    summary = hist.summary()
    assert summary["count"] == 2000        # moments are exact
    assert summary["min"] == 1 and summary["max"] == 2000
    assert summary["total"] == sum(values)
    assert abs(summary["mean"] - 1000.5) < 1e-9
    # Percentiles come from log buckets: within rel_error, not exact.
    assert abs(summary["p50"] - 1000) < 200
    assert abs(summary["p90"] - 1800) < 200
    assert abs(summary["p50"] - 1000) <= 1000 * hist.rel_error
    assert len(hist.counts) == hist.n_buckets + 2   # bounded memory


def test_empty_histogram_summary():
    h = obs.HdrHistogram("e")
    assert h.summary() == {"count": 0}
    assert math.isnan(h.percentile(50.0))


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_span_nesting_and_timing():
    tracer = obs.Tracer()
    with tracer.span("outer", kind="test") as outer:
        with tracer.span("inner") as inner:
            time.sleep(0.01)
        tracer.record("agg", 0.5, count=3)
        time.sleep(0.002)
    assert [s.name for s in tracer.finished] == ["inner", "agg", "outer"]
    assert inner.parent_id == outer.span_id
    agg = tracer.finished[1]
    assert agg.parent_id == outer.span_id
    assert agg.count == 3 and agg.duration_s == 0.5
    assert inner.duration_s >= 0.009
    assert outer.duration_s >= inner.duration_s
    assert outer.meta == {"kind": "test"}
    assert tracer.current is None


def test_span_annotate_and_event_shape():
    tracer = obs.Tracer()
    with tracer.span("s") as span:
        span.annotate(loss=1.25)
    event = tracer.finished[0].to_event()
    assert event["type"] == "span" and event["name"] == "s"
    assert event["meta"] == {"loss": 1.25}
    json.dumps(event)  # serializable as-is


def test_trace_is_null_span_when_disabled():
    assert not obs.enabled()
    span = obs.trace("anything", meta=1)
    assert span is obs.NULL_SPAN
    with span as inner:
        inner.annotate(x=2)  # must be accepted and ignored
    # the no-op helpers must not raise either
    obs.count("nope")
    obs.gauge_set("nope", 1.0)
    obs.observe("nope", 1.0)
    obs.event("nope")
    obs.record_span("nope", 0.1)


# ----------------------------------------------------------------------
# Run lifecycle: JSONL sink + manifest round trip
# ----------------------------------------------------------------------
def test_jsonl_sink_and_manifest_round_trip(tmp_path):
    run = obs.start_run(run_dir=tmp_path, config={"model": "M", "seed": 7})
    assert obs.enabled()
    with obs.trace("fit", model="M"):
        with obs.trace("epoch", epoch=0):
            obs.record_span("backward", 0.004, count=2)
        obs.count("sampler/resampled", 3)
        obs.observe("train/loss_batch", 0.5)
        obs.gauge_set("train/param_norm", 2.0)
        obs.event("checkpoint", epoch=0)
    run_dir = run.dir
    manifest = obs.finish_run(final_metrics={"recall@10": 3.25},
                              dataset_stats={"n_users": 11})
    assert not obs.enabled()

    events = obs.read_events(run_dir)
    assert [e["type"] for e in events].count("span") == 3
    names = [e["name"] for e in events]
    assert names[0] == "run_start" and names[-1] == "run_end"
    assert "checkpoint" in names

    on_disk = obs.read_manifest(run_dir)
    assert on_disk == json.loads(json.dumps(manifest))  # what we returned
    assert on_disk["run_id"] == run.run_id
    assert on_disk["config"] == {"model": "M", "seed": 7}
    assert on_disk["seed"] == 7
    assert "git_sha" in on_disk
    assert on_disk["dataset_stats"] == {"n_users": 11}
    assert on_disk["final_metrics"] == {"recall@10": 3.25}
    assert on_disk["metrics"]["counters"]["sampler/resampled"] == 3
    assert on_disk["metrics"]["hdr"]["train/loss_batch"]["count"] == 1
    assert "histograms" not in on_disk["metrics"]

    # Aggregation + rendering over the serialized events.
    roots = obs.aggregate_spans(events)
    assert [r.name for r in roots] == ["fit"]
    assert [c.name for c in roots[0].children] == ["epoch"]
    text = obs.summarize(run_dir)
    assert "fit" in text and "backward" in text and "recall@10" in text


def test_start_run_finishes_previous_run(tmp_path):
    first = obs.start_run(run_dir=tmp_path)
    obs.start_run(run_dir=tmp_path)
    assert first.finished
    assert obs.current_run() is not first


def test_in_memory_run_collects_events():
    run = obs.start_run(config={})
    obs.event("ping", x=1)
    assert any(e["name"] == "ping" for e in run.events)
    obs.finish_run()


# ----------------------------------------------------------------------
# Disabled-mode overhead budget
# ----------------------------------------------------------------------
def test_disabled_mode_is_within_overhead_budget(tiny):
    """The < 2% budget, asserted two ways.

    (1) Price the disabled hooks directly: one hook call must stay under
    2 microseconds (measured ~60 ns; the bound absorbs CI noise).
    (2) Bound the fraction of a real sampler-epoch drain spent in hooks:
    guard-call count x per-call price must be < 2% of the drain time.
    """
    assert not obs.enabled()
    calls = 50_000
    t0 = time.perf_counter()
    for _ in range(calls):
        obs.count("noop/counter")
    count_ns = (time.perf_counter() - t0) / calls * 1e9
    t0 = time.perf_counter()
    for _ in range(calls):
        obs.trace("noop/span")
    trace_ns = (time.perf_counter() - t0) / calls * 1e9
    assert count_ns < 2000, f"disabled obs.count costs {count_ns:.0f} ns"
    assert trace_ns < 2000, f"disabled obs.trace costs {trace_ns:.0f} ns"

    dataset, split = tiny
    sampler = TripletSampler(dataset, split.train,
                             rng=np.random.default_rng(0))
    batch_size = 1024

    def drain():
        n = 0
        for _ in sampler.epoch(batch_size):
            n += 1
        return n

    n_batches = drain()
    drain_s = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        drain()
        drain_s = min(drain_s, time.perf_counter() - t0)
    # One enabled() guard per sample_negatives call (= per batch).
    hook_s = n_batches * max(count_ns, trace_ns) * 1e-9
    assert hook_s < 0.02 * drain_s, (
        f"disabled hooks are {100 * hook_s / drain_s:.2f}% of the "
        f"sampling hot path (budget 2%)")


# ----------------------------------------------------------------------
# NaN/inf gradient detection (debug flag)
# ----------------------------------------------------------------------
def test_nan_gradient_detection_fires_on_divergent_graph():
    run = obs.start_run(config={}, nan_checks=True)
    assert obs.nan_checks_enabled()
    x = Tensor(np.array([0.0, 1.0]), requires_grad=True, name="x")
    with np.errstate(divide="ignore"):
        loss = (1.0 / x).sum()      # d/dx (1/x) = -1/x^2 -> -inf at x=0
        loss.backward()
    assert not np.isfinite(x.grad).all()
    snap = run.registry.snapshot()
    assert snap["counters"]["autograd/nonfinite_grads"] >= 1
    assert snap["counters"]["autograd/nonfinite_grad_elems"] >= 1
    bad = [e for e in run.events if e.get("name") == "autograd.nonfinite_grad"]
    assert bad and bad[0]["tensor"] == "x" and bad[0]["n_bad"] == 1
    obs.finish_run()


def test_nan_detection_off_by_default():
    obs.start_run(config={})
    assert not obs.nan_checks_enabled()
    x = Tensor(np.array([0.0]), requires_grad=True)
    with np.errstate(divide="ignore"):
        (1.0 / x).sum().backward()  # diverges silently: no scan requested
    run = obs.current_run()
    assert "autograd/nonfinite_grads" not in run.registry
    obs.finish_run()


# ----------------------------------------------------------------------
# Instrumentation threaded through the layers
# ----------------------------------------------------------------------
def test_sampler_counters(tiny):
    dataset, split = tiny
    run = obs.start_run(config={})
    sampler = TripletSampler(dataset, split.train,
                             rng=np.random.default_rng(0))
    n = sum(len(u) for u, _, _ in sampler.epoch(2048))
    snap = run.registry.snapshot()
    assert snap["counters"]["sampler/draws"] == n == len(sampler)
    assert snap["counters"]["sampler/resampled"] >= 0
    obs.finish_run()


def test_manifold_clamp_counters():
    run = obs.start_run(config={})
    lorentz = Lorentz()
    huge = np.zeros((3, 5))
    huge[:, 1] = 1e9                # far beyond the distance clamp
    lorentz.project(huge)
    ball = PoincareBall()
    ball.project(np.array([[2.0, 0.0], [0.1, 0.0]]))
    snap = run.registry.snapshot()
    assert snap["counters"]["manifold/lorentz/dist_clamped"] == 3
    assert snap["counters"]["manifold/poincare/boundary_clamped"] == 1
    assert snap["gauges"]["manifold/poincare/max_norm"] == pytest.approx(2.0)
    obs.finish_run()


class _ScriptedModel(Recommender):
    """Loss values are scripted; training updates nothing (lr=0)."""

    def __init__(self, n_users, n_items, losses, config):
        super().__init__(n_users, n_items, config)
        self._p = Parameter(np.zeros(3), name="p")
        self._losses = iter(losses)

    def parameters(self):
        return [self._p]

    def make_optimizer(self):
        return SGD(self.parameters(), lr=0.0)

    def batch_loss(self, users, pos, neg):
        return (self._p * 0.0).sum() + next(self._losses)

    def score_users(self, user_ids):
        return np.zeros((len(user_ids), self.n_items))


def test_fit_records_epoch_mean_loss(tiny):
    dataset, split = tiny
    n_train = len(split.train)
    config = TrainConfig(epochs=1, n_negatives=1,
                         batch_size=(n_train + 1) // 2)  # exactly 2 batches
    model = _ScriptedModel(dataset.n_users, dataset.n_items,
                           losses=[1.0, 3.0], config=config)
    model.fit(dataset, split)
    assert model.loss_history == [2.0]   # epoch mean, not the last batch


def test_fit_emits_spans_and_loss_stats(tmp_path, tiny):
    dataset, split = tiny
    run = obs.start_run(run_dir=tmp_path, config={"seed": 0})
    with obs.trace("run"):
        config = TrainConfig(epochs=2, n_negatives=1,
                             batch_size=(len(split.train) + 1) // 2)
        model = _ScriptedModel(dataset.n_users, dataset.n_items,
                               losses=[1.0, 3.0, 5.0, 7.0], config=config)
        evaluator = Evaluator(dataset, split)
        model.fit(dataset, split, evaluator=evaluator, eval_every=1)
    run_dir = run.dir
    manifest = obs.finish_run(final_metrics={})
    events = obs.read_events(run_dir)
    roots = obs.aggregate_spans(events)
    assert [r.name for r in roots] == ["run"]
    fit_node = next(c for c in roots[0].children if c.name == "fit")
    epoch_node = next(c for c in fit_node.children if c.name == "epoch")
    assert epoch_node.n == 2
    phase_names = {c.name for c in epoch_node.children}
    assert {"sample", "forward", "backward", "step",
            "validate"} <= phase_names
    # Telemetry attribution: >= 90% of wall-clock lands in the span tree.
    coverage = obs.tree_coverage(roots, manifest["wall_s"])
    assert coverage >= 0.9, f"span coverage only {coverage:.1%}"
    hist = manifest["metrics"]["hdr"]
    assert hist["train/loss_epoch"]["count"] == 2
    assert hist["train/loss_batch"]["count"] == 4
    assert hist["train/loss_epoch"]["max"] == pytest.approx(6.0)
    assert manifest["metrics"]["gauges"]["train/param_norm"] == 0.0
    # Evaluator spans nested under validate.
    validate = next(c for c in epoch_node.children if c.name == "validate")
    evaluate = next(c for c in validate.children if c.name == "evaluate")
    assert {"score_users", "topk"} <= {c.name for c in evaluate.children}


def test_fit_with_nan_batch_loss_records_telemetry(tmp_path, tiny):
    """A NaN batch loss is counted apart, not bucketed or raised."""
    dataset, split = tiny
    run = obs.start_run(run_dir=tmp_path, config={})
    config = TrainConfig(epochs=1, n_negatives=1,
                         batch_size=(len(split.train) + 1) // 2)
    model = _ScriptedModel(dataset.n_users, dataset.n_items,
                           losses=[1.0, float("nan")], config=config)
    model.fit(dataset, split)
    run_dir = run.dir
    manifest = obs.finish_run(final_metrics={})
    hist = manifest["metrics"]["hdr"]
    batch = hist["train/loss_batch"]
    assert (batch["count"], batch["nan"]) == (1, 1)
    assert batch["total"] == batch["min"] == batch["max"] == 1.0
    assert hist["train/loss_epoch"] == {"count": 0, "nan": 1}
    assert manifest["metrics"]["counters"][
        "train/nonfinite_loss_epochs"] == 1
    assert "nan=1" in obs.summarize(run_dir)


# ----------------------------------------------------------------------
# Logger
# ----------------------------------------------------------------------
def test_get_logger_single_handler_and_namespacing():
    first = obs.get_logger("models.base")
    second = obs.get_logger("repro.eval")
    root = logging.getLogger("repro")
    handlers = [h for h in root.handlers
                if isinstance(h, logging.StreamHandler)]
    assert len(handlers) == 1
    assert first.name == "repro.models.base"
    assert second.name == "repro.eval"
    assert not root.propagate


def test_rate_limiter_throttles():
    limiter = obs.RateLimiter(min_interval_s=60.0)
    assert limiter.ready()
    assert not limiter.ready()
    assert limiter.ready(force=True)


def test_verbose_fit_logs_through_logger(tiny, caplog):
    dataset, split = tiny
    n_train = len(split.train)
    config = TrainConfig(epochs=1, n_negatives=1, batch_size=n_train,
                         verbose=True)
    model = _ScriptedModel(dataset.n_users, dataset.n_items,
                           losses=[4.0], config=config)
    with caplog.at_level(logging.INFO, logger="repro"):
        logging.getLogger("repro").propagate = True  # let caplog see it
        try:
            model.fit(dataset, split)
        finally:
            logging.getLogger("repro").propagate = False
    assert any("loss=4.0000" in r.getMessage() for r in caplog.records)


# ----------------------------------------------------------------------
# CLI surfacing
# ----------------------------------------------------------------------
def test_cli_train_telemetry_and_summarize(tmp_path, capsys):
    from repro.cli import main
    rc = main(["train", "BPRMF", "--dataset", "cd", "--epochs", "1",
               "--telemetry", "--run-dir", str(tmp_path / "runs")])
    assert rc == 0
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    assert (run_dirs[0] / "events.jsonl").exists()
    assert (run_dirs[0] / "manifest.json").exists()
    manifest = obs.read_manifest(run_dirs[0])
    assert manifest["config"]["model"] == "BPRMF"
    assert manifest["final_metrics"]  # test metrics recorded
    capsys.readouterr()
    rc = main(["obs", "summarize", str(run_dirs[0])])
    assert rc == 0
    out = capsys.readouterr().out
    assert "span tree:" in out and "fit" in out and "coverage:" in out
    rc = main(["obs", "list", "--run-dir", str(tmp_path / "runs")])
    assert rc == 0
    assert run_dirs[0].name in capsys.readouterr().out
