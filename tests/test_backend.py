"""Tensor-backend tests: registry, fused-kernel VJPs, fast-vs-reference
model equivalence, arena behaviour, and cross-backend checkpoints.

Tolerance policy (see DESIGN.md §10): fused kernels are compared to the
composed reference ops *in float64* to ~1e-9 (same math, different
association order); whole-model fast (float32) runs are compared to
reference (float64) runs with rtol=1e-4 on per-epoch losses and a
0.5-percentage-point band on final ranking metrics.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import LogiRec, LogiRecConfig, LogiRecPP
from repro.data import SyntheticConfig, generate_dataset, temporal_split
from repro.eval import Evaluator
from repro.manifolds import Lorentz, PoincareBall
from repro.models import (AGCN, AMF, BPRMF, CML, CMLF, GDCF, HGCF, HRCF,
                          HyperML, LightGCN, NeuMF, SML, TrainConfig,
                          TransC)
from repro.serve import load_checkpoint, save_checkpoint
from repro.tensor import (Tensor, available_backends, get_backend,
                          no_grad, set_backend, use_backend)
from repro.tensor import backend as be
from repro.tensor.sparse import _SpmmPlan


@pytest.fixture(autouse=True)
def _reference_backend():
    """Every test starts and ends on the reference backend."""
    set_backend("reference")
    yield
    set_backend("reference")


@pytest.fixture(scope="module")
def setup():
    ds = generate_dataset(SyntheticConfig(n_users=40, n_items=60,
                                          depth=3, branching=3,
                                          mean_interactions=10.0, seed=4))
    return ds, temporal_split(ds)


# ----------------------------------------------------------------------
# Backend selection & registry
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_available_and_default(self):
        assert available_backends() == ("reference", "fast")
        b = get_backend()
        assert b.name == "reference"
        assert b.dtype == np.float64
        assert not b.fused and b.arena is None

    def test_set_backend_fast(self):
        b = set_backend("fast")
        assert b.name == "fast"
        assert b.dtype == np.float32
        assert b.fused and b.arena is not None
        assert b.threads >= 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("gpu")

    def test_use_backend_restores(self):
        with use_backend("fast"):
            assert get_backend().name == "fast"
        assert get_backend().name == "reference"

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        monkeypatch.setattr(be, "_ACTIVE", None)
        assert get_backend().name == "fast"

    def test_compute_dtype_drives_tensor_creation(self):
        with use_backend("fast"):
            assert Tensor(np.zeros(3)).data.dtype == np.float32
            # Explicit dtype (Parameter masters) wins over the backend.
            assert Tensor(np.zeros(3),
                          dtype=np.float64).data.dtype == np.float64
        assert Tensor(np.zeros(3)).data.dtype == np.float64

    def test_registry_has_all_kernels_in_both_variants(self):
        kernels = be.registered_kernels()
        expected = {"lorentz.sqdist", "lorentz.distance",
                    "lorentz.expmap0", "lorentz.logmap0",
                    "poincare.expmap0", "poincare.distance",
                    "poincare.mobius_add", "maps.poincare_to_lorentz",
                    "losses.lorentz_triplet"}
        assert expected <= set(kernels)
        for name in expected:
            assert kernels[name] == ("fast", "reference")

    def test_kernel_dispatch_follows_backend(self):
        ref = be.kernel("lorentz.sqdist")
        with use_backend("fast"):
            fast = be.kernel("lorentz.sqdist")
        assert ref is be._KERNELS["lorentz.sqdist"]["reference"]
        assert fast is be._KERNELS["lorentz.sqdist"]["fast"]

    def test_cli_exposes_backend_flag(self):
        from repro.cli import build_parser
        parser = build_parser()
        for argv in (["train", "M"], ["exp", "run"], ["exp", "status"],
                     ["exp", "resume"]):
            parsed = parser.parse_args([*argv, "--backend", "fast"])
            assert parsed.backend == "fast"


# ----------------------------------------------------------------------
# Fused kernels vs composed reference ops, in float64
# ----------------------------------------------------------------------
def _t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True,
                  dtype=np.float64)


def _pair(name, fast_args, ref_args, atol=1e-9):
    """Run fast and reference variants of ``name`` forward+backward on
    identical float64 inputs and compare outputs and leaf gradients."""
    entry = be._KERNELS[name]
    out_f = entry["fast"](*fast_args)
    out_r = entry["reference"](*ref_args)
    np.testing.assert_allclose(out_f.data, out_r.data, atol=atol)
    seed = np.random.default_rng(7).standard_normal(out_f.data.shape)
    out_f.backward(seed.copy())
    out_r.backward(seed.copy())
    for tf, tr in zip(fast_args, ref_args):
        if isinstance(tf, Tensor) and tf.requires_grad:
            np.testing.assert_allclose(tf.grad, tr.grad, atol=atol)


def _lorentz_points(n, d, seed):
    return Lorentz().random((n, d + 1), np.random.default_rng(seed),
                            scale=0.7)


def _ball_points(n, d, seed):
    return PoincareBall().random((n, d), np.random.default_rng(seed),
                                 scale=0.4)


class TestFusedKernelVJPs:
    N, D = 64, 7

    def test_lorentz_sqdist(self):
        x, y = _lorentz_points(self.N, self.D, 0), \
            _lorentz_points(self.N, self.D, 1)
        _pair("lorentz.sqdist", (_t(x), _t(y)), (_t(x), _t(y)))

    def test_lorentz_distance(self):
        x, y = _lorentz_points(self.N, self.D, 2), \
            _lorentz_points(self.N, self.D, 3)
        _pair("lorentz.distance", (_t(x), _t(y)), (_t(x), _t(y)))

    def test_lorentz_expmap0(self):
        rng = np.random.default_rng(4)
        v = np.zeros((self.N, self.D + 1))
        v[:, 1:] = rng.normal(0.0, 1.0, (self.N, self.D))
        v[:5, 1:] *= 50.0      # exercise the tangent-norm clamp branch
        v[5] = 0.0             # and the zero-norm safe branch
        _pair("lorentz.expmap0", (_t(v),), (_t(v),))

    def test_lorentz_logmap0(self):
        x = _lorentz_points(self.N, self.D, 5)
        _pair("lorentz.logmap0", (_t(x),), (_t(x),))

    def test_poincare_expmap0(self):
        v = np.random.default_rng(6).normal(0.0, 1.0, (self.N, self.D))
        v[0] = 0.0
        _pair("poincare.expmap0", (_t(v),), (_t(v),))

    def test_poincare_distance(self):
        x, y = _ball_points(self.N, self.D, 7), \
            _ball_points(self.N, self.D, 8)
        _pair("poincare.distance", (_t(x), _t(y)), (_t(x), _t(y)))

    def test_poincare_mobius_add(self):
        x, y = _ball_points(self.N, self.D, 9), \
            _ball_points(self.N, self.D, 10)
        _pair("poincare.mobius_add", (_t(x), _t(y)), (_t(x), _t(y)))

    def test_poincare_to_lorentz(self):
        x = _ball_points(self.N, self.D, 11)
        _pair("maps.poincare_to_lorentz", (_t(x),), (_t(x),))

    def test_lorentz_triplet_loss(self):
        u = _lorentz_points(self.N, self.D, 12)
        p = _lorentz_points(self.N, self.D, 13)
        q = _lorentz_points(self.N, self.D, 14)
        for weights in (None,
                        np.random.default_rng(15).uniform(
                            0.5, 1.5, self.N)):
            entry = be._KERNELS["losses.lorentz_triplet"]
            tf = [_t(u), _t(p), _t(q)]
            tr = [_t(u), _t(p), _t(q)]
            out_f = entry["fast"](*tf, 0.5, weights)
            out_r = entry["reference"](*tr, 0.5, weights)
            np.testing.assert_allclose(out_f.data, out_r.data, atol=1e-9)
            out_f.backward()
            out_r.backward()
            for a, b in zip(tf, tr):
                np.testing.assert_allclose(a.grad, b.grad, atol=1e-9)


# ----------------------------------------------------------------------
# Fast-vs-reference equivalence over the full model registry
# ----------------------------------------------------------------------
TAG_MODELS = {"CMLF": CMLF, "AMF": AMF, "TransC": TransC, "AGCN": AGCN}
PLAIN_MODELS = {"BPRMF": BPRMF, "NeuMF": NeuMF, "CML": CML, "SML": SML,
                "HyperML": HyperML, "LightGCN": LightGCN, "HGCF": HGCF,
                "GDCF": GDCF, "HRCF": HRCF}
ALL_MODELS = (list(TAG_MODELS) + list(PLAIN_MODELS)
              + ["LogiRec", "LogiRec++"])


def _build(name, ds):
    lr = {"CML": 0.3, "SML": 0.3, "CMLF": 0.3, "TransC": 0.3}.get(
        name, 0.01)
    if name in ("LogiRec", "LogiRec++"):
        cls = LogiRec if name == "LogiRec" else LogiRecPP
        cfg = LogiRecConfig(dim=8, epochs=5, batch_size=1024, lr=0.01,
                            lam=1.0, margin=0.5, n_negatives=1,
                            n_layers=2, seed=0)
        return cls(ds.n_users, ds.n_items, ds.n_tags, cfg)
    cfg = TrainConfig(dim=8, epochs=5, batch_size=1024, lr=lr,
                      margin=0.5, n_negatives=1, seed=0)
    if name in TAG_MODELS:
        return TAG_MODELS[name](ds.n_users, ds.n_items, ds.n_tags, cfg)
    return PLAIN_MODELS[name](ds.n_users, ds.n_items, cfg)


def _fit_and_eval(backend, name, ds, split):
    with use_backend(backend):
        model = _build(name, ds)
        model.fit(ds, split)
        metrics = Evaluator(ds, split, ks=(10,)).evaluate_test(model).means
        return np.asarray(model.loss_history), metrics


class TestModelEquivalence:
    # Final-metric agreement band, in percentage points (Evaluator.means
    # is percent-scaled).  float32 forward noise can flip the rank of
    # near-tied items, so metrics match closely but not exactly.
    METRIC_BAND_PP = 0.5

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_losses_and_metrics_agree(self, setup, name):
        ds, split = setup
        ref_losses, ref_metrics = _fit_and_eval("reference", name, ds,
                                                split)
        fast_losses, fast_metrics = _fit_and_eval("fast", name, ds,
                                                  split)
        assert len(ref_losses) == len(fast_losses) == 5
        np.testing.assert_allclose(fast_losses, ref_losses, rtol=1e-4)
        assert ref_metrics.keys() == fast_metrics.keys()
        for key in ref_metrics:
            assert abs(ref_metrics[key] - fast_metrics[key]) <= \
                self.METRIC_BAND_PP, (
                    f"{name} {key}: reference={ref_metrics[key]:.3f} "
                    f"fast={fast_metrics[key]:.3f}")


class TestCrossBackendCheckpoints:
    @pytest.mark.parametrize("train_backend,load_backend",
                             [("fast", "reference"), ("reference", "fast")])
    def test_checkpoint_round_trip(self, setup, tmp_path, train_backend,
                                   load_backend):
        ds, split = setup
        with use_backend(train_backend):
            model = _build("LogiRec++", ds)
            model.fit(ds, split)
            save_checkpoint(model, tmp_path / "ckpt", dataset=ds)
            scores_trained = model.score_users(np.arange(8))
        with use_backend(load_backend):
            loaded = load_checkpoint(tmp_path / "ckpt", dataset=ds,
                                     split=split)
        # Parameter masters are float64 under both backends, so the
        # state survives the backend switch bit-for-bit...
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.data.dtype == b.data.dtype == np.float64
            np.testing.assert_array_equal(a.data, b.data)
        # ...and scoring the loaded model *under the training backend*
        # reproduces the original scores exactly.
        with use_backend(train_backend):
            scores_loaded = loaded.score_users(np.arange(8))
        np.testing.assert_array_equal(scores_trained, scores_loaded)


# ----------------------------------------------------------------------
# Arena + shared primitives
# ----------------------------------------------------------------------
class TestArena:
    def test_buffers_reused_across_steps(self):
        arena = be.Arena()
        a = arena.empty((4, 3), np.float32)
        b = arena.empty((4, 3), np.float32)
        assert a is not b
        arena.new_step()
        assert arena.empty((4, 3), np.float32) is a
        assert arena.empty((4, 3), np.float32) is b
        stats = arena.stats()
        assert stats["buffers"] == 2
        assert stats["hits"] == 2 and stats["misses"] == 2

    def test_scratch_is_persistent(self):
        arena = be.Arena()
        s = arena.scratch(("k",), (5,), np.float64)
        assert arena.scratch(("k",), (5,), np.float64) is s
        assert arena.scratch(("k",), (6,), np.float64) is not s

    def test_training_step_reuses_arena_buffers(self, setup):
        ds, split = setup
        with use_backend("fast"):
            model = _build("HGCF", ds)
            model.fit(ds, split)
            stats = get_backend().arena.stats()
        # 5 epochs × several batches: after the first step warms the
        # pools, every later step should hit.
        assert stats["hits"] > stats["misses"]

    def test_no_grad_paths_bypass_arena(self):
        with use_backend("fast"):
            x = Tensor(_lorentz_points(8, 4, 0))
            with no_grad():
                out = Lorentz.logmap0(x)
            arena = get_backend().arena
            pooled = [buf for slot in arena._pools.values()
                      for buf in slot[1]]
            assert all(out.data is not buf for buf in pooled)

    def test_fused_kernels_count_invocations(self, setup):
        ds, split = setup
        run = obs.start_run(config={})
        try:
            with use_backend("fast"):
                _build("HGCF", ds).fit(ds, split)
            snap = run.registry.snapshot()
        finally:
            obs.finish_run()
        fused = {k: v for k, v in snap["counters"].items()
                 if k.startswith("backend/fused/")}
        assert fused, "fast backend ran without touching a fused kernel"
        assert snap["gauges"]["backend/arena/hit_rate"] > 0.0

    def test_span_attribution_survives_fast_backend(self, setup):
        ds, split = setup
        run = obs.start_run(config={})
        try:
            with use_backend("fast"):
                _build("HGCF", ds).fit(ds, split)
            spans = [s.name for s in run.tracer.finished]
            fit_span = next(s for s in run.tracer.finished
                            if s.name == "fit")
        finally:
            obs.finish_run()
        for phase in ("forward", "backward", "step", "sample"):
            assert phase in spans
        assert fit_span.meta["backend"] == "fast"


class TestScatterAdd:
    def test_fast_scatter_matches_reference(self):
        # Both backends share one kernel; the reference it must match is
        # the zeros + np.add.at oracle, byte for byte.
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 50, 300)
        for dtype in (np.float32, np.float64):
            grad = rng.standard_normal((300, 9)).astype(dtype)
            oracle = np.zeros((50, 9), dtype=dtype)
            np.add.at(oracle, idx, grad)
            with use_backend("fast"):
                fast = be.scatter_add_rows(grad, idx, (50, 9))
            assert fast.dtype == grad.dtype
            assert fast.tobytes() == oracle.tobytes()

    def test_gather_backward_uses_it(self):
        rng = np.random.default_rng(1)
        with use_backend("fast"):
            from repro.tensor import gather_rows
            table = Tensor(rng.standard_normal((20, 4)),
                           requires_grad=True, dtype=np.float64)
            idx = np.array([3, 3, 7, 0])
            out = gather_rows(table, idx)
            out.backward(np.ones((4, 4)))
        expected = np.zeros((20, 4))
        np.add.at(expected, idx, np.ones((4, 4)))
        np.testing.assert_allclose(table.grad, expected, atol=1e-12)


class TestThreadedSpmm:
    def test_row_slab_plan_matches_single_thread(self):
        import scipy.sparse as sp
        rng = np.random.default_rng(0)
        n = 400
        mat = sp.random(n, n, density=0.2, random_state=0,
                        format="csr").astype(np.float64)
        x = rng.standard_normal((n, 16))
        plan = _SpmmPlan(mat, np.dtype(np.float64), threads=3)
        # Force the slab path regardless of the size thresholds.
        assert plan.blocks is None or len(plan.blocks) >= 1
        plan_big = _SpmmPlan(mat, np.dtype(np.float64), threads=3)
        if plan_big.blocks is not None:
            out = plan_big._apply(plan_big.csr, plan_big.blocks, x)
            np.testing.assert_allclose(out, mat @ x, atol=1e-12)
        np.testing.assert_allclose(plan.forward(x), mat @ x, atol=1e-12)
        np.testing.assert_allclose(plan.backward(x), mat.T @ x,
                                   atol=1e-12)

    def test_threads_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_THREADS", "3")
        assert be._default_threads() == 3

    def test_plan_cached_on_matrix(self):
        import scipy.sparse as sp
        mat = sp.random(64, 64, density=0.1, random_state=1,
                        format="csr")
        x = Tensor(np.random.default_rng(2).standard_normal((64, 8)))
        from repro.tensor import sparse_matmul
        for backend in ("fast", "reference"):
            with use_backend(backend):
                sparse_matmul(mat, x)
                plan = getattr(mat, "_repro_spmm_plan")
                sparse_matmul(mat, x)
                assert getattr(mat, "_repro_spmm_plan") is plan
                assert plan.dtype == get_backend().dtype


# ----------------------------------------------------------------------
# Mixed-precision invariants
# ----------------------------------------------------------------------
class TestMixedPrecision:
    def test_parameters_stay_float64_under_fast(self, setup):
        ds, _ = setup
        with use_backend("fast"):
            model = _build("HGCF", ds)
            for p in model.parameters():
                assert p.data.dtype == np.float64

    def test_leaf_grads_accumulate_in_float64(self):
        from repro.optim.parameter import Parameter
        with use_backend("fast"):
            p = Parameter(np.ones((3, 2)))
            out = (Tensor(np.full((3, 2), 2.0)) * p).sum()
            assert out.data.dtype == np.float32  # compute dtype
            out.backward()
            assert p.grad.dtype == np.float64    # master dtype
            np.testing.assert_allclose(p.grad, 2.0, rtol=1e-6)

    def test_triplet_loss_accumulates_in_float64(self):
        u = _t(_lorentz_points(16, 5, 0))
        p = _t(_lorentz_points(16, 5, 1))
        q = _t(_lorentz_points(16, 5, 2))
        with use_backend("fast"):
            loss = be._KERNELS["losses.lorentz_triplet"]["fast"](
                u, p, q, 0.5, None)
        assert loss.data.dtype == np.float64

    def test_ranking_scores_are_float64(self):
        from repro.manifolds import lorentz_ranking_scores
        u = _lorentz_points(4, 5, 0).astype(np.float32)
        v = _lorentz_points(6, 5, 1).astype(np.float32)
        assert lorentz_ranking_scores(u, v).dtype == np.float64
