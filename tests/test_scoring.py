"""The shared scoring kernel and its callers.

* Each in-place score formula in :mod:`repro.manifolds.scoring` is
  byte-identical to the composed one-line expression it replaced; those
  expressions are kept below as the oracles.
* Every caller scores through ``score_rows`` on one export: the
  evaluator exports once per pass, ``beyond_accuracy_report`` once per
  report, and both stay byte-identical to per-call ``score_users``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import LogiRec, LogiRecConfig
from repro.data import load_dataset, temporal_split
from repro.eval import Evaluator
from repro.eval.extra_metrics import beyond_accuracy_report
from repro.experiments.runner import ALL_MODEL_NAMES, build_model
from repro.manifolds import (lorentz_ranking_scores, neg_dist_scores,
                             neg_sq_dist_scores, poincare_ranking_scores,
                             score_rows)
from repro.manifolds.scoring import gdcf_mixed_scores
from repro.models import Recommender


# ----------------------------------------------------------------------
# Oracles: the composed expressions the in-place kernels replaced
# ----------------------------------------------------------------------
def _old_sq(u, v):
    return (np.sum(u * u, axis=1, keepdims=True) - 2.0 * u @ v.T
            + np.sum(v * v, axis=1))


def _old_neg_sq_dist(u, v):
    return -_old_sq(np.asarray(u, dtype=np.float64),
                    np.asarray(v, dtype=np.float64))


def _old_neg_dist(u, v):
    sq = _old_sq(np.asarray(u, dtype=np.float64),
                 np.asarray(v, dtype=np.float64))
    return -np.sqrt(np.maximum(sq, 0.0))


def _old_poincare(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    denom = np.outer(1.0 - np.sum(u * u, axis=1),
                     1.0 - np.sum(v * v, axis=1))
    arg = 1.0 + 2.0 * _old_sq(u, v) / np.maximum(denom, 1e-15)
    return -np.arccosh(np.maximum(arg, 1.0 + 1e-15))


def _old_lorentz(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    inner = u[:, 1:] @ v[:, 1:].T - np.outer(u[:, 0], v[:, 0])
    return -np.arccosh(np.maximum(-inner, 1.0 + 1e-12))


def _old_gdcf(u_h, v_h, u_e, v_e, mix):
    inner = u_h[:, 1:] @ v_h[:, 1:].T - np.outer(u_h[:, 0], v_h[:, 0])
    d_h = -2.0 - 2.0 * inner
    d_e = np.sqrt(np.maximum(_old_sq(u_e, v_e), 0.0))
    return -(d_h + mix * d_e)


def _assert_same_bytes(new, old):
    """Byte-equal, except that a NaN only has to be NaN at the same spot."""
    assert new.dtype == old.dtype and new.shape == old.shape
    nan = np.isnan(old)
    np.testing.assert_array_equal(np.isnan(new), nan)
    assert new[~nan].tobytes() == old[~nan].tobytes()


_CLAMP = 1.0 + 1e-12
_SPECIAL = [0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, _CLAMP,
            np.nextafter(_CLAMP, 0.0), np.nextafter(_CLAMP, 2.0),
            5e-324, 1e-300]
_values = st.one_of(st.floats(-4.0, 4.0, width=64),
                    st.sampled_from(_SPECIAL))
_values_nan = st.one_of(_values, st.just(np.nan))


@st.composite
def _pair(draw, elements=_values):
    """A user batch and an item table of one width (dim >= 2)."""
    d = draw(st.integers(2, 5))
    u = draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), d),
                        elements=elements))
    v = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), d),
                        elements=elements))
    return u, v


@st.composite
def _clamp_boundary_pair(draw):
    """Lorentz rows whose ``-inner`` lands on or next to ``1 + 1e-12``."""
    n = draw(st.integers(1, 5))
    times = [1.0, _CLAMP, np.nextafter(_CLAMP, 0.0),
             np.nextafter(_CLAMP, 2.0), np.nextafter(1.0, 2.0)]
    u = np.zeros((1, 3))
    u[0, 0] = 1.0
    v = np.zeros((n, 3))
    v[:, 0] = draw(st.lists(st.sampled_from(times), min_size=n,
                            max_size=n))
    return u, v


_KERNELS = [(neg_sq_dist_scores, _old_neg_sq_dist),
            (neg_dist_scores, _old_neg_dist),
            (poincare_ranking_scores, _old_poincare),
            (lorentz_ranking_scores, _old_lorentz)]
_IDS = ["neg_sq_dist", "neg_dist", "poincare", "lorentz"]


class TestInPlaceKernels:
    @pytest.mark.parametrize("new, old", _KERNELS, ids=_IDS)
    @given(pair=_pair())
    @settings(max_examples=150, deadline=None)
    def test_byte_identical_to_composed_expression(self, new, old, pair):
        u, v = pair
        with np.errstate(all="ignore"):
            _assert_same_bytes(new(u, v), old(u, v))

    @pytest.mark.parametrize("new, old", _KERNELS, ids=_IDS)
    @given(pair=_pair(elements=_values_nan))
    @settings(max_examples=100, deadline=None)
    def test_nan_positions_match(self, new, old, pair):
        u, v = pair
        with np.errstate(all="ignore"):
            _assert_same_bytes(new(u, v), old(u, v))

    @given(pair=_clamp_boundary_pair())
    @settings(max_examples=50, deadline=None)
    def test_lorentz_clamp_boundary(self, pair):
        u, v = pair
        new = lorentz_ranking_scores(u, v)
        _assert_same_bytes(new, _old_lorentz(u, v))
        # Everything at or below the clamp is the same exact tie.
        at_or_below = -(u[0, 0] * v[:, 0]) >= -_CLAMP
        assert np.all(new[0, at_or_below] == -np.arccosh(_CLAMP))

    @given(hyp=_pair(elements=_values_nan), euc=_pair(),
           mix=st.sampled_from([0.0, 0.5, 1.0, 3.25]),
           dtype=st.sampled_from([np.float64, np.float32]))
    @settings(max_examples=150, deadline=None)
    def test_gdcf_byte_identical(self, hyp, euc, mix, dtype):
        (u_h, v_h), (u_e, v_e) = hyp, euc
        n = min(len(v_h), len(v_e))
        b = min(len(u_h), len(u_e))
        args = [a.astype(dtype) for a in (u_h[:b], v_h[:n],
                                          u_e[:b], v_e[:n])]
        with np.errstate(all="ignore"):
            _assert_same_bytes(gdcf_mixed_scores(*args, mix),
                               _old_gdcf(*args, mix))

    @pytest.mark.parametrize("n_users, n_items", [(40, 2000), (3, 40000)])
    def test_many_row_blocks(self, n_users, n_items):
        rng = np.random.default_rng(n_users)

        def table(n):
            a = rng.uniform(-2.0, 2.0, (n, 4))
            hit = rng.random(a.shape) < 0.01
            a[hit] = rng.choice(_SPECIAL + [np.nan], hit.sum())
            return a

        u, v = table(n_users), table(n_items)
        with np.errstate(all="ignore"):
            for new, old in _KERNELS:
                _assert_same_bytes(new(u, v), old(u, v))
            u_e, v_e = table(n_users), table(n_items)
            _assert_same_bytes(gdcf_mixed_scores(u, v, u_e, v_e, 0.7),
                               _old_gdcf(u, v, u_e, v_e, 0.7))

    def test_kernels_return_fresh_float64(self):
        u32 = np.array([[1.0, 0.1, 0.2]], dtype=np.float32)
        for new, _ in _KERNELS:
            out = new(u32, u32)
            assert out.dtype == np.float64 and out.flags.owndata


# ----------------------------------------------------------------------
# Callers: one export, one kernel
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def data():
    ds = load_dataset("ciao", scale=1.0)
    return ds, temporal_split(ds)


@pytest.fixture(scope="module")
def trained(data):
    ds, split = data
    models = {}
    for name in ALL_MODEL_NAMES:
        model = build_model(name, ds, seed=1)
        model.config.epochs = 2
        models[name] = model.fit(ds, split)
    euclid = LogiRec(ds.n_users, ds.n_items, ds.n_tags,
                     LogiRecConfig(epochs=2, hyperbolic=False, seed=1))
    models["LogiRec/euclidean"] = euclid.fit(ds, split)
    return models


def _counting(monkeypatch, model):
    """Wrap ``model.export_scoring`` to count its calls."""
    calls = []
    real = model.export_scoring

    def export_scoring():
        calls.append(1)
        return real()

    monkeypatch.setattr(model, "export_scoring", export_scoring)
    return calls


class TestCallers:
    def test_every_export_kind_is_covered(self, trained):
        kinds = {m.export_scoring()["kind"] for m in trained.values()}
        assert kinds == {"dot", "dot_bias", "neg_sq_dist", "neg_dist",
                         "lorentz", "poincare", "gdcf_mix", "dense"}

    @pytest.mark.parametrize("n_ids", [1, 7, 256])
    def test_score_rows_equals_score_users(self, trained, data, n_ids):
        ds, _ = data
        ids = (np.arange(n_ids) * 5) % ds.n_users
        for name, model in trained.items():
            assert score_rows(model.export_scoring(), ids).tobytes() \
                == model.score_users(ids).tobytes(), name

    @pytest.mark.parametrize("name", ALL_MODEL_NAMES)
    def test_evaluator_matches_reference(self, trained, data, name):
        ds, split = data
        model = trained[name]
        evaluator = Evaluator(ds, split, batch_size=64)
        for fast, target in ((evaluator.evaluate_valid(model),
                              evaluator._valid_items),
                             (evaluator.evaluate_test(model),
                              evaluator._test_items)):
            ref = evaluator._reference_evaluate(model, target,
                                                batch_size=64)
            np.testing.assert_array_equal(fast.user_ids, ref.user_ids)
            for metric in ref.per_user:
                assert fast.per_user[metric].tobytes() \
                    == ref.per_user[metric].tobytes(), (name, metric)

    def test_evaluator_exports_once_per_pass(self, trained, data,
                                             monkeypatch):
        ds, split = data
        model = trained["LogiRec++"]
        calls = _counting(monkeypatch, model)
        evaluator = Evaluator(ds, split, batch_size=16)
        evaluator.evaluate_valid(model)
        assert len(calls) == 1
        evaluator.evaluate_test(model)
        assert len(calls) == 2

    def test_beyond_accuracy_report_exports_once(self, trained, data,
                                                 monkeypatch):
        ds, split = data
        calls = _counting(monkeypatch, trained["HGCF"])
        beyond_accuracy_report(trained["HGCF"], ds, split, max_users=25)
        assert len(calls) == 1

    def test_model_without_scores_fails_clearly(self):
        class NoScores(Recommender):
            def parameters(self):
                return []

            def make_optimizer(self):
                return None

            def batch_loss(self, users, pos, neg):
                return None

        model = NoScores(3, 4)
        for call in (lambda: model.score_users(np.arange(2)),
                     model.export_scoring):
            with pytest.raises(NotImplementedError, match="export_scoring"):
                call()
