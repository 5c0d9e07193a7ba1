"""Equivalence and perf-smoke tests for the vectorized hot paths.

The vectorized evaluator, top-K helper, and negative sampler must
reproduce their pre-vectorization reference implementations exactly —
per-user metric vectors feed the Wilcoxon significance test, so even a
tie-break difference would change reported results.  The references are
kept on the classes (``Evaluator._reference_evaluate``,
``TripletSampler._reference_is_positive``) and pinned here on randomized
data; a fast run of ``benchmarks/bench_perf.py`` guards against gross
perf regressions.
"""

import pathlib
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import (SyntheticConfig, generate_dataset, load_dataset,
                        temporal_split)
from repro.data.dataset import InteractionDataset, Split
from repro.data.sampling import TripletSampler
from repro.eval import Evaluator
from repro.eval.metrics import topk_indices
from repro.taxonomy import Taxonomy


class _RandomModel:
    def __init__(self, n_users, n_items, seed=0, quantize=None):
        rng = np.random.default_rng(seed)
        self._scores = rng.standard_normal((n_users, n_items))
        if quantize is not None:
            # Coarse quantization forces heavy score ties, stressing the
            # tie-breaking equivalence of the partial-sort top-K.
            self._scores = np.round(self._scores * quantize) / quantize

    def score_users(self, user_ids):
        return self._scores[np.asarray(user_ids, dtype=np.int64)]

    def export_scoring(self):
        return {"kind": "dense", "scores": self._scores}


@st.composite
def _tie_heavy_scores(draw):
    n_rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    levels = draw(st.integers(1, 4))  # few distinct values -> many ties
    scores = draw(hnp.arrays(np.int64, (n_rows, n),
                             elements=st.integers(0, levels)))
    scores = scores.astype(np.float64) / levels
    signs = draw(hnp.arrays(bool, (n_rows, n)))
    scores[signs & (scores == 0.0)] = -0.0
    # Masked (-inf) entries leave some rows fewer than K finite scores.
    masked = draw(hnp.arrays(bool, (n_rows, n)))
    scores[masked] = -np.inf
    if draw(st.booleans()):
        scores[0, :] = -np.inf
    k = draw(st.integers(1, n + 3))  # includes K >= n
    return scores, k


class TestTopKIndices:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_stable_argsort_random(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((17, 113))
        for k in (1, 5, 10, 113, 200):
            expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(topk_indices(scores, k), expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_stable_argsort_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 4, size=(11, 60)).astype(np.float64)
        for k in (1, 7, 20):
            expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(topk_indices(scores, k), expected)

    def test_all_tied(self):
        scores = np.zeros((3, 30))
        np.testing.assert_array_equal(
            topk_indices(scores, 10),
            np.tile(np.arange(10), (3, 1)))

    def test_masked_rows_with_infinities(self):
        scores = np.zeros((2, 20))
        scores[0, :15] = -np.inf  # only 5 finite items, k beyond them
        expected = np.argsort(-scores, axis=1, kind="stable")[:, :8]
        np.testing.assert_array_equal(topk_indices(scores, 8), expected)

    def test_one_dimensional_input(self):
        scores = np.array([0.5, -1.0, 2.0, 0.5])
        np.testing.assert_array_equal(topk_indices(scores, 3), [2, 0, 3])

    @given(case=_tie_heavy_scores())
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort(self, case):
        scores, k = case
        expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(topk_indices(scores, k), expected)
        np.testing.assert_array_equal(topk_indices(scores[0], k),
                                      expected[0])

    @given(case=_tie_heavy_scores(), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_matches_with_continuous_scores_and_ties(self, case, seed):
        scores, k = case
        noise = np.random.default_rng(seed).standard_normal(scores.shape)
        mixed = np.where(noise > 0.5, noise, scores)
        expected = np.argsort(-mixed, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(topk_indices(mixed, k), expected)


def _assert_results_identical(vect, ref):
    np.testing.assert_array_equal(vect.user_ids, ref.user_ids)
    assert set(vect.per_user) == set(ref.per_user)
    for metric in ref.per_user:
        np.testing.assert_array_equal(vect.per_user[metric],
                                      ref.per_user[metric],
                                      err_msg=f"{metric} diverged")


class TestEvaluatorEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_scores_bit_identical(self, seed):
        ds = generate_dataset(SyntheticConfig(
            n_users=40, n_items=70, mean_interactions=11.0, seed=seed))
        split = temporal_split(ds)
        evaluator = Evaluator(ds, split, ks=(10, 20))
        model = _RandomModel(ds.n_users, ds.n_items, seed=seed)
        _assert_results_identical(
            evaluator.evaluate_test(model),
            evaluator._reference_evaluate(model, evaluator._test_items))
        _assert_results_identical(
            evaluator.evaluate_valid(model),
            evaluator._reference_evaluate(model, evaluator._valid_items))

    def test_tied_scores_bit_identical(self):
        ds = generate_dataset(SyntheticConfig(
            n_users=35, n_items=60, mean_interactions=10.0, seed=11))
        split = temporal_split(ds)
        evaluator = Evaluator(ds, split, ks=(5, 10))
        model = _RandomModel(ds.n_users, ds.n_items, seed=3, quantize=2)
        _assert_results_identical(
            evaluator.evaluate_test(model),
            evaluator._reference_evaluate(model, evaluator._test_items))

    def test_train_test_item_overlap(self):
        # A user holding the same item in train and test: the reference
        # drops it from the ranking but keeps it in the recall
        # denominator; the vectorized path must do the same.
        taxonomy = Taxonomy([-1])
        users = np.array([0, 0, 0, 1, 1, 1])
        items = np.array([2, 3, 2, 0, 1, 4])
        ds = InteractionDataset(
            users, items, np.arange(6), n_users=2, n_items=5,
            item_tags=sp.csr_matrix((5, 1)), taxonomy=taxonomy)
        split = Split(train=np.array([0, 1, 3, 4]),
                      valid=np.array([], dtype=np.int64),
                      test=np.array([2, 5]))  # user 0's test item 2 is
        # also its train item; user 1's test item 4 is fresh.
        evaluator = Evaluator(ds, split, ks=(2, 4))
        model = _RandomModel(2, 5, seed=0)
        vect = evaluator.evaluate_test(model)
        ref = evaluator._reference_evaluate(model, evaluator._test_items)
        _assert_results_identical(vect, ref)
        assert vect.per_user["recall@4"][0] == 0.0  # unreachable truth

    def test_batch_size_does_not_change_results(self):
        ds = generate_dataset(SyntheticConfig(
            n_users=30, n_items=50, mean_interactions=12.0, seed=8))
        split = temporal_split(ds)
        model = _RandomModel(ds.n_users, ds.n_items, seed=5)
        big = Evaluator(ds, split, batch_size=256).evaluate_test(model)
        small = Evaluator(ds, split, batch_size=7).evaluate_test(model)
        _assert_results_identical(small, big)


class _ReferenceSampler(TripletSampler):
    """The sampler as it was: per-triplet membership loop."""

    _is_positive = TripletSampler._reference_is_positive


class TestSamplerEquivalence:
    @pytest.fixture(scope="class")
    def setup(self):
        ds = load_dataset("ciao", scale=0.5)
        return ds, temporal_split(ds)

    def test_membership_matches_reference(self, setup):
        ds, split = setup
        sampler = TripletSampler(ds, split.train,
                                 rng=np.random.default_rng(0))
        rng = np.random.default_rng(42)
        users = rng.integers(0, ds.n_users, size=2000)
        items = rng.integers(0, ds.n_items, size=2000)
        np.testing.assert_array_equal(
            sampler._is_positive(users, items),
            sampler._reference_is_positive(users, items))
        # Known positives must all test True.
        np.testing.assert_array_equal(
            sampler._is_positive(sampler.users, sampler.items),
            np.ones(len(sampler.users), dtype=bool))

    def test_negatives_never_positives(self, setup):
        ds, split = setup
        sampler = TripletSampler(ds, split.train,
                                 rng=np.random.default_rng(1))
        for users, _, neg in sampler.epoch(512):
            assert not sampler._reference_is_positive(users, neg).any()

    def test_identical_sample_stream_to_reference(self, setup):
        # Same membership answers -> same rejection rounds -> the
        # vectorized sampler consumes the RNG identically and yields
        # bit-identical triplets.
        ds, split = setup
        fast = TripletSampler(ds, split.train,
                              rng=np.random.default_rng(7))
        ref = _ReferenceSampler(ds, split.train,
                                rng=np.random.default_rng(7))
        for (u1, p1, n1), (u2, p2, n2) in zip(fast.epoch(256),
                                              ref.epoch(256)):
            np.testing.assert_array_equal(u1, u2)
            np.testing.assert_array_equal(p1, p2)
            np.testing.assert_array_equal(n1, n2)


class TestPerfSmoke:
    """REPRO_BENCH_FAST-scale run of the perf bench inside tier-1.

    Guards against gross perf regressions (a reintroduced Python loop on
    a hot path) with deliberately loose floors, plus a generous
    wall-clock ceiling so pathological slowdowns fail loudly.
    """

    WALL_CLOCK_LIMIT_S = 180.0

    def test_fast_perf_smoke(self, monkeypatch):
        bench_dir = str(pathlib.Path(__file__).parent.parent / "benchmarks")
        monkeypatch.syspath_prepend(bench_dir)
        import bench_perf

        monkeypatch.setattr(bench_perf, "BENCH_SCALE", 1.0)
        monkeypatch.setattr(bench_perf, "EVAL_REPEATS", 1)
        monkeypatch.setattr(bench_perf, "SAMPLER_ROUNDS", 2)
        monkeypatch.setattr(bench_perf, "TRAIN_STEPS", 3)
        start = time.perf_counter()
        results = bench_perf.run_perf_suite(write=False)
        elapsed = time.perf_counter() - start
        assert elapsed < self.WALL_CLOCK_LIMIT_S
        assert results["evaluation"]["identical_per_user_vectors"]
        assert results["evaluation"]["speedup"] >= 2.0
        assert results["sampling"]["speedup"] >= 4.0
        for row in results["train_step"].values():
            for backend in ("reference", "fast"):
                assert row[backend]["ms_per_step"] > 0.0
            assert row["speedup"] > 0.0
