"""Tests for metrics, the evaluation harness, and significance testing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SyntheticConfig, generate_dataset, temporal_split
from repro.eval import (Evaluator, ndcg_at_k, recall_at_k,
                        wilcoxon_improvement)
from repro.eval.metrics import rank_items


class TestRecall:
    def test_perfect_ranking(self):
        ranked = np.array([3, 7, 1, 5])
        assert recall_at_k(ranked, {3, 7}, 2) == 1.0

    def test_partial_hit(self):
        ranked = np.array([3, 9, 1, 7])
        assert recall_at_k(ranked, {3, 7}, 2) == 0.5

    def test_miss(self):
        assert recall_at_k(np.array([1, 2]), {9}, 2) == 0.0

    def test_truth_larger_than_k(self):
        ranked = np.arange(10)
        assert recall_at_k(ranked, set(range(20)), 10) == 0.5

    def test_empty_truth_raises(self):
        with pytest.raises(ValueError):
            recall_at_k(np.array([1]), set(), 1)


class TestNDCG:
    def test_perfect_is_one(self):
        ranked = np.array([4, 2, 9])
        assert ndcg_at_k(ranked, {4, 2, 9}, 3) == pytest.approx(1.0)

    def test_position_sensitivity(self):
        top = ndcg_at_k(np.array([1, 2, 3]), {1}, 3)
        bottom = ndcg_at_k(np.array([3, 2, 1]), {1}, 3)
        assert top > bottom

    def test_known_value(self):
        # Single relevant item at rank 2: DCG = 1/log2(3); IDCG = 1.
        value = ndcg_at_k(np.array([9, 5, 7]), {5}, 3)
        assert value == pytest.approx(1.0 / np.log2(3))

    def test_zero_when_all_missed(self):
        assert ndcg_at_k(np.array([1, 2]), {3}, 2) == 0.0


class TestRankItems:
    def test_descending_order(self):
        scores = np.array([0.1, 0.9, 0.5])
        np.testing.assert_array_equal(rank_items(scores, set()),
                                      [1, 2, 0])

    def test_exclusion_masks_train_items(self):
        scores = np.array([0.1, 0.9, 0.5])
        ranked = rank_items(scores, {1})
        assert 1 not in ranked
        np.testing.assert_array_equal(ranked, [2, 0])

    def test_stable_ties(self):
        scores = np.zeros(4)
        np.testing.assert_array_equal(rank_items(scores, set()),
                                      [0, 1, 2, 3])


class _OracleModel:
    """Scores each user's true test items highest (perfect model)."""

    def __init__(self, dataset, split):
        self.truth = dataset.items_of_user(split.test)
        self.n_users = dataset.n_users
        self.n_items = dataset.n_items

    def score_users(self, user_ids):
        scores = np.zeros((len(user_ids), self.n_items))
        for row, u in enumerate(user_ids):
            for item in self.truth.get(int(u), ()):
                scores[row, item] = 1.0
        return scores

    def export_scoring(self):
        return {"kind": "dense",
                "scores": self.score_users(np.arange(self.n_users))}


class _RandomModel:
    def __init__(self, n_users, n_items, seed=0):
        self.n_users = n_users
        self.n_items = n_items
        self.rng = np.random.default_rng(seed)

    def score_users(self, user_ids):
        return self.rng.normal(size=(len(user_ids), self.n_items))

    def export_scoring(self):
        return {"kind": "dense",
                "scores": self.score_users(np.arange(self.n_users))}


class TestEvaluator:
    @pytest.fixture(scope="class")
    def setup(self):
        ds = generate_dataset(SyntheticConfig(n_users=30, n_items=50,
                                              mean_interactions=12.0,
                                              seed=8))
        return ds, temporal_split(ds)

    def test_oracle_gets_perfect_recall(self, setup):
        ds, split = setup
        evaluator = Evaluator(ds, split, ks=(10,))
        result = evaluator.evaluate_test(_OracleModel(ds, split))
        assert result["recall@10"] == pytest.approx(100.0)
        assert result["ndcg@10"] == pytest.approx(100.0)

    def test_random_model_near_chance(self, setup):
        ds, split = setup
        evaluator = Evaluator(ds, split, ks=(10,))
        result = evaluator.evaluate_test(_RandomModel(ds.n_users, ds.n_items))
        # Chance recall@10 is roughly 10 / (n_items - train) ~ 25%.
        assert result["recall@10"] < 60.0

    def test_valid_and_test_differ(self, setup):
        ds, split = setup
        evaluator = Evaluator(ds, split, ks=(10,))
        model = _OracleModel(ds, split)  # oracle for *test* items only
        valid = evaluator.evaluate_valid(model)
        test = evaluator.evaluate_test(model)
        assert test["recall@10"] > valid["recall@10"]

    def test_per_user_vectors_align(self, setup):
        ds, split = setup
        evaluator = Evaluator(ds, split, ks=(10, 20))
        result = evaluator.evaluate_test(_RandomModel(ds.n_users, ds.n_items))
        n = len(result.user_ids)
        for metric, vector in result.per_user.items():
            assert len(vector) == n

    def test_means_in_percent(self, setup):
        ds, split = setup
        evaluator = Evaluator(ds, split)
        result = evaluator.evaluate_test(_OracleModel(ds, split))
        for value in result.means.values():
            assert 0.0 <= value <= 100.0

    def test_summary_string(self, setup):
        ds, split = setup
        evaluator = Evaluator(ds, split)
        result = evaluator.evaluate_test(_RandomModel(ds.n_users, ds.n_items))
        assert "recall@10=" in result.summary()


class TestWilcoxon:
    def test_clear_improvement_significant(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0.1, 0.3, 200)
        better = base + 0.1
        significant, p = wilcoxon_improvement(better, base)
        assert significant
        assert p < 0.001

    def test_identical_not_significant(self):
        base = np.full(50, 0.5)
        significant, p = wilcoxon_improvement(base, base.copy())
        assert not significant
        assert p == 1.0

    def test_worse_not_significant(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0.3, 0.5, 100)
        significant, _ = wilcoxon_improvement(base - 0.1, base)
        assert not significant

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            wilcoxon_improvement(np.ones(3), np.ones(4))

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_noise_rarely_significant(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=40)
        b = a + rng.normal(scale=1e-3, size=40)
        significant, p = wilcoxon_improvement(b, a)
        assert 0.0 <= p <= 1.0
