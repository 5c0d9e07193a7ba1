"""Model-level tests for LogiRec and LogiRec++ (fast, tiny budgets)."""

import numpy as np
import pytest

from repro.core import LogiRec, LogiRecConfig, LogiRecPP
from repro.data import SyntheticConfig, generate_dataset, temporal_split
from repro.eval import Evaluator


@pytest.fixture(scope="module")
def small_setup():
    ds = generate_dataset(SyntheticConfig(n_users=40, n_items=60,
                                          depth=3, branching=3,
                                          mean_interactions=10.0, seed=7))
    split = temporal_split(ds)
    return ds, split


def _cfg(**kw):
    base = dict(dim=8, epochs=5, batch_size=1024, lr=0.01, lam=1.0,
                margin=0.5, n_negatives=1, n_layers=2, seed=0)
    base.update(kw)
    return LogiRecConfig(**base)


class TestLogiRecTraining:
    def test_fit_and_score_shapes(self, small_setup):
        ds, split = small_setup
        model = LogiRec(ds.n_users, ds.n_items, ds.n_tags, _cfg())
        model.fit(ds, split)
        scores = model.score_users(np.array([0, 1, 2]))
        assert scores.shape == (3, ds.n_items)
        assert np.isfinite(scores).all()

    def test_loss_decreases(self, small_setup):
        ds, split = small_setup
        model = LogiRec(ds.n_users, ds.n_items, ds.n_tags,
                        _cfg(epochs=15))
        model.fit(ds, split)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_deterministic_given_seed(self, small_setup):
        ds, split = small_setup
        runs = []
        for _ in range(2):
            m = LogiRec(ds.n_users, ds.n_items, ds.n_tags, _cfg())
            m.fit(ds, split)
            runs.append(m.score_users(np.array([0])))
        np.testing.assert_allclose(runs[0], runs[1])

    def test_recommend_excludes_seen(self, small_setup):
        ds, split = small_setup
        model = LogiRec(ds.n_users, ds.n_items, ds.n_tags, _cfg())
        model.fit(ds, split)
        seen = ds.items_of_user(split.train)[0]
        recs = model.recommend(0, k=10, exclude=seen)
        assert len(set(recs) & set(seen)) == 0

    def test_final_embeddings_on_manifold(self, small_setup):
        ds, split = small_setup
        model = LogiRec(ds.n_users, ds.n_items, ds.n_tags, _cfg())
        model.fit(ds, split)
        user_emb, item_emb = model.final_embeddings()
        from repro.manifolds import Lorentz
        np.testing.assert_allclose(Lorentz.inner_np(user_emb, user_emb),
                                   -1.0, atol=1e-8)
        np.testing.assert_allclose(Lorentz.inner_np(item_emb, item_emb),
                                   -1.0, atol=1e-8)

    def test_manifold_parameterization_trains(self, small_setup):
        ds, split = small_setup
        cfg = _cfg(parameterization="manifold", lr=1.0)
        model = LogiRec(ds.n_users, ds.n_items, ds.n_tags, cfg)
        model.fit(ds, split)
        assert np.isfinite(model.score_users(np.array([0]))).all()
        # Manifold constraints hold after training.
        from repro.manifolds import Lorentz
        np.testing.assert_allclose(
            Lorentz.inner_np(model.user_emb.data, model.user_emb.data),
            -1.0, atol=1e-7)
        assert (np.linalg.norm(model.item_emb.data, axis=1) < 1.0).all()

    def test_euclidean_variant_trains(self, small_setup):
        ds, split = small_setup
        cfg = _cfg(hyperbolic=False)
        model = LogiRec(ds.n_users, ds.n_items, ds.n_tags, cfg)
        model.fit(ds, split)
        assert np.isfinite(model.score_users(np.array([0, 1]))).all()

    def test_invalid_parameterization_rejected(self, small_setup):
        ds, _ = small_setup
        with pytest.raises(ValueError):
            LogiRec(ds.n_users, ds.n_items, ds.n_tags,
                    _cfg(parameterization="spherical"))

    @pytest.mark.parametrize("cls", [LogiRec, LogiRecPP])
    def test_one_manifold_points_call_per_batch_loss(self, small_setup,
                                                     cls, monkeypatch):
        """The logical losses reuse the step's tag centres instead of
        recomputing every ``expmap0`` table."""
        ds, split = small_setup
        model = cls(ds.n_users, ds.n_items, ds.n_tags, _cfg())
        model.prepare(ds, split)
        calls = []
        manifold_points = model._manifold_points

        def counted():
            calls.append(1)
            return manifold_points()

        monkeypatch.setattr(model, "_manifold_points", counted)
        users = np.arange(4)
        model.batch_loss(users, users, users + 4)
        assert len(calls) == 1

    def test_lam_zero_skips_logic_loss(self, small_setup):
        ds, split = small_setup
        model = LogiRec(ds.n_users, ds.n_items, ds.n_tags, _cfg(lam=0.0))
        model.prepare(ds, split)
        loss = model._logic_loss(model._manifold_points()[1])
        assert loss.item() == 0.0

    def test_ablation_switches_disable_losses(self, small_setup):
        ds, split = small_setup
        cfg = _cfg(use_membership=False, use_hierarchy=False,
                   use_exclusion=False)
        model = LogiRec(ds.n_users, ds.n_items, ds.n_tags, cfg)
        model.prepare(ds, split)
        loss = model._logic_loss(model._manifold_points()[1])
        assert loss.item() == 0.0

    def test_exclusion_margins_shape(self, small_setup):
        ds, split = small_setup
        model = LogiRec(ds.n_users, ds.n_items, ds.n_tags, _cfg())
        model.fit(ds, split)
        margins = model.exclusion_margins()
        assert len(margins) == len(ds.relations.exclusion)

    def test_zero_layer_hgcn_ablation(self, small_setup):
        ds, split = small_setup
        model = LogiRec(ds.n_users, ds.n_items, ds.n_tags,
                        _cfg(n_layers=0))
        model.fit(ds, split)
        assert np.isfinite(model.score_users(np.array([0]))).all()


class TestLogiRecPP:
    def test_alpha_refreshed_and_positive(self, small_setup):
        ds, split = small_setup
        model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags, _cfg())
        model.fit(ds, split)
        weights = model.user_weights()
        assert (weights["alpha"] > 0).all()
        assert (weights["con"] > 0).all()
        assert (weights["con"] <= 1).all()
        assert (weights["gr"] >= 0).all()

    def test_alpha_mean_normalized(self, small_setup):
        ds, split = small_setup
        model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags, _cfg())
        model.fit(ds, split)
        alpha = model.user_weights()["alpha"]
        assert alpha.mean() == pytest.approx(1.0, rel=0.2)

    def test_rec_weights_indexed_by_user(self, small_setup):
        ds, split = small_setup
        model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags, _cfg())
        model.prepare(ds, split)
        model._refresh_alpha()
        users = np.array([3, 3, 5])
        w = model._rec_weights(users)
        assert w[0] == w[1]
        np.testing.assert_allclose(w, model._alpha[users])

    def test_consistency_reflects_planted_traits(self):
        """Users planted with diverse preferences should get lower CON
        on average than strongly consistent users."""
        ds = generate_dataset(SyntheticConfig(
            n_users=120, n_items=150, depth=4, branching=3,
            mean_interactions=18.0, seed=3))
        split = temporal_split(ds)
        model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags, _cfg())
        model.prepare(ds, split)
        con = model._con
        planted = ds.user_consistency
        top = con[planted > np.quantile(planted, 0.8)].mean()
        bottom = con[planted < np.quantile(planted, 0.2)].mean()
        assert top > bottom

    def test_weighting_changes_training(self, small_setup):
        ds, split = small_setup
        plain = LogiRec(ds.n_users, ds.n_items, ds.n_tags,
                        _cfg(epochs=8))
        plain.fit(ds, split)
        weighted = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags,
                             _cfg(epochs=8))
        weighted.fit(ds, split)
        assert not np.allclose(plain.score_users(np.array([0])),
                               weighted.score_users(np.array([0])))

    def test_euclidean_pp_variant(self, small_setup):
        ds, split = small_setup
        model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags,
                          _cfg(hyperbolic=False))
        model.fit(ds, split)
        assert np.isfinite(model.score_users(np.array([0]))).all()

    def test_evaluator_checkpointing(self, small_setup):
        ds, split = small_setup
        evaluator = Evaluator(ds, split)
        model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags,
                          _cfg(epochs=6))
        model.fit(ds, split, evaluator=evaluator, eval_every=2)
        result = evaluator.evaluate_test(model)
        assert 0.0 <= result["recall@10"] <= 100.0


class TestLogicalRelationMining:
    def test_overlapping_pairs_less_separated(self):
        """The headline mining claim (Fig. 7/8, case studies): after
        LogiRec++ training, planted-overlap ("falsely exclusive") tag
        pairs end up less geometrically separated than genuine ones."""
        ds = generate_dataset(SyntheticConfig(
            n_users=100, n_items=150, depth=3, branching=3,
            mean_interactions=15.0, overlap_pair_frac=0.4,
            overlap_item_frac=0.7, seed=11))
        split = temporal_split(ds)
        model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags,
                          _cfg(epochs=40, lam=2.0))
        model.fit(ds, split)
        margins = model.exclusion_margins()
        pairs = ds.relations.exclusion
        overlap_set = {frozenset(map(int, p)) for p in
                       ds.overlapping_pairs}
        flags = np.array([frozenset(map(int, p)) in overlap_set
                          for p in pairs])
        if flags.any() and (~flags).any():
            assert margins[flags].mean() < margins[~flags].mean() + 0.5
