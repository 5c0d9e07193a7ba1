"""Edge-case and failure-injection tests across the stack."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import LogiRec, LogiRecConfig, LogiRecPP
from repro.core.weighting import consistency_weights
from repro.data import InteractionDataset, TripletSampler, temporal_split
from repro.manifolds import Lorentz, PoincareBall, enclosing_ball
from repro.optim import Adam, Parameter, RiemannianSGD, SGD
from repro.taxonomy import LogicalRelations, Taxonomy, extract_relations
from repro.tensor import Tensor, arcosh, norm


def _minimal_dataset(n_users=3, n_items=6):
    """Smallest dataset that trains: one root tag, two leaves."""
    taxonomy = Taxonomy([-1, 0, 0])
    q = sp.csr_matrix((np.ones(n_items),
                       (np.arange(n_items),
                        1 + np.arange(n_items) % 2)),
                      shape=(n_items, 3))
    users, items, times = [], [], []
    for u in range(n_users):
        for k in range(5):
            users.append(u)
            items.append((u + k) % n_items)
            times.append(k)
    return InteractionDataset(np.array(users), np.array(items),
                              np.array(times), n_users, n_items, q,
                              taxonomy)


class TestDegenerateData:
    def test_minimal_dataset_trains(self):
        ds = _minimal_dataset()
        split = temporal_split(ds, min_interactions=3)
        model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags,
                          LogiRecConfig(dim=4, epochs=3, batch_size=64,
                                        seed=0))
        model.fit(ds, split)
        assert np.isfinite(model.score_users(np.array([0]))).all()

    def test_user_with_every_item(self):
        """Negative sampling must not loop forever when a user has
        interacted with (almost) the whole catalog."""
        n_items = 5
        users = np.zeros(n_items, dtype=np.int64)
        items = np.arange(n_items)
        q = sp.csr_matrix(np.ones((n_items, 1)))
        ds = InteractionDataset(users, items, np.arange(n_items), 1,
                                n_items, q, Taxonomy([-1]))
        sampler = TripletSampler(ds, np.arange(n_items),
                                 rng=np.random.default_rng(0))
        # Sampler gives up after bounded rounds and returns *something*.
        batch = next(sampler.epoch(8))
        assert len(batch[0]) == n_items

    def test_dataset_without_exclusions(self):
        taxonomy = Taxonomy([-1, 0])  # single chain: no siblings
        q = sp.csr_matrix(np.ones((4, 2)))
        rel = extract_relations(taxonomy, q)
        assert rel.counts["n_exclusion"] == 0
        con = consistency_weights(np.zeros(2, dtype=np.int64),
                                  np.array([0, 1]), rel, 1)
        np.testing.assert_allclose(con, 1.0)

    def test_logirec_with_no_relations(self):
        """All logic losses empty -> trains as a pure hyperbolic GCN."""
        taxonomy = Taxonomy([-1])
        q = sp.csr_matrix((6, 1))  # no memberships at all
        users = np.repeat(np.arange(3), 5)
        items = np.tile(np.arange(5), 3)
        ds = InteractionDataset(users, items,
                                np.tile(np.arange(5), 3), 3, 6, q,
                                taxonomy)
        split = temporal_split(ds, min_interactions=3)
        model = LogiRec(ds.n_users, ds.n_items, ds.n_tags,
                        LogiRecConfig(dim=4, epochs=3, batch_size=32,
                                      lam=1.0, seed=0))
        model.fit(ds, split)
        assert np.isfinite(model.score_users(np.array([0]))).all()

    def test_empty_split_part(self):
        ds = _minimal_dataset()
        split = temporal_split(ds, min_interactions=100)
        assert len(split.valid) == 0
        assert len(split.test) == 0


class TestNumericalFailureInjection:
    def test_optimizer_survives_nan_gradient(self):
        p = Parameter(np.ones(3))
        opt = RiemannianSGD([p], lr=0.1)
        p.grad = np.array([np.nan, np.inf, 1.0])
        opt.step()  # must not corrupt the parameter
        np.testing.assert_allclose(p.data, 1.0)

    def test_arcosh_far_below_domain(self):
        x = Tensor(np.array([-100.0, 0.0, 0.999]), requires_grad=True)
        out = arcosh(x)
        assert np.isfinite(out.data).all()
        out.sum().backward()
        assert np.isfinite(x.grad).all()

    def test_poincare_distance_at_boundary(self):
        ball = PoincareBall()
        x = ball.project(np.array([[1.0, 0.0]]))  # clipped to boundary
        y = np.array([[0.0, 0.0]])
        d = PoincareBall.distance(Tensor(x), Tensor(y))
        assert np.isfinite(d.data).all()

    def test_lorentz_distance_identical_points(self):
        manifold = Lorentz()
        x = manifold.random((4, 4), np.random.default_rng(0))
        d = Lorentz.distance(Tensor(x), Tensor(x.copy()))
        assert np.isfinite(d.data).all()
        assert (d.data >= 0).all()

    def test_enclosing_ball_near_origin_center(self):
        """Centers below CENTER_MIN_NORM are clamped, not exploded."""
        c = Tensor(np.array([[1e-9, 0.0]]), requires_grad=True)
        o, r = enclosing_ball(c)
        assert np.isfinite(o.data).all()
        assert np.isfinite(r.data).all()
        (o.sum() + r.sum()).backward()
        assert np.isfinite(c.grad).all()

    def test_norm_gradient_zero_vector(self):
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        norm(x, axis=-1).sum().backward()
        np.testing.assert_allclose(x.grad, 0.0)

    def test_adam_extreme_gradients(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1, max_grad_norm=None)
        for scale in (1e12, 1e-12, 1e12):
            opt.zero_grad()
            (p * scale + scale).sum().backward()
            opt.step()
        assert np.isfinite(p.data).all()

    def test_sgd_huge_loss_with_clipping(self):
        p = Parameter(np.zeros(2))
        opt = SGD([p], lr=0.1, max_grad_norm=1.0)
        opt.zero_grad()
        (p * 1e30).sum().backward()
        opt.step()
        assert np.isfinite(p.data).all()
        assert np.linalg.norm(p.data) <= 0.1 + 1e-9


class TestRelationEdgeCases:
    def test_relations_with_empty_arrays(self):
        rel = LogicalRelations(
            membership=np.zeros((0, 2), dtype=np.int64),
            hierarchy=np.zeros((0, 2), dtype=np.int64),
            exclusion=np.zeros((0, 2), dtype=np.int64))
        assert rel.counts["n_membership"] == 0
        assert rel.exclusion_set() == set()

    def test_single_tag_taxonomy(self):
        taxonomy = Taxonomy([-1], names=["<All>"])
        assert taxonomy.depth == 1
        assert taxonomy.siblings(0) == []
        q = sp.csr_matrix(np.ones((3, 1)))
        rel = extract_relations(taxonomy, q)
        assert rel.counts["n_hierarchy"] == 0
        assert rel.counts["n_exclusion"] == 0

    def test_deep_chain_taxonomy(self):
        """A 50-deep chain: level computation must not blow up."""
        parents = [-1] + list(range(49))
        taxonomy = Taxonomy(parents)
        assert taxonomy.depth == 50
        assert taxonomy.ancestors(49) == list(range(48, -1, -1))

    def test_wide_taxonomy_exclusions_quadratic(self):
        """100 sibling leaves under one root -> C(100,2) exclusions."""
        taxonomy = Taxonomy([-1] + [0] * 100)
        pairs, levels = __import__(
            "repro.taxonomy.relations",
            fromlist=["extract_exclusions"]).extract_exclusions(taxonomy)
        assert len(pairs) == 100 * 99 // 2
        assert (levels == 2).all()
