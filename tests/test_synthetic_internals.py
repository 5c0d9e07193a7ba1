"""Deeper tests of the synthetic generator's planted structure."""

import numpy as np
import pytest

from repro.data import SyntheticConfig, generate_dataset
from repro.data.synthetic import _user_traits
from repro.taxonomy import extract_membership


class TestItemTagStructure:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_dataset(SyntheticConfig(
            n_users=40, n_items=200, depth=4, branching=3,
            ancestor_prob=1.0, extra_tag_prob=0.0,
            overlap_pair_frac=0.0, seed=31))

    def test_full_ancestor_closure_at_prob_one(self, dataset):
        """With ancestor_prob=1, every item carries its leaf's complete
        ancestor chain."""
        taxonomy = dataset.taxonomy
        csr = dataset.item_tags
        leaves = set(taxonomy.leaves)
        for item in range(dataset.n_items):
            tags = set(csr.indices[csr.indptr[item]:csr.indptr[item + 1]])
            item_leaves = tags & leaves
            assert item_leaves
            leaf = next(iter(item_leaves))
            for anc in taxonomy.ancestors(leaf):
                assert anc in tags

    def test_membership_count_matches_q(self, dataset):
        pairs = extract_membership(dataset.item_tags)
        assert len(pairs) == dataset.item_tags.nnz
        assert dataset.relations.counts["n_membership"] == (
            dataset.item_tags.nnz)

    def test_memberships_per_item_equals_depth(self, dataset):
        """depth-4 closure + single leaf = exactly 4 tags per item."""
        per_item = np.diff(dataset.item_tags.indptr)
        assert (per_item == dataset.taxonomy.depth).all()


class TestUserTraits:
    def test_focus_levels_match_focus_nodes(self):
        config = SyntheticConfig(n_users=200, seed=5)
        taxonomy = config.taxonomy()
        rng = np.random.default_rng(5)
        focus, levels, consistency = _user_traits(config, taxonomy, rng)
        for node, level in zip(focus, levels):
            assert taxonomy.level(int(node)) == int(level)

    def test_consistency_in_unit_interval(self):
        config = SyntheticConfig(n_users=100, seed=6)
        taxonomy = config.taxonomy()
        _, _, consistency = _user_traits(config, taxonomy,
                                         np.random.default_rng(6))
        assert (consistency >= 0).all()
        assert (consistency <= 1).all()

    def test_consistent_users_stay_in_subtree(self):
        """Users planted with near-1 consistency mostly pick items whose
        primary leaf lies under their focus node."""
        ds = generate_dataset(SyntheticConfig(
            n_users=60, n_items=200, depth=3, branching=3,
            consistency_beta=(50.0, 1.0),  # consistency ~ 1
            extra_tag_prob=0.0, overlap_pair_frac=0.0, seed=8))
        taxonomy = ds.taxonomy
        csr = ds.item_tags
        leaves = set(taxonomy.leaves)
        in_focus, total = 0, 0
        for u, item in zip(ds.user_ids, ds.item_ids):
            focus = int(ds.user_focus[u])
            focus_leaves = set(taxonomy.subtree_leaves(focus))
            tags = set(csr.indices[csr.indptr[item]:csr.indptr[item + 1]])
            total += 1
            if tags & leaves & focus_leaves:
                in_focus += 1
        assert in_focus / total > 0.8


class TestEvaluatorBatching:
    def test_results_independent_of_batch_size(self):
        from repro.data import load_dataset, temporal_split
        from repro.eval import Evaluator

        class Deterministic:
            def __init__(self, n_items):
                self.n_items = n_items

            def score_users(self, user_ids):
                rows = np.asarray(user_ids, dtype=float)[:, None]
                cols = np.arange(self.n_items, dtype=float)[None, :]
                return np.sin(rows + 1.0) * np.cos(cols * 0.1)

            def export_scoring(self):
                return {"kind": "dense",
                        "scores": self.score_users(np.arange(ds.n_users))}

        ds = load_dataset("ciao", scale=0.4)
        split = temporal_split(ds)
        evaluator = Evaluator(ds, split)
        model = Deterministic(ds.n_items)
        small = evaluator._evaluate(model, evaluator._test_truth,
                                    batch_size=3)
        large = evaluator._evaluate(model, evaluator._test_truth,
                                    batch_size=512)
        for metric in small.per_user:
            np.testing.assert_allclose(small.per_user[metric],
                                       large.per_user[metric])
