"""Tests for datasets, synthetic generation, splits, and sampling."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (DATASET_CONFIGS, InteractionDataset, Split,
                        SyntheticConfig, TripletSampler, dataset_statistics,
                        generate_dataset, load_dataset, temporal_split)
from repro.taxonomy import Taxonomy


def _tiny_dataset():
    taxonomy = Taxonomy([-1, 0, 0])
    q = sp.csr_matrix(np.array([[0, 1, 0],
                                [0, 0, 1],
                                [0, 1, 0],
                                [1, 0, 0]]))
    # user 0: items 0,1,2 over time; user 1: items 2,3.
    return InteractionDataset(
        user_ids=np.array([0, 0, 0, 1, 1]),
        item_ids=np.array([0, 1, 2, 2, 3]),
        timestamps=np.array([0, 1, 2, 0, 1]),
        n_users=2, n_items=4, item_tags=q, taxonomy=taxonomy,
        name="tiny")


class TestInteractionDataset:
    def test_basic_counts(self):
        ds = _tiny_dataset()
        assert ds.n_interactions == 5
        assert ds.n_tags == 3
        assert ds.density == pytest.approx(100 * 5 / 8)

    def test_validation(self):
        taxonomy = Taxonomy([-1])
        q = sp.csr_matrix(np.ones((2, 1)))
        with pytest.raises(ValueError, match="equal length"):
            InteractionDataset(np.array([0]), np.array([0, 1]),
                               np.array([0]), 2, 2, q, taxonomy)
        with pytest.raises(ValueError, match="user id"):
            InteractionDataset(np.array([5]), np.array([0]),
                               np.array([0]), 2, 2, q, taxonomy)
        with pytest.raises(ValueError, match="item id"):
            InteractionDataset(np.array([0]), np.array([7]),
                               np.array([0]), 2, 2, q, taxonomy)

    def test_items_of_user(self):
        ds = _tiny_dataset()
        per_user = ds.items_of_user()
        np.testing.assert_array_equal(np.sort(per_user[0]), [0, 1, 2])
        np.testing.assert_array_equal(np.sort(per_user[1]), [2, 3])

    def test_items_of_user_subset(self):
        ds = _tiny_dataset()
        per_user = ds.items_of_user(np.array([0, 3]))
        np.testing.assert_array_equal(per_user[0], [0])
        np.testing.assert_array_equal(per_user[1], [2])

    def test_interaction_matrix_binary(self):
        ds = _tiny_dataset()
        mat = ds.interaction_matrix()
        assert mat.shape == (2, 4)
        assert mat[0, 1] == 1.0
        assert mat[1, 0] == 0.0
        assert set(np.unique(mat.data)) == {1.0}

    def test_tags_of_items(self):
        ds = _tiny_dataset()
        tags = ds.tags_of_items(np.array([0, 3]))
        np.testing.assert_array_equal(tags[0], [1])
        np.testing.assert_array_equal(tags[1], [0])

    def test_tag_occurrences_multiplicity(self):
        ds = _tiny_dataset()
        users, tags, weights = ds.tag_occurrences()
        # user 0 touched items 0 (tag 1), 1 (tag 2), 2 (tag 1).
        np.testing.assert_array_equal(np.sort(tags[users == 0]), [1, 1, 2])
        assert weights is None

    def test_split_train_weights_align_with_train(self):
        with pytest.raises(ValueError, match="align"):
            Split(train=[0, 1], valid=[], test=[], train_weights=[1.0])

    def test_tag_occurrences_expand_each_interaction(self):
        """One entry per carried tag, in interaction order, with the
        interaction's weight repeated onto each of its tags."""
        ds = generate_dataset(SyntheticConfig(n_users=30, n_items=40,
                                              seed=3))
        indices = np.array([7, 2, 2, 11, 0, 5])
        weights = np.array([0.5, 1.0, 2.0, 0.25, 3.0, 4.0])
        users, tags, occ_weights = ds.tag_occurrences(indices, weights)
        per_item = ds.tags_of_items(ds.item_ids[indices])
        assert max(len(t) for t in per_item) > 1
        np.testing.assert_array_equal(tags, np.concatenate(per_item))
        lengths = [len(t) for t in per_item]
        np.testing.assert_array_equal(
            users, np.repeat(ds.user_ids[indices], lengths))
        np.testing.assert_array_equal(occ_weights,
                                      np.repeat(weights, lengths))

    def test_statistics_shape(self):
        stats = _tiny_dataset().statistics()
        for key in ("n_users", "n_items", "n_interactions", "density_pct",
                    "n_tags", "n_membership", "n_hierarchy",
                    "n_exclusion"):
            assert key in stats


class TestTemporalSplit:
    def test_fractions_and_order(self):
        ds = _tiny_dataset()
        split = temporal_split(ds, 0.6, 0.2, min_interactions=2)
        # All indices used exactly once across the three parts.
        all_idx = np.concatenate([split.train, split.valid, split.test])
        assert sorted(all_idx) == list(range(5))
        # Train events precede valid precede test per user (timestamps).
        for u in range(2):
            t_train = ds.timestamps[[i for i in split.train
                                     if ds.user_ids[i] == u]]
            t_test = ds.timestamps[[i for i in split.test
                                    if ds.user_ids[i] == u]]
            if len(t_train) and len(t_test):
                assert t_train.max() < t_test.min()

    def test_small_users_go_to_train(self):
        ds = _tiny_dataset()
        split = temporal_split(ds, min_interactions=5)
        # Both users have < 5 events: everything is training data.
        assert len(split.train) == 5
        assert len(split.valid) == 0

    def test_invalid_fractions(self):
        ds = _tiny_dataset()
        with pytest.raises(ValueError):
            temporal_split(ds, train_frac=0.0)
        with pytest.raises(ValueError):
            temporal_split(ds, train_frac=0.8, valid_frac=0.3)

    def test_each_split_user_has_all_three(self):
        ds = load_dataset("ciao")
        split = temporal_split(ds)
        valid_users = set(ds.user_ids[split.valid])
        test_users = set(ds.user_ids[split.test])
        train_users = set(ds.user_ids[split.train])
        assert valid_users <= train_users
        assert test_users <= train_users


class TestSynthetic:
    def test_generation_deterministic(self):
        cfg = SyntheticConfig(n_users=30, n_items=40, seed=5)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        np.testing.assert_array_equal(a.user_ids, b.user_ids)
        np.testing.assert_array_equal(a.item_ids, b.item_ids)
        assert (a.item_tags != b.item_tags).nnz == 0

    def test_seed_changes_data(self):
        a = generate_dataset(SyntheticConfig(n_users=30, n_items=40,
                                             seed=1))
        b = generate_dataset(SyntheticConfig(n_users=30, n_items=40,
                                             seed=2))
        assert not np.array_equal(a.item_ids, b.item_ids)

    def test_every_item_has_a_leaf_tag(self):
        ds = generate_dataset(SyntheticConfig(n_users=20, n_items=50,
                                              seed=0))
        leaves = set(ds.taxonomy.leaves)
        csr = ds.item_tags
        for item in range(ds.n_items):
            tags = set(csr.indices[csr.indptr[item]:csr.indptr[item + 1]])
            assert tags & leaves

    def test_min_interactions_respected(self):
        cfg = SyntheticConfig(n_users=25, n_items=60,
                              mean_interactions=8.0, min_interactions=6,
                              seed=3)
        ds = generate_dataset(cfg)
        counts = np.bincount(ds.user_ids, minlength=cfg.n_users)
        assert (counts >= cfg.min_interactions).all()

    def test_no_duplicate_interactions_per_user(self):
        ds = generate_dataset(SyntheticConfig(n_users=20, n_items=50,
                                              seed=0))
        pairs = set(zip(ds.user_ids.tolist(), ds.item_ids.tolist()))
        assert len(pairs) == ds.n_interactions

    def test_planted_traits_attached(self):
        ds = generate_dataset(SyntheticConfig(n_users=15, n_items=40,
                                              seed=0))
        assert len(ds.user_consistency) == 15
        assert len(ds.user_focus) == 15
        assert (ds.user_consistency >= 0).all()
        assert (ds.user_consistency <= 1).all()

    def test_overlapping_pairs_share_items(self):
        cfg = SyntheticConfig(n_users=20, n_items=200,
                              overlap_pair_frac=0.5,
                              overlap_item_frac=0.9, seed=0)
        ds = generate_dataset(cfg)
        csc = ds.item_tags.tocsc()
        shared_counts = []
        for a, b in ds.overlapping_pairs:
            items_a = set(csc.indices[csc.indptr[a]:csc.indptr[a + 1]])
            items_b = set(csc.indices[csc.indptr[b]:csc.indptr[b + 1]])
            shared_counts.append(len(items_a & items_b))
        assert sum(shared_counts) > 0

    def test_overlapping_pairs_still_extracted_as_exclusive(self):
        """The planted noise: structurally exclusive despite item overlap."""
        cfg = SyntheticConfig(n_users=20, n_items=200,
                              overlap_pair_frac=0.5, seed=0)
        ds = generate_dataset(cfg)
        exclusions = ds.relations.exclusion_set()
        for pair in ds.overlapping_pairs:
            assert frozenset(map(int, pair)) in exclusions


class TestRegistry:
    def test_all_configs_load(self):
        for name in DATASET_CONFIGS:
            ds = load_dataset(name, scale=0.3)
            assert ds.n_interactions > 0
            assert ds.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("netflix")

    def test_density_ordering_mirrors_paper(self):
        """Table I's ordering: ciao is far denser than the Amazon sets."""
        stats = {s["name"]: s for s in dataset_statistics()}
        assert stats["ciao"]["density_pct"] > stats["cd"]["density_pct"]
        assert stats["ciao"]["density_pct"] > stats["book"]["density_pct"]

    def test_tag_richness_ordering(self):
        """Clothing has the most tags and exclusions, ciao the fewest."""
        stats = {s["name"]: s for s in dataset_statistics()}
        assert stats["clothing"]["n_tags"] > stats["cd"]["n_tags"]
        assert stats["clothing"]["n_exclusion"] > stats["cd"]["n_exclusion"]
        assert stats["ciao"]["n_tags"] < stats["cd"]["n_tags"]

    def test_scale_parameter(self):
        small = load_dataset("cd", scale=0.5)
        full = load_dataset("cd")
        assert small.n_users < full.n_users

    def test_seed_override(self):
        a = load_dataset("cd", seed=1)
        b = load_dataset("cd", seed=2)
        assert not np.array_equal(a.item_ids, b.item_ids)


class TestTripletSampler:
    def test_negatives_are_not_positives(self):
        ds = load_dataset("ciao", scale=0.5)
        split = temporal_split(ds)
        sampler = TripletSampler(ds, split.train,
                                 rng=np.random.default_rng(0))
        for users, pos, neg in sampler.epoch(512):
            assert not sampler._is_positive(users, neg).any()

    def test_epoch_covers_all_positives(self):
        ds = load_dataset("ciao", scale=0.5)
        split = temporal_split(ds)
        sampler = TripletSampler(ds, split.train,
                                 rng=np.random.default_rng(0))
        seen = 0
        for users, pos, neg in sampler.epoch(128):
            assert len(users) == len(pos) == len(neg)
            seen += len(users)
        assert seen == len(split.train)

    def test_n_negatives_multiplies_triplets(self):
        ds = load_dataset("ciao", scale=0.5)
        split = temporal_split(ds)
        sampler = TripletSampler(ds, split.train,
                                 rng=np.random.default_rng(0),
                                 n_negatives=3)
        total = sum(len(u) for u, _, _ in sampler.epoch(4096))
        assert total == 3 * len(split.train)

    def test_deterministic_with_seed(self):
        ds = load_dataset("ciao", scale=0.5)
        split = temporal_split(ds)
        def first_batch(seed):
            s = TripletSampler(ds, split.train,
                               rng=np.random.default_rng(seed))
            return next(s.epoch(64))
        u1, p1, n1 = first_batch(9)
        u2, p2, n2 = first_batch(9)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(n1, n2)


class TestPropertyBased:
    @given(st.integers(10, 40), st.integers(20, 80), st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_generator_counts_property(self, n_users, n_items, seed):
        ds = generate_dataset(SyntheticConfig(n_users=n_users,
                                              n_items=n_items, seed=seed))
        assert ds.n_users == n_users
        assert ds.n_items == n_items
        assert ds.user_ids.max() < n_users
        assert ds.item_ids.max() < n_items

    @given(st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_split_partition_property(self, seed):
        ds = generate_dataset(SyntheticConfig(n_users=25, n_items=50,
                                              seed=seed))
        split = temporal_split(ds)
        combined = np.sort(np.concatenate([split.train, split.valid,
                                           split.test]))
        np.testing.assert_array_equal(combined,
                                      np.arange(ds.n_interactions))
