"""Tests for LogiRec++'s weighting mechanisms (Eq. 11-14).

The Eq. 11/12 kernel is checked against ``_reference_*`` oracles: the
per-user loops it replaced, kept here verbatim in behaviour.  Under unit
weights the kernel must match them byte for byte; under recency weights
it must stay within the rounding bound stated in DESIGN.md §13.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weighting import (consistency_weights, granularity_weights,
                                  personalized_weights, tag_frequencies)
from repro.taxonomy import LogicalRelations
from tests.strategies import (STANDARD_SETTINGS, exclusion_relations,
                              occurrence_streams, weight_streams)

EPS = np.finfo(np.float64).eps


def _relations(exclusions, levels=None):
    pairs = np.asarray(exclusions, dtype=np.int64).reshape(-1, 2)
    if levels is None:
        levels = np.full(len(pairs), 2, dtype=np.int64)
    return LogicalRelations(
        membership=np.zeros((0, 2), dtype=np.int64),
        hierarchy=np.zeros((0, 2), dtype=np.int64),
        exclusion=pairs,
        exclusion_levels=np.asarray(levels, dtype=np.int64))


def _occurrences(user_tags):
    """Flatten ``{user: tag multiset}`` into the kernel's occurrence arrays."""
    users = [np.full(len(tags), u, dtype=np.int64)
             for u, tags in user_tags.items()]
    tags = [np.asarray(t, dtype=np.int64) for t in user_tags.values()]
    if not users:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(users), np.concatenate(tags)


def _tf_row(tags, n_tags=10):
    """Eq. 11 for one user's tag multiset: row 0 of the TF matrix."""
    users, tags = _occurrences({0: tags})
    return tag_frequencies(users, tags, 1, n_tags)[0]


# ----------------------------------------------------------------------
# Reference oracles: the per-user loops the kernel replaced
# ----------------------------------------------------------------------
def _reference_tag_frequencies(tag_list):
    total = len(tag_list)
    if total <= 1:
        return {}
    denom = np.log(total)
    tags, counts = np.unique(tag_list, return_counts=True)
    return {int(t): float(np.log(c + 1.0) / denom)
            for t, c in zip(tags, counts)}


def _reference_weighted_tag_frequencies(tags, weights):
    total = float(np.sum(weights))
    if len(tags) <= 1 or total <= 1.0:
        return {}
    denom = np.log(total)
    return {int(t): float(np.log(float(np.sum(weights[tags == t])) + 1.0)
                          / denom)
            for t in np.unique(tags)}


def _reference_penalty_loop(tf_by_user, relations, n_users, eta):
    con = np.ones(n_users, dtype=np.float64)
    if len(relations.exclusion) == 0:
        return con
    pairs = relations.exclusion
    levels = (relations.exclusion_levels
              if len(relations.exclusion_levels) == len(pairs)
              else np.full(len(pairs), eta, dtype=np.int64))
    level_factor = np.exp(eta - levels.astype(np.float64))
    for u, tf in tf_by_user.items():
        if not tf:
            continue
        present = set(tf)
        penalty = 0.0
        for (t_i, t_j), factor in zip(pairs, level_factor):
            if int(t_i) in present and int(t_j) in present:
                penalty += tf[int(t_i)] * tf[int(t_j)] * factor
        con[u] = np.exp(-penalty)
    return con


def _reference_consistency(users, tags, relations, n_users, eta=4):
    """Offline Eq. 12 over ``{user: T_u}`` built from the occurrences."""
    tf = {int(u): _reference_tag_frequencies(tags[users == u])
          for u in np.unique(users)}
    return _reference_penalty_loop(tf, relations, n_users, eta)


def _reference_weighted_consistency(users, tags, weights, relations,
                                    n_users, eta=4):
    """Recency-weighted Eq. 12: weighted counts summed with ``np.sum``."""
    tf = {int(u): _reference_weighted_tag_frequencies(
              tags[users == u], weights[users == u])
          for u in np.unique(users)}
    return _reference_penalty_loop(tf, relations, n_users, eta)


def _design_bound(users, tags, weights, relations, u):
    """DESIGN.md §13: rho_u, or None when its condition does not hold.

    rho_u = eps * (2 n_u / ln W_u + 2 n_u + 2 / ln(1 + c_u) + p + 13),
    with n_u the user's occurrences, W_u their exact total weight, c_u
    the smallest positive weighted count among tags of exclusive pairs
    the user holds, and p the number of exclusion pairs.  It applies
    while rho_u <= 1/4.
    """
    mine = users == u
    n_u = int(mine.sum())
    total = math.fsum(weights[mine])
    if n_u <= 1 or total <= 1.0:
        return None
    held = set(tags[mine].tolist())
    counts = [math.fsum(weights[mine & (tags == t)])
              for pair in relations.exclusion
              if {int(pair[0]), int(pair[1])} <= held
              for t in pair]
    counts = [c for c in counts if c > 0.0]
    cond_c = 2.0 / math.log1p(min(counts)) if counts else 0.0
    rho = EPS * (2 * n_u / math.log(total) + 2 * n_u + cond_c
                 + len(relations.exclusion) + 13)
    return rho if rho <= 0.25 else None


class TestTagFrequencies:
    def test_formula(self):
        tags = np.array([1, 1, 2])
        tf = _tf_row(tags)
        assert tf[1] == pytest.approx(np.log(3) / np.log(3))
        assert tf[2] == pytest.approx(np.log(2) / np.log(3))

    def test_empty_and_singleton(self):
        assert not _tf_row(np.array([])).any()
        assert not _tf_row(np.array([5])).any()

    def test_more_frequent_tag_higher_tf(self):
        tf = _tf_row(np.array([1, 1, 1, 2]))
        assert tf[1] > tf[2]


class TestConsistency:
    def test_no_exclusions_gives_one(self):
        rel = _relations(np.zeros((0, 2)))
        con = consistency_weights(*_occurrences({0: np.array([1, 2, 3])}),
                                  rel, 1)
        np.testing.assert_allclose(con, 1.0)

    def test_user_without_exclusive_tags_gets_one(self):
        rel = _relations([[1, 2]])
        con = consistency_weights(*_occurrences({0: np.array([3, 4, 5])}),
                                  rel, 1)
        assert con[0] == pytest.approx(1.0)

    def test_exclusive_pair_lowers_consistency(self):
        rel = _relations([[1, 2]])
        consistent = consistency_weights(
            *_occurrences({0: np.array([1, 1, 3])}), rel, 2)
        diverse = consistency_weights(
            *_occurrences({1: np.array([1, 2, 1, 2])}), rel, 2)
        assert diverse[1] < consistent[0]
        assert consistent[0] == pytest.approx(1.0)  # pair not co-present

    def test_lower_level_exclusion_penalized_harder(self):
        """Eq. 12's exp(eta - k): an abstract (level-2) conflict hurts
        more than a deep (level-4) one."""
        tags = {0: np.array([1, 2, 1, 2])}
        shallow = consistency_weights(*_occurrences(tags),
                                      _relations([[1, 2]], [2]), 1, eta=4)
        deep = consistency_weights(*_occurrences(tags),
                                   _relations([[1, 2]], [4]), 1, eta=4)
        assert shallow[0] < deep[0]

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(0)
        tags = {u: rng.integers(0, 10, size=20) for u in range(5)}
        rel = _relations([[i, j] for i in range(10) for j in
                          range(i + 1, 10)])
        con = consistency_weights(*_occurrences(tags), rel, 5)
        assert (con > 0).all()
        assert (con <= 1).all()

    def test_missing_users_default_one(self):
        rel = _relations([[1, 2]])
        con = consistency_weights(*_occurrences({}), rel, 3)
        np.testing.assert_allclose(con, 1.0)


class TestKernelAgainstReference:
    """The one Eq. 11/12 kernel against the per-user loops it replaced."""

    @given(st.data())
    @STANDARD_SETTINGS
    def test_unit_weights_match_reference_bytes(self, data):
        relations = data.draw(exclusion_relations())
        users, tags, n_users = data.draw(occurrence_streams(n_tags=12))
        eta = data.draw(st.integers(0, 6))
        reference = _reference_consistency(users, tags, relations,
                                           n_users, eta)
        unit = consistency_weights(users, tags, relations, n_users,
                                   eta=eta)
        ones = consistency_weights(users, tags, relations, n_users,
                                   eta=eta, weights=np.ones(len(users)))
        weighted_reference = _reference_weighted_consistency(
            users, tags, np.ones(len(users)), relations, n_users, eta)
        assert unit.tobytes() == reference.tobytes()
        assert ones.tobytes() == reference.tobytes()
        assert weighted_reference.tobytes() == reference.tobytes()

    @given(st.data())
    @STANDARD_SETTINGS
    def test_recency_weights_within_design_bound(self, data):
        relations = data.draw(exclusion_relations())
        users, tags, n_users = data.draw(occurrence_streams(n_tags=12))
        weights = data.draw(weight_streams(users))
        eta = data.draw(st.integers(0, 6))
        con = consistency_weights(users, tags, relations, n_users,
                                  eta=eta, weights=weights)
        reference = _reference_weighted_consistency(
            users, tags, weights, relations, n_users, eta)
        assert np.all((con >= 0.0) & (con <= 1.0))
        for u in range(n_users):
            mine = users == u
            n_u = int(mine.sum())
            if n_u <= 1 or math.fsum(weights[mine]) <= 1.0 - 2 * n_u * EPS:
                # Degenerate under every summation order.
                assert con[u] == reference[u] == 1.0
                continue
            rho = _design_bound(users, tags, weights, relations, u)
            if rho is None or reference[u] < np.finfo(np.float64).tiny:
                continue
            penalty = -np.log(reference[u])
            assert (abs(np.log(con[u]) - np.log(reference[u]))
                    <= rho * penalty + 2 * EPS)


class TestGranularity:
    def test_origin_zero(self):
        origin = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(granularity_weights(origin), 0.0)

    def test_monotone_in_time_coordinate(self):
        points = np.array([[1.0, 0.0], [2.0, np.sqrt(3.0)],
                           [5.0, np.sqrt(24.0)]])
        gr = granularity_weights(points)
        assert gr[0] < gr[1] < gr[2]

    def test_equals_arccosh_of_x0(self):
        pts = np.array([[3.0, np.sqrt(8.0)]])
        assert granularity_weights(pts)[0] == pytest.approx(np.arccosh(3))


class TestPersonalizedWeights:
    def test_geometric_mean(self):
        alpha = personalized_weights(np.array([0.81]), np.array([0.25]),
                                     normalize=False, clip=None)
        assert alpha[0] == pytest.approx(np.sqrt(0.81 * 0.25))

    def test_normalization_mean_one(self):
        rng = np.random.default_rng(1)
        con = rng.uniform(0.1, 1.0, 50)
        gr = rng.uniform(0.1, 2.0, 50)
        alpha = personalized_weights(con, gr)
        assert alpha.mean() == pytest.approx(1.0, rel=1e-6)

    def test_clip_bounds_dynamic_range(self):
        con = np.array([1e-9, 1.0])
        gr = np.array([1e-9, 1.0])
        alpha = personalized_weights(con, gr, clip=(0.3, 3.0))
        # Dynamic range bounded by the clip ratio even after renormalizing.
        assert alpha.max() / alpha.min() <= 10.0 + 1e-9
        assert (alpha > 0).all()

    def test_ablation_switches(self):
        con = np.array([0.5, 1.0])
        gr = np.array([1.0, 1.0])
        only_gr = personalized_weights(con, gr, use_consistency=False,
                                       normalize=False, clip=None)
        np.testing.assert_allclose(only_gr, 1.0)
        only_con = personalized_weights(con, gr, use_granularity=False,
                                        normalize=False, clip=None)
        np.testing.assert_allclose(only_con, np.sqrt(con))

    def test_ordering_preserved_by_clip(self):
        rng = np.random.default_rng(2)
        con = rng.uniform(0.01, 1.0, 30)
        gr = rng.uniform(0.1, 2.0, 30)
        raw = personalized_weights(con, gr, normalize=False, clip=None)
        clipped = personalized_weights(con, gr)
        # Where the clip does not bind, ordering must match.
        order_raw = np.argsort(raw)
        assert (np.diff(clipped[order_raw]) >= -1e-12).all()


class TestPropertyBased:
    @given(st.lists(st.integers(0, 5), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_tf_bounded(self, tags):
        tf = _tf_row(np.asarray(tags))
        for value in tf[np.unique(tags)]:
            assert 0 < value <= np.log(len(tags) + 1) / np.log(len(tags))

    @given(st.integers(1, 8), st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_alpha_positive(self, n_users, seed):
        rng = np.random.default_rng(seed)
        con = rng.uniform(0.0, 1.0, n_users)
        gr = rng.uniform(0.0, 3.0, n_users)
        alpha = personalized_weights(con, gr)
        assert (alpha > 0).all()
