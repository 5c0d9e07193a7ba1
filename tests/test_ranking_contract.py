"""The serving ranking contract (DESIGN.md §8).

The engine scores a micro-batch with one GEMM; ``recommend`` scores a
``(1, d)`` row.  The two may differ in the last ulp, so the contract is
on rankings: for every user the engine's top-K equals ``recommend``'s
under the tie rule (descending score, ties by ascending item id), with
one named exception, near-ties — items whose one-row scores lie within
a few ulps of each other may come out in either order.

* A hypothesis property over all 8 score kinds draws users, batch sizes
  and batch membership and checks every served list against
  ``recommend``.
* Exact ties are constructed from dyadic tables with duplicated item
  rows: every sum is exact, so batched and one-row scores are the same
  bytes, and the tie rule must hold to the letter.
* Near-ties are constructed one ulp apart; the checker accepts them in
  either order and nothing wider.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import SyntheticConfig, generate_dataset, temporal_split
from repro.eval.metrics import topk_indices
from repro.experiments.runner import build_model
from repro.manifolds import score_rows
from repro.serve import RecommendService, ServiceConfig, build_index
from repro.serve.engine import INDEX, UNKNOWN
from repro.serve.index import RetrievalIndex

from tests.strategies.settings import STANDARD_SETTINGS

# One trained model per score kind (LogiRec++ is the paper's model).
KIND_MODELS = {"dot": "AMF", "dot_bias": "BPRMF", "neg_sq_dist": "CML",
               "neg_dist": "TransC", "lorentz": "LogiRec++",
               "poincare": "HyperML", "gdcf_mix": "GDCF",
               "dense": "NeuMF"}

# How far apart (in ulps of the larger magnitude) two one-row scores may
# be and still count as a near-tie.
NEAR_TIE_ULPS = 8


def same_topk(served, expected, scores) -> bool:
    """The contract's comparison of two top-K lists of one user.

    Equal lists pass.  Otherwise every position where they differ must
    hold two items whose ``scores`` (the one-row reference) are a
    near-tie.
    """
    served, expected = list(served), list(expected)
    if served == expected:
        return True
    if len(served) != len(expected):
        return False
    for a, b in zip(served, expected):
        if a == b:
            continue
        gap = abs(scores[a] - scores[b])
        if not gap <= NEAR_TIE_ULPS * np.spacing(
                max(abs(scores[a]), abs(scores[b]))):
            return False
    return True


@pytest.fixture(scope="module")
def served():
    """``{kind: (model, index)}`` over one small synthetic dataset."""
    ds = generate_dataset(SyntheticConfig(
        n_users=60, n_items=80, depth=2, branching=3,
        mean_interactions=8.0, seed=3))
    split = temporal_split(ds)
    out = {}
    for kind, name in KIND_MODELS.items():
        model = build_model(name, ds, seed=1)
        model.config.epochs = 1
        model.fit(ds, split)
        index = build_index(model, ds, split)
        assert index.kind == kind, name
        out[kind] = (model, index)
    return out


class TestEngineMatchesRecommend:
    @STANDARD_SETTINGS
    @given(kind=st.sampled_from(sorted(KIND_MODELS)),
           users=st.lists(st.integers(0, 59), min_size=1, max_size=64),
           k=st.sampled_from([1, 5, 10, 20]),
           chunk=st.sampled_from([1, 3, 16, 256]))
    def test_every_user_gets_recommends_list(self, served, kind, users,
                                             k, chunk):
        model, index = served[kind]
        engine = RecommendService(
            index, ServiceConfig(k=k, cache_size=0, batch_size=chunk))
        for uid, result in zip(users, engine.query_batch(users)):
            assert result["source"] == "index"
            expected = model.recommend(uid, k,
                                       exclude=index.seen_items(uid))
            scores = model.score_users(np.array([uid]))[0]
            assert same_topk(result["items"], expected, scores), \
                (kind, uid, result["items"], expected.tolist())

    def test_rank_batch_rows_and_codes(self, served):
        model, index = served["lorentz"]
        engine = RecommendService(index, ServiceConfig(k=5, cache_size=0))
        users = [4, 7, 4, index.n_users + 3]
        items, codes = engine.rank_batch(users)
        assert items.dtype == np.int64 and items.shape == (4, 5)
        assert codes.tolist() == [INDEX, INDEX, INDEX, UNKNOWN]
        assert np.array_equal(items[0], items[2])
        assert items[3].tolist() == index.popularity[:5].tolist()


def _tied_index(kind: str, rng) -> RetrievalIndex:
    """A ``kind`` index of dyadic tables whose items come in equal pairs.

    Every value is a multiple of 1/8 below 1 in magnitude, so each GEMM
    entry is exact whatever the blocking: batched rows equal one-row
    rows byte for byte, and items ``2j`` and ``2j + 1`` tie exactly.
    """
    n_users, n_pairs, dim = 12, 15, 4

    def table(n, cols):
        return rng.integers(-7, 8, size=(n, cols)) / 8.0

    def items(cols):
        return np.repeat(table(n_pairs, cols), 2, axis=0)

    if kind == "dense":
        arrays = {"scores": np.repeat(table(n_users, n_pairs), 2, axis=1)}
    elif kind == "gdcf_mix":
        arrays = {"user_h": table(n_users, dim), "item_h": items(dim),
                  "user_e": table(n_users, dim), "item_e": items(dim)}
    else:
        arrays = {"user": table(n_users, dim), "item": items(dim)}
        if kind == "dot_bias":
            arrays["bias"] = np.repeat(table(1, n_pairs)[0], 2)
    scalars = {"mix": 0.5} if kind == "gdcf_mix" else {}
    indptr = np.arange(n_users + 1, dtype=np.int64)    # one seen item
    seen = rng.integers(0, 2 * n_pairs, size=n_users).astype(np.int64)
    return RetrievalIndex(
        kind=kind, arrays=arrays, scalars=scalars, train_indptr=indptr,
        train_indices=seen,
        popularity=np.arange(2 * n_pairs, dtype=np.int64),
        meta={"n_users": n_users, "n_items": 2 * n_pairs})


class TestTies:
    @pytest.mark.parametrize("kind", sorted(KIND_MODELS))
    def test_exact_ties_break_by_ascending_item_id(self, kind):
        index = _tied_index(kind, np.random.default_rng(7))
        engine = RecommendService(index, ServiceConfig(k=9, cache_size=0))
        users = list(range(index.n_users)) * 2
        spec = {"kind": kind, **index.arrays, **index.scalars}
        batched = index.score_users(users)
        for pos, (uid, result) in enumerate(
                zip(users, engine.query_batch(users))):
            row = score_rows(spec, [uid])[0]
            assert row.tobytes() == batched[pos].tobytes()
            row[index.seen_items(uid)] = -np.inf
            assert result["items"] == topk_indices(row, 9).tolist()
            ranked = result["items"]
            for a, b in zip(ranked, ranked[1:]):
                # Descending score; equal scores ascend by item id.
                assert row[a] > row[b] or (row[a] == row[b] and a < b)

    def test_near_ties_may_swap_and_nothing_wider(self):
        scores = np.array([1.0, np.nextafter(1.0, 2.0), 0.5, 0.25])
        # Items 0 and 1 lie one ulp apart: either order is served.
        assert same_topk([1, 0, 2], [0, 1, 2], scores)
        assert same_topk([0, 1, 2], [1, 0, 2], scores)
        # A near-tie at the K boundary swaps which item is in the list.
        assert same_topk([2, 0], [2, 1], scores)
        # Anything wider than a few ulps is a real difference.
        assert not same_topk([2, 1, 0], [1, 0, 2], scores)
        assert not same_topk([0, 1, 3], [0, 1, 2], scores)

    def test_near_tied_items_are_served_within_the_rule(self):
        # Item 1 scores one ulp above item 0 for every user: the served
        # order of that pair is the one thing the contract leaves open,
        # and every list must still pass the checker.
        scores = np.random.default_rng(3).normal(size=(16, 10))
        scores[:, 1] = np.nextafter(scores[:, 0], np.inf)
        index = RetrievalIndex(
            kind="dense", arrays={"scores": scores}, scalars={},
            train_indptr=np.zeros(17, dtype=np.int64),
            train_indices=np.zeros(0, dtype=np.int64),
            popularity=np.arange(10, dtype=np.int64),
            meta={"n_users": 16, "n_items": 10})
        engine = RecommendService(index, ServiceConfig(k=10, cache_size=0))
        for uid, result in enumerate(engine.query_batch(range(16))):
            row = scores[uid]
            assert same_topk(result["items"], topk_indices(row, 10), row)
            served = result["items"]
            assert abs(served.index(0) - served.index(1)) == 1
