"""Byte-identity contract of the synthetic generator.

Same (name, scale, seed) -> same dataset bytes: every seeded test, bench
output and benchmark workload depends on it.  ``_frozen_generate`` below
is the generator's draw loop as it stood when it still called
``rng.choice`` once per draw.  It is kept frozen here, so any rewrite of
``repro.data.synthetic`` must consume the RNG stream exactly as it did:
one call per draw, in the same order, with no bulk redraws.
"""

from dataclasses import replace
from typing import List

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st

from repro.data import DATASET_CONFIGS, SyntheticConfig, load_dataset
from tests.strategies import DETERMINISM_SETTINGS


def _config(name: str, scale: float, seed) -> SyntheticConfig:
    """The config ``load_dataset(name, scale, seed)`` generates from."""
    base = DATASET_CONFIGS[name]
    config = replace(base)
    if scale != 1.0:
        config.n_users = max(20, int(base.n_users * scale))
        config.n_items = max(20, int(base.n_items * scale))
    if seed is not None:
        config.seed = seed
    return config


def _frozen_generate(config: SyntheticConfig) -> dict:
    """The per-draw ``rng.choice`` generator, frozen as the reference."""
    rng = np.random.default_rng(config.seed)
    taxonomy = config.taxonomy()

    # Item-tag memberships with planted sibling overlap.
    leaves = taxonomy.leaves
    n_items, n_tags = config.n_items, taxonomy.n_tags
    primary = rng.choice(leaves, size=n_items)
    rows: List[int] = []
    cols: List[int] = []
    for item in range(n_items):
        leaf = int(primary[item])
        rows.append(item)
        cols.append(leaf)
        for anc in taxonomy.ancestors(leaf):
            if rng.random() < config.ancestor_prob:
                rows.append(item)
                cols.append(anc)
        if rng.random() < config.extra_tag_prob:
            rows.append(item)
            cols.append(int(rng.choice(leaves)))
    sibling_pairs = []
    seen = set()
    for leaf in leaves:
        for sib in taxonomy.siblings(leaf):
            if taxonomy.is_leaf(sib):
                key = (min(leaf, sib), max(leaf, sib))
                if key not in seen:
                    seen.add(key)
                    sibling_pairs.append(key)
    rng.shuffle(sibling_pairs)
    n_overlap = int(len(sibling_pairs) * config.overlap_pair_frac)
    overlapping = sibling_pairs[:n_overlap]
    for a, b in overlapping:
        for item in np.where(primary == a)[0]:
            if rng.random() < config.overlap_item_frac:
                rows.append(int(item))
                cols.append(b)
    q = sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                      shape=(n_items, n_tags)).tocsr()
    q.data[:] = 1.0

    # User traits.
    internal_levels = np.arange(2, taxonomy.depth + 1)
    level_probs = internal_levels.astype(float)
    level_probs = level_probs / level_probs.sum()
    focus_levels = rng.choice(internal_levels, size=config.n_users,
                              p=level_probs)
    focus_nodes = np.zeros(config.n_users, dtype=np.int64)
    for u in range(config.n_users):
        candidates = taxonomy.tags_at_level(int(focus_levels[u]))
        focus_nodes[u] = int(rng.choice(candidates))
    a, b = config.consistency_beta
    consistency = rng.beta(a, b, size=config.n_users)

    # Interactions.
    items_by_leaf = {leaf: np.where(primary == leaf)[0] for leaf in leaves}
    popularity = {}
    for leaf, items in items_by_leaf.items():
        if len(items) == 0:
            continue
        ranks = np.arange(1, len(items) + 1, dtype=float)
        weights = ranks ** (-config.popularity_exponent)
        popularity[leaf] = weights / weights.sum()
    user_ids: List[int] = []
    item_ids: List[int] = []
    timestamps: List[int] = []
    nonempty_leaves = [l for l in leaves if len(items_by_leaf[l])]
    for u in range(config.n_users):
        count = int(np.round(rng.lognormal(
            np.log(config.mean_interactions), config.interaction_spread)))
        count = max(config.min_interactions, count)
        focus_leaves = [l for l in taxonomy.subtree_leaves(int(focus_nodes[u]))
                        if len(items_by_leaf[l])]
        if not focus_leaves:
            focus_leaves = nonempty_leaves
        chosen_items = set()
        t = 0
        attempts = 0
        while len(chosen_items) < count and attempts < count * 10:
            attempts += 1
            if rng.random() < consistency[u]:
                leaf = int(rng.choice(focus_leaves))
            else:
                leaf = int(rng.choice(nonempty_leaves))
            items = items_by_leaf[leaf]
            item = int(rng.choice(items, p=popularity[leaf]))
            if item in chosen_items:
                continue
            chosen_items.add(item)
            user_ids.append(u)
            item_ids.append(item)
            timestamps.append(t)
            t += 1

    return {
        "user_ids": np.asarray(user_ids, dtype=np.int64),
        "item_ids": np.asarray(item_ids, dtype=np.int64),
        "timestamps": np.asarray(timestamps, dtype=np.int64),
        "q.indptr": q.indptr, "q.indices": q.indices, "q.data": q.data,
        "user_focus": focus_nodes,
        "user_focus_level": focus_levels,
        "user_consistency": consistency,
        "overlapping_pairs": overlapping,
    }


@DETERMINISM_SETTINGS
@given(name=st.sampled_from(sorted(DATASET_CONFIGS)),
       scale=st.floats(0.5, 2.0),
       seed=st.none() | st.integers(0, 2**32 - 1))
# The three benchmark workloads' datasets.
@example(name="book", scale=3, seed=None)
@example(name="book", scale=5, seed=1)
@example(name="cd", scale=2, seed=1)
def test_generated_bytes_match_frozen_generator(name, scale, seed):
    ds = load_dataset(name, scale=scale, seed=seed)
    expected = _frozen_generate(_config(name, scale, seed))
    q = ds.item_tags
    actual = {
        "user_ids": ds.user_ids, "item_ids": ds.item_ids,
        "timestamps": ds.timestamps,
        "q.indptr": q.indptr, "q.indices": q.indices, "q.data": q.data,
        "user_focus": ds.user_focus,
        "user_focus_level": ds.user_focus_level,
        "user_consistency": ds.user_consistency,
    }
    for key, array in actual.items():
        want = expected[key]
        assert array.dtype == want.dtype, key
        assert array.shape == want.shape, key
        assert array.tobytes() == want.tobytes(), key
    assert ds.overlapping_pairs == expected["overlapping_pairs"]
