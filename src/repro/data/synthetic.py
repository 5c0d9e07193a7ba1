"""Synthetic dataset generator with planted logical structure.

The generator builds, in order:

1. a tag **taxonomy** (forest of given depth/branching, default depth 4 to
   match the paper's η);
2. **item-tag memberships**: every item belongs to one primary leaf tag and
   inherits that leaf's ancestors with probability ``ancestor_prob`` (so
   items average 2-3 memberships, matching Table I's ratios); a fraction of
   sibling leaf pairs is made to **overlap** (shared items) — these are the
   pairs the structural exclusion rule mislabels, i.e. the exact noise
   LogiRec++'s relation mining is designed to repair;
3. **users** with two latent traits the paper's weighting mechanisms key on:
   *granularity* (the taxonomy level of the user's focus node — deeper means
   finer preferences) and *consistency* (the probability an interaction
   stays inside the focus subtree rather than jumping to a random leaf);
4. **interactions** with popularity bias within each chosen leaf and
   per-user sequential timestamps.

Because the traits are planted, downstream analyses (Fig. 5, Table V) have
ground truth to validate against.

Per-draw picks call ``rng.integers``/``rng.random`` rather than
``rng.choice``, which re-checks its arguments and rebuilds the CDF on
every call but draws the same RNG stream (DESIGN.md §6).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import InteractionDataset
from repro.taxonomy import Taxonomy, extract_relations


@dataclass
class SyntheticConfig:
    """Knobs of the synthetic generator.

    The defaults produce a CD-like dataset at bench scale.
    """

    name: str = "synthetic"
    n_users: int = 200
    n_items: int = 150
    depth: int = 4              # taxonomy levels (paper's η)
    branching: int = 3          # children per internal tag
    n_roots: int = 2            # top-level genres
    ancestor_prob: float = 0.7  # chance an item inherits each ancestor tag
    extra_tag_prob: float = 0.1  # chance of one extra random leaf tag
    overlap_pair_frac: float = 0.2  # sibling leaf pairs made to overlap
    overlap_item_frac: float = 0.3  # items of such pairs carrying both tags
    mean_interactions: float = 22.0  # per-user mean (lognormal)
    interaction_spread: float = 0.35  # lognormal sigma of per-user counts
    popularity_exponent: float = 0.5  # within-leaf popularity bias
    consistency_beta: tuple = (6.0, 1.2)  # Beta(a,b) over user consistency
    min_interactions: int = 6
    seed: int = 0

    def taxonomy(self) -> Taxonomy:
        return Taxonomy.balanced(self.depth, self.branching, self.n_roots)


def _assign_item_tags(config: SyntheticConfig, taxonomy: Taxonomy,
                      rng: np.random.Generator) -> sp.csr_matrix:
    """Build the item-tag matrix Q with planted sibling overlap."""
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
            cols.append(leaves[int(rng.integers(0, len(leaves)))])

    # Plant overlapping sibling pairs: items of one leaf also get its
    # sibling's tag.  The structural rule will still call the pair
    # "exclusive" (no common child tag), which is the inaccuracy the
    # paper's relation mining repairs.
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
        items_a = np.where(primary == a)[0]
        for item in items_a:
            if rng.random() < config.overlap_item_frac:
                rows.append(int(item))
                cols.append(b)

    data = np.ones(len(rows))
    q = sp.coo_matrix((data, (rows, cols)), shape=(n_items, n_tags)).tocsr()
    q.data[:] = 1.0
    return q, primary, overlapping


def _user_traits(config: SyntheticConfig, taxonomy: Taxonomy,
                 rng: np.random.Generator):
    """Sample each user's focus node, granularity level, and consistency."""
    internal_levels = np.arange(2, taxonomy.depth + 1)
    # Deeper focus = finer granularity; skew toward mid levels.
    level_probs = internal_levels.astype(float)
    level_probs = level_probs / level_probs.sum()
    focus_levels = rng.choice(internal_levels, size=config.n_users,
                              p=level_probs)
    candidates = {level: taxonomy.tags_at_level(level)
                  for level in range(2, taxonomy.depth + 1)}
    focus_nodes = np.zeros(config.n_users, dtype=np.int64)
    for u in range(config.n_users):
        pool = candidates[int(focus_levels[u])]
        focus_nodes[u] = pool[int(rng.integers(0, len(pool)))]
    a, b = config.consistency_beta
    consistency = rng.beta(a, b, size=config.n_users)
    return focus_nodes, focus_levels, consistency


def generate_dataset(config: SyntheticConfig,
                     rng: Optional[np.random.Generator] = None
                     ) -> InteractionDataset:
    """Generate an :class:`InteractionDataset` from a config.

    The returned dataset carries extra attributes used by analysis code:
    ``user_focus``, ``user_focus_level``, ``user_consistency`` (planted
    traits) and ``overlapping_pairs`` (the mislabelled-exclusive tag pairs).
    """
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    taxonomy = config.taxonomy()
    q, primary, overlapping = _assign_item_tags(config, taxonomy, rng)
    focus_nodes, focus_levels, consistency = _user_traits(config, taxonomy,
                                                          rng)
    # Within-leaf popularity: Zipf-like weights per item, held as the
    # CDF ``rng.choice(items, p=weights)`` would build from them.
    by_leaf = {}
    for leaf in taxonomy.leaves:
        items = np.where(primary == leaf)[0]
        if len(items) == 0:
            continue
        ranks = np.arange(1, len(items) + 1, dtype=float)
        weights = ranks ** (-config.popularity_exponent)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        by_leaf[leaf] = (items.tolist(), cdf.tolist())
    nonempty_leaves = list(by_leaf)
    focus_pools = {}

    user_ids: List[int] = []
    item_ids: List[int] = []
    timestamps: List[int] = []
    random, integers = rng.random, rng.integers
    log_mean = np.log(config.mean_interactions)

    for u in range(config.n_users):
        count = int(round(rng.lognormal(log_mean,
                                        config.interaction_spread)))
        count = max(config.min_interactions, count)
        focus = int(focus_nodes[u])
        if focus not in focus_pools:
            focus_pools[focus] = [l for l in taxonomy.subtree_leaves(focus)
                                  if l in by_leaf] or nonempty_leaves
        focus_leaves = focus_pools[focus]
        stay = float(consistency[u])
        chosen = {}  # ordered set: a repeated pick changes nothing
        for _ in range(count * 10):
            if len(chosen) >= count:
                break
            pool = focus_leaves if random() < stay else nonempty_leaves
            items, cdf = by_leaf[pool[integers(0, len(pool))]]
            chosen[items[bisect_right(cdf, random())]] = None
        user_ids.extend([u] * len(chosen))
        item_ids.extend(chosen)
        timestamps.extend(range(len(chosen)))

    dataset = InteractionDataset(
        user_ids=np.asarray(user_ids),
        item_ids=np.asarray(item_ids),
        timestamps=np.asarray(timestamps),
        n_users=config.n_users,
        n_items=config.n_items,
        item_tags=q,
        taxonomy=taxonomy,
        relations=extract_relations(taxonomy, q),
        name=config.name,
    )
    # Planted ground truth for analyses (Fig. 5, Table V, case studies).
    dataset.user_focus = focus_nodes
    dataset.user_focus_level = focus_levels
    dataset.user_consistency = consistency
    dataset.overlapping_pairs = overlapping
    return dataset
