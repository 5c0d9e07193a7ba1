"""Robustness of logical-relation mining to taxonomy corruption.

The paper's motivation for LogiRec++ is that extracted logical relations
are *inaccurate and coarse*.  This experiment makes that quantitative:
corrupt a growing fraction of the taxonomy (rewire child tags to random
parents, which scrambles both hierarchy edges and the derived
exclusions), retrain, and measure how gracefully LogiRec (no mining) and
LogiRec++ (behaviour-driven mining) degrade.

The paper's implied shape: LogiRec++'s advantage over LogiRec *grows*
with noise, because the weighting mechanism lets reliable users' behaviour
override the corrupted relations.  Run it as an
``ExperimentSpec(kind="robustness")``; each fraction's corruption draws
from an independent ``(seed, fraction)``-keyed RNG stream.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.data import InteractionDataset
from repro.taxonomy import Taxonomy, extract_relations


def corrupt_taxonomy(taxonomy: Taxonomy, fraction: float,
                     rng: np.random.Generator) -> Taxonomy:
    """Rewire a fraction of non-root tags to random valid parents.

    A new parent is any tag at the original parent's level (keeping the
    level structure intact so Eq. 12's level weighting stays defined)
    other than the tag itself or its own descendants (no cycles).
    """
    parents = taxonomy.parents.copy()
    non_roots = [t for t in range(taxonomy.n_tags) if parents[t] != -1]
    n_corrupt = int(round(len(non_roots) * fraction))
    victims = rng.choice(non_roots, size=n_corrupt, replace=False)
    for tag in victims:
        old_parent = int(parents[tag])
        level = taxonomy.level(old_parent)
        forbidden = set(taxonomy.descendants(int(tag))) | {int(tag)}
        candidates = [c for c in taxonomy.tags_at_level(level)
                      if c not in forbidden]
        if candidates:
            parents[tag] = int(rng.choice(candidates))
    return Taxonomy(parents, taxonomy.names)


def _with_taxonomy(dataset: InteractionDataset,
                   taxonomy: Taxonomy) -> InteractionDataset:
    """Clone the dataset with a replacement taxonomy + re-extracted
    relations (interactions and Q are untouched)."""
    clone = InteractionDataset(
        user_ids=dataset.user_ids, item_ids=dataset.item_ids,
        timestamps=dataset.timestamps, n_users=dataset.n_users,
        n_items=dataset.n_items, item_tags=dataset.item_tags,
        taxonomy=taxonomy,
        relations=extract_relations(taxonomy, dataset.item_tags),
        name=dataset.name)
    for attr in ("user_focus", "user_focus_level", "user_consistency",
                 "overlapping_pairs"):
        if hasattr(dataset, attr):
            setattr(clone, attr, getattr(dataset, attr))
    return clone


def format_robustness_table(results: Dict[float, Dict[str, dict]],
                            metric: str = "recall@10") -> str:
    lines = [f"Taxonomy-corruption robustness ({metric}, %):",
             "corrupted   LogiRec   LogiRec++   mining gain"]
    for fraction in sorted(results):
        plain = results[fraction]["LogiRec"][metric]
        mined = results[fraction]["LogiRec++"][metric]
        lines.append(f"{fraction:8.0%}   {plain:7.2f}   {mined:9.2f}"
                     f"   {mined - plain:+10.2f}")
    return "\n".join(lines)
