"""Interpretable case studies (Table V).

For selected users of a trained LogiRec++ model, reports the paper's
triple (CON, GR, alpha), the user's tag profile (tags of interacted
items, most-specific first), and the model's top-K recommendations with
their tags — the machine-readable version of Table V's rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.logirec_pp import LogiRecPP
from repro.data import InteractionDataset
from repro.data.dataset import Split


def case_rows(model: LogiRecPP, dataset: InteractionDataset,
              split: Split, user_ids: Optional[Sequence[int]] = None,
              top_k: int = 6, max_tags: int = 5) -> List[Dict]:
    """Table V rows for a trained LogiRec++ model.

    If ``user_ids`` is omitted, picks four contrasting users: highest /
    lowest CON and highest / lowest GR among evaluable users — the same
    contrast the paper's Table V stages.
    """
    weights = model.user_weights()
    train_items = dataset.items_of_user(split.train)
    evaluable = np.array(sorted(u for u, items in train_items.items()
                                if len(items) >= 3))
    if user_ids is None:
        con = weights["con"][evaluable]
        gr = weights["gr"][evaluable]
        picks = [evaluable[int(np.argmax(con))],
                 evaluable[int(np.argmin(con))],
                 evaluable[int(np.argmax(gr))],
                 evaluable[int(np.argmin(gr))]]
        # Deduplicate while preserving order.
        user_ids = list(dict.fromkeys(int(u) for u in picks))

    taxonomy = dataset.taxonomy
    rows: List[Dict] = []
    for u in user_ids:
        seen = train_items.get(u, np.zeros(0, dtype=np.int64))
        profile_tags = _tag_profile(dataset, seen, max_tags)
        recs = model.recommend(u, k=top_k, exclude=seen)
        rec_tags = _tag_profile(dataset, recs, max_tags)
        rows.append({
            "user": int(u),
            "con": float(weights["con"][u]),
            "gr": float(weights["gr"][u]),
            "alpha": float(weights["alpha"][u]),
            "profile_tags": [taxonomy.names[t] for t in profile_tags],
            "recommended_items": [int(i) for i in recs],
            "recommended_tags": [taxonomy.names[t] for t in rec_tags],
        })
    return rows


def _tag_profile(dataset: InteractionDataset, items: np.ndarray,
                 max_tags: int) -> List[int]:
    """Most frequent tags among the items, deepest (most specific) first
    among ties."""
    if len(items) == 0:
        return []
    tag_arrays = dataset.tags_of_items(np.asarray(items))
    all_tags = np.concatenate([a for a in tag_arrays if len(a)]) if any(
        len(a) for a in tag_arrays) else np.zeros(0, dtype=np.int64)
    if len(all_tags) == 0:
        return []
    tags, counts = np.unique(all_tags, return_counts=True)
    depth = dataset.taxonomy.levels[tags]
    order = np.lexsort((-depth, -counts))
    return [int(t) for t in tags[order][:max_tags]]


def format_case_table(rows: List[Dict]) -> str:
    """Render Table V style text."""
    lines = []
    for row in rows:
        lines.append(f"User {row['user']}: CON={row['con']:.2f} "
                     f"GR={row['gr']:.2f} alpha={row['alpha']:.2f}")
        lines.append("  profile tags: " + "; ".join(row["profile_tags"]))
        lines.append("  recommended tags: "
                     + "; ".join(row["recommended_tags"]))
        lines.append("  recommended items: "
                     + ", ".join(map(str, row["recommended_items"])))
    return "\n".join(lines)
