"""Ablation study of LogiRec++ (Table III).

Variants map one-to-one onto the paper's list, plus the two extra
ablations DESIGN.md calls out (CON-only / GR-only weighting):

* ``w/o L_Mem``  — membership loss disabled
* ``w/o L_Hie``  — hierarchy loss disabled
* ``w/o L_Ex``   — exclusion loss disabled
* ``w/o HGCN``   — graph convolution disabled (L = 0)
* ``w/o LRM``    — no relation mining, i.e. plain LogiRec
* ``w/o Hyper``  — everything projected to Euclidean space
* ``CON-only`` / ``GR-only`` — one weighting mechanism at a time

Run them as an ``ExperimentSpec(kind="ablation")``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.core import LogiRec, LogiRecConfig, LogiRecPP
from repro.data import InteractionDataset


def _variant_model(variant: str, dataset: InteractionDataset,
                   config: LogiRecConfig):
    """Build the model for one ablation variant."""
    if variant == "LogiRec++":
        return LogiRecPP(dataset.n_users, dataset.n_items, dataset.n_tags,
                         config)
    if variant == "w/o L_Mem":
        cfg = replace(config, use_membership=False)
    elif variant == "w/o L_Hie":
        cfg = replace(config, use_hierarchy=False)
    elif variant == "w/o L_Ex":
        cfg = replace(config, use_exclusion=False)
    elif variant == "w/o HGCN":
        cfg = replace(config, n_layers=0)
    elif variant == "w/o Hyper":
        cfg = replace(config, hyperbolic=False)
    elif variant == "CON-only":
        cfg = replace(config, use_granularity=False)
    elif variant == "GR-only":
        cfg = replace(config, use_consistency=False)
    elif variant == "w/o LRM":
        return LogiRec(dataset.n_users, dataset.n_items, dataset.n_tags,
                       config)
    else:
        raise KeyError(f"unknown ablation variant {variant!r}")
    return LogiRecPP(dataset.n_users, dataset.n_items, dataset.n_tags, cfg)


ABLATIONS = ["LogiRec++", "w/o L_Mem", "w/o L_Hie", "w/o L_Ex",
             "w/o HGCN", "w/o LRM", "w/o Hyper", "CON-only", "GR-only"]


def format_ablation_table(results: Dict[str, dict]) -> str:
    """Render Table III style rows."""
    lines = []
    for ds_name, variants in results.items():
        lines.append(f"=== {ds_name} ===")
        metrics = sorted(next(iter(variants.values())))
        lines.append("variant".ljust(12)
                     + "".join(m.rjust(12) for m in metrics))
        for variant, store in variants.items():
            cells = "".join(f"{store[m]:10.2f}".rjust(12) for m in metrics)
            lines.append(variant.ljust(12) + cells)
        lines.append("")
    return "\n".join(lines)
