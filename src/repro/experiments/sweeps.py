"""Hyperparameter grid (Table IV) and the tuned base config it varies.

Table IV varies one hyperparameter at a time around the tuned operating
point: graph depth L, logical weight λ, margin m, and dimension d.  The
paper sweeps d over {32, 64, 128} at full data scale; at bench scale the
equivalent capacity sweep is {8, 16, 32}.  The experiment DAG's
``sweep`` and ``lambda`` (Fig. 6) sections train one node per grid
value from :func:`_base_config`.
"""

from __future__ import annotations

from typing import Optional

from repro.core import LogiRecConfig
from repro.experiments.runner import (LAMBDA_BY_DATASET,
                                      LAYERS_BY_DATASET)

# One-at-a-time grids, mirroring Table IV's rows.
HYPERPARAM_GRID = {
    "n_layers": [1, 2, 3, 4],
    "lam": [0.0, 0.01, 0.1, 1.0, 1.5],
    "margin": [0.0, 0.1, 0.5, 1.0],
    "dim": [8, 16, 32],
}


def _base_config(ds_name: str, seed: int, epochs: Optional[int]
                 ) -> LogiRecConfig:
    return LogiRecConfig(dim=16, epochs=epochs if epochs else 300,
                         batch_size=4096, lr=0.01, margin=0.5,
                         n_negatives=2,
                         lam=LAMBDA_BY_DATASET.get(ds_name, 1.0),
                         n_layers=LAYERS_BY_DATASET.get(ds_name, 3),
                         seed=seed)

