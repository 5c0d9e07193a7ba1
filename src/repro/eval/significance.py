"""Wilcoxon signed-rank significance testing (Table II's ``*`` markers)."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def wilcoxon_improvement(candidate: np.ndarray, baseline: np.ndarray,
                         alpha: float = 0.05) -> Tuple[bool, float]:
    """Test whether ``candidate``'s per-user metrics beat ``baseline``'s.

    Uses the one-sided Wilcoxon signed-rank test over paired per-user
    metric values, as in the paper.  Returns ``(significant, p_value)``.
    Ties on every pair (a degenerate case on tiny data) count as not
    significant.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    if candidate.shape != baseline.shape:
        raise ValueError("paired samples must have identical shape")
    diff = candidate - baseline
    if np.allclose(diff, 0.0):
        return False, 1.0
    from scipy import stats  # ~1 s to import; only this test needs it
    result = stats.wilcoxon(candidate, baseline, alternative="greater",
                            zero_method="wilcox")
    return bool(result.pvalue < alpha), float(result.pvalue)
