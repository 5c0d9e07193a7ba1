"""Tag-occurrence streams and per-occurrence weights (Eq. 11 inputs)."""

import numpy as np
from hypothesis import strategies as st

from repro.online import recency_weights

# Offsets of a user's total weight from 1.0: from rounding-level, where
# log W_u is ill-conditioned and the degenerate rule W_u <= 1 is decided
# by the last bit, up to clearly away from 1.
_NEAR_ONE = st.sampled_from([-1e-3, -1e-9, -4e-16, 0.0, 2e-16, 1e-15,
                             1e-13, 1e-11, 1e-9, 1e-6, 1e-3])


@st.composite
def occurrence_streams(draw, n_tags: int, max_users: int = 6,
                       max_occurrences: int = 60):
    """``(users, tags, n_users)``: one entry per (interaction, tag) pair."""
    n_users = draw(st.integers(1, max_users))
    size = draw(st.integers(0, max_occurrences))
    users = draw(st.lists(st.integers(0, n_users - 1), min_size=size,
                          max_size=size))
    tags = draw(st.lists(st.integers(0, n_tags - 1), min_size=size,
                         max_size=size))
    return (np.asarray(users, dtype=np.int64),
            np.asarray(tags, dtype=np.int64), n_users)


@st.composite
def weight_streams(draw, users: np.ndarray) -> np.ndarray:
    """Recency weights aligned with ``users``.

    Each occurrence gets ``0.5 ** (age / half_life)`` from a drawn
    timestamp stream, so weights lie in (2**-300, 1]; some users' weights are then rescaled so their
    total W_u lands a drawn offset away from 1.0.
    """
    n = len(users)
    steps = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    half_life = draw(st.floats(1.0, 100.0))
    weights = recency_weights(np.cumsum(steps, dtype=np.int64), half_life)
    for u in np.unique(users):
        if draw(st.booleans()):
            mine = users == u
            weights[mine] *= (1.0 + draw(_NEAR_ONE)) / weights[mine].sum()
    return weights
