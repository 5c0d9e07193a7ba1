"""LogiRec++'s behaviour-driven weighting mechanisms (Section V).

* :func:`tag_frequencies` — normalized tag frequency TF (Eq. 11) for
  every user and tag at once;
* :func:`consistency_weights` — CON_u from the user's exclusive tag pairs,
  weighted by level (Eq. 12): fewer / lower-level exclusions among a user's
  tags mean more consistent preferences and a CON closer to 1;
* :func:`granularity_weights` — GR_u, the Lorentzian distance of the user
  embedding from the origin (Eq. 13): finer-grained users sit farther out;
* :func:`personalized_weights` — alpha_u = sqrt(CON_u * GR_u) (Eq. 14).

Eq. 11/12 have this one definition, for offline training and online
fine-tuning alike.  Both take the tag multisets T_u as flat occurrence
arrays (:meth:`repro.data.InteractionDataset.tag_occurrences`) with
optional per-occurrence weights: unit weights (``None``) give the
paper's counts, recency weights give the online variant in which stale
interactions count for less.  DESIGN.md §13 states how closely a
weighted CON matches a per-user summation order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.taxonomy import LogicalRelations


def tag_frequencies(users: np.ndarray, tags: np.ndarray, n_users: int,
                    n_tags: int,
                    weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Eq. 11: TF(t_i, T_u) = log(|T_{u,i}| + 1) / log(|T_u|).

    ``users``/``tags`` list the tag occurrences (one entry per
    interaction and carried tag); ``weights``, when given, replaces each
    occurrence's count of 1, so |T_{u,i}| and |T_u| become weighted sums.
    Returns the ``(n_users, n_tags)`` matrix, 0 where the user never
    touched the tag.  A user with at most one occurrence or a total
    weight |T_u| <= 1 has a degenerate denominator, carries no exclusion
    evidence and gets an all-zero row (CON falls back to 1).
    """
    users = np.asarray(users, dtype=np.int64)
    tags = np.asarray(tags, dtype=np.int64)
    n_occurrences = np.bincount(users, minlength=n_users)
    total = (n_occurrences if weights is None
             else np.bincount(users, weights=weights, minlength=n_users))
    # Tag-major, so the transposed result has contiguous tag columns.
    counts = np.bincount(tags * n_users + users, weights=weights,
                         minlength=n_tags * n_users
                         ).reshape(n_tags, n_users)
    valid = (n_occurrences > 1) & (total > 1.0)
    tf = np.zeros((n_tags, n_users), dtype=np.float64)
    tf[:, valid] = np.log(counts[:, valid] + 1.0) / np.log(total[valid])
    return tf.T


def consistency_weights(users: np.ndarray, tags: np.ndarray,
                        relations: LogicalRelations, n_users: int,
                        eta: int = 4,
                        weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Eq. 12: CON_u for every user.

    CON_u = exp(-sum over exclusive pairs (t_i, t_j) both in T_u of
    TF(t_i) * TF(t_j) * exp(eta - k)), where k is the pair's taxonomy
    level — low-level (abstract) exclusions are penalized harder via
    ``exp(eta - k)``, and the per-pair TF product captures how often the
    user actually touched the conflicting tags.  The occurrence arrays
    and ``weights`` are as in :func:`tag_frequencies`.

    Each user's penalty is summed in exclusion-pair order and a pair the
    user lacks adds an exact +0.0, so unit weights reproduce a per-user
    loop bit for bit.  Weighted counts are summed in occurrence order;
    DESIGN.md §13 bounds the difference from any other order.
    """
    pairs = relations.exclusion
    if len(pairs) == 0 or len(tags) == 0:
        return np.ones(n_users, dtype=np.float64)
    levels = (relations.exclusion_levels
              if len(relations.exclusion_levels) == len(pairs)
              else np.full(len(pairs), eta, dtype=np.int64))
    level_factor = np.exp(eta - levels.astype(np.float64))
    n_tags = int(max(np.max(tags), np.max(pairs))) + 1
    tf = tag_frequencies(users, tags, n_users, n_tags, weights)
    penalty = np.zeros(n_users, dtype=np.float64)
    for (t_i, t_j), factor in zip(pairs, level_factor):
        penalty += tf[:, t_i] * tf[:, t_j] * factor
    return np.exp(-penalty)


def granularity_weights(user_lorentz: np.ndarray) -> np.ndarray:
    """Eq. 13: GR_u = arcosh(-<o, u>_L) = arcosh(u_0), the distance of the
    user's Lorentz embedding from the origin."""
    time = np.maximum(user_lorentz[..., 0], 1.0)
    return np.arccosh(time)


def personalized_weights(con: np.ndarray, gr: np.ndarray,
                         use_consistency: bool = True,
                         use_granularity: bool = True,
                         normalize: bool = True,
                         clip: tuple = (0.3, 3.0)) -> np.ndarray:
    """Eq. 14: alpha_u = sqrt(CON_u * GR_u), with ablation switches.

    ``normalize`` rescales alpha to mean 1 over users so the weighted
    objective (Eq. 15) keeps the same overall loss scale as Eq. 10 — the
    relative emphasis between users, which is what the mechanism is about,
    is unchanged.  ``clip`` bounds the normalized weights: Eq. 12's
    exponential penalty can otherwise drive CON of very diverse users to
    ~e^{-10}, silencing them completely and starving their embeddings of
    gradient; bounding the dynamic range keeps every user trainable while
    preserving the ordering the mechanism is after (and measurably improves
    Recall/NDCG — see the weighting ablation bench).
    """
    con_term = con if use_consistency else np.ones_like(con)
    gr_term = gr if use_granularity else np.ones_like(gr)
    alpha = np.sqrt(np.maximum(con_term * gr_term, 0.0))
    if normalize and alpha.mean() > 0:
        alpha = alpha / alpha.mean()
    if clip is not None:
        alpha = np.clip(alpha, clip[0], clip[1])
        if normalize and alpha.mean() > 0:
            alpha = alpha / alpha.mean()
    return alpha
