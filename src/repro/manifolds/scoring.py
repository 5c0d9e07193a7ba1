"""The one scoring kernel: ranking scores from a frozen scoring spec.

:meth:`Recommender.export_scoring` describes a model's scores as a spec
``{"kind": <score family>, ...tables}``; :func:`score_rows` turns a spec
plus a batch of user ids into the ``(len(user_ids), n_items)`` score
matrix.  ``Recommender.score_users``, the evaluator and
:class:`repro.serve.RetrievalIndex` all score through it.

The formulas work in place in the ``(batch, n_items)`` buffer their GEMM
returns; outer products and the steps after them run in cache-sized row
blocks.  Each is byte-identical to the composed expression it replaced
(the oracles in ``tests/test_scoring.py``): only the sign of an
intermediate zero or NaN can differ, and the clamps remove the zero.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

_BLOCK = 1 << 15  # elements per row block (256 KiB of float64)


def _row_blocks(out: np.ndarray):
    """Row slices of ``out`` holding about ``_BLOCK`` elements each."""
    step = max(1, _BLOCK // max(out.shape[1], 1))
    return [slice(s, s + step) for s in range(0, out.shape[0], step)]


def _sq_dist(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``||u_b - v_i||^2`` by the norm expansion, in one fresh buffer."""
    out = 2.0 * u @ v.T
    np.subtract(np.sum(u * u, axis=1, keepdims=True), out, out=out)
    return np.add(out, np.sum(v * v, axis=1), out=out)


def neg_sq_dist_scores(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``-||u_b - v_i||^2`` score matrix (CML, SML, CMLF)."""
    sq = _sq_dist(np.asarray(u, dtype=np.float64),
                  np.asarray(v, dtype=np.float64))
    return np.negative(sq, out=sq)


def neg_dist_scores(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``-||u_b - v_i||`` score matrix (TransC, Euclidean LogiRec)."""
    sq = _sq_dist(np.asarray(u, dtype=np.float64),
                  np.asarray(v, dtype=np.float64))
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    return np.negative(sq, out=sq)


def poincare_ranking_scores(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``-d_P(u_b, v_i)`` score matrix (HyperML)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    out = _sq_dist(u, v)
    u_conf = 1.0 - np.sum(u * u, axis=1)
    v_conf = 1.0 - np.sum(v * v, axis=1)
    for rows in _row_blocks(out):
        arg = out[rows]
        denom = np.outer(u_conf[rows], v_conf)
        np.maximum(denom, 1e-15, out=denom)
        np.multiply(arg, 2.0, out=arg)
        np.divide(arg, denom, out=arg)
        np.add(arg, 1.0, out=arg)
        np.maximum(arg, 1.0 + 1e-15, out=arg)
        np.arccosh(arg, out=arg)
        np.negative(arg, out=arg)
    return out


def lorentz_ranking_scores(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``-d_H(u_b, v_i)`` score matrix (HGCF, HRCF, hyperbolic LogiRec).

    The Lorentzian inner product decomposes into one matmul on the
    spatial coordinates plus an outer product of the time coordinates.
    The ``arccosh`` clamp floors every ``-inner`` at ``1 + 1e-12``:
    near-coincident pairs collapse to exact score ties, which the shared
    top-K helper then breaks by ascending item id.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    out = u[:, 1:] @ v[:, 1:].T
    for rows in _row_blocks(out):
        arg = out[rows]  # -inner = outer - gemm, exactly -(gemm - outer)
        np.subtract(np.outer(u[rows, 0], v[:, 0]), arg, out=arg)
        np.maximum(arg, 1.0 + 1e-12, out=arg)
        np.arccosh(arg, out=arg)
        np.negative(arg, out=arg)
    return out


def gdcf_mixed_scores(u_h: np.ndarray, v_h: np.ndarray, u_e: np.ndarray,
                      v_e: np.ndarray, mix: float) -> np.ndarray:
    """GDCF's geometry-mix score: ``-(d_H^2 + mix * d_E)``.

    ``d_H^2 = -2 - 2 <u, v>_L`` is the squared Lorentzian distance.
    Runs in the tables' own dtype (no float64 cast), as GDCF always has.
    """
    out = u_h[:, 1:] @ v_h[:, 1:].T
    d_e = _sq_dist(u_e, v_e)
    for rows in _row_blocks(out):
        d_h = out[rows]
        np.subtract(np.outer(u_h[rows, 0], v_h[:, 0]), d_h, out=d_h)
        np.multiply(d_h, 2.0, out=d_h)
        np.subtract(d_h, 2.0, out=d_h)
        e = d_e[rows]
        np.maximum(e, 0.0, out=e)
        np.sqrt(e, out=e)
        np.multiply(e, mix, out=e)
        np.add(d_h, e, out=d_h)
        np.negative(d_h, out=d_h)
    return out


def score_rows(spec: Mapping[str, object], user_ids) -> np.ndarray:
    """Score matrix of ``user_ids`` against every item under ``spec``.

    Always a fresh array.  ``(U @ V.T)[i]`` can differ from
    ``(U[i:i+1] @ V.T)[0]`` in the last ulp, so a batched row and the
    ``(1, d)`` row ``recommend`` scores agree up to near-ties: rankings
    match under the tie rule except where scores lie within a few ulps
    (DESIGN.md §8).
    """
    kind = spec["kind"]
    ids = np.asarray(user_ids, dtype=np.int64)
    if kind == "dense":
        return spec["scores"][ids]
    if kind == "gdcf_mix":
        return gdcf_mixed_scores(spec["user_h"][ids], spec["item_h"],
                                 spec["user_e"][ids], spec["item_e"],
                                 spec["mix"])
    u, item = spec["user"][ids], spec["item"]
    if kind == "dot":
        return u @ item.T
    if kind == "dot_bias":
        return u @ item.T + spec["bias"]
    if kind == "neg_sq_dist":
        return neg_sq_dist_scores(u, item)
    if kind == "neg_dist":
        return neg_dist_scores(u, item)
    if kind == "lorentz":
        return lorentz_ranking_scores(u, item)
    if kind == "poincare":
        return poincare_ranking_scores(u, item)
    raise ValueError(f"unknown score kind {kind!r}")
