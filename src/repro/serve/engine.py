"""Online inference engine over a :class:`~repro.serve.RetrievalIndex`.

:class:`RecommendService` handles single and batched top-K requests,
configured by one :class:`~repro.serve.ServiceConfig`:

* **Micro-batching** — a batch request scores every uncached user's
  exact row, masks all seen items in one vectorized CSR pass per chunk,
  and ranks with one :func:`~repro.eval.metrics.topk_indices` call.
  Scoring stays per-row (see :mod:`repro.serve.index` for why), so
  batching is shape-invariant and results are bit-identical to the
  single-request path.
* **LRU response cache** — bounded, keyed ``(user_id, k)``, with hit /
  miss counters.  ``cache_size=0`` disables it.
* **Resilience** — every scoring call is guarded by the config's
  :class:`~repro.robust.policies.RetryPolicy` (retry with exponential
  backoff, per-request deadline) behind an error-rate
  :class:`~repro.robust.CircuitBreaker`.  Callers can additionally
  propagate absolute per-request deadlines (and front-end admission
  timestamps) into :meth:`RecommendService.query_batch`, which is how
  the multi-worker front-end (:mod:`repro.serve.frontend`) threads its
  edge deadline through queue wait into worker scoring.  A request whose scoring
  ultimately fails — or arrives while the breaker is open — degrades to
  the configured fallback (stale index and/or popularity) instead of
  erroring: the engine's contract is that ``query_batch`` returns a
  valid ranked list for **every** request, and failures surface in
  counters, not exceptions.
* **Graceful degradation for unknown users** — a user id outside
  ``[0, n_users)`` never raises; it gets the global popularity top-K
  and is counted as a fallback.

Every request path is instrumented through :mod:`repro.obs` (spans and
counters), all no-ops unless a run is active.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.eval.metrics import topk_indices
from repro.robust.breaker import CircuitBreaker
from repro.serve.config import ServiceConfig
from repro.serve.index import RetrievalIndex

LOG = obs.get_logger(__name__)


def popularity_items(index, uid: Optional[int], k: int,
                     exclude_seen: bool = True) -> np.ndarray:
    """Popularity top-K from ``index``; seen items masked for known users.

    Module-level so the multi-worker front-end can serve the same
    degraded ranking from the parent process (no worker round trip)
    that the in-process engine serves — the two fallback paths agree
    by construction.
    """
    popularity = index.popularity
    if (uid is None or not exclude_seen
            or not 0 <= uid < index.n_users):
        return popularity[:k].astype(np.int64)
    seen = set(int(i) for i in index.seen_items(uid))
    unseen = [int(i) for i in popularity if int(i) not in seen]
    items = unseen[:k]
    if len(items) < k:
        # Tiny catalogs: pad with the most popular seen items so the
        # list is still k long and duplicate-free.
        items += [int(i) for i in popularity
                  if int(i) not in items][:k - len(items)]
    return np.asarray(items, dtype=np.int64)


class RecommendService:
    """Batched, fault-tolerant top-K recommendation over a frozen index.

    Parameters
    ----------
    index:
        The offline :class:`RetrievalIndex` (or any object with its
        scoring/mask/popularity surface, e.g. a fault-injection proxy).
    config:
        The :class:`~repro.serve.ServiceConfig`; defaults apply when
        omitted.
    fallback_index:
        Optional stale :class:`RetrievalIndex` consulted when
        ``config.fallback == "stale_index"`` and primary scoring fails.
    """

    def __init__(self, index: RetrievalIndex,
                 config: Optional[ServiceConfig] = None, *,
                 fallback_index: Optional[RetrievalIndex] = None):
        self.config = config if config is not None else ServiceConfig()
        self.index = index
        self.fallback_index = fallback_index
        self.breaker = CircuitBreaker(self.config.breaker,
                                      on_transition=self._breaker_transition)
        self._cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.stats: Dict[str, int] = {
            "requests": 0, "cache_hits": 0, "cache_misses": 0,
            "fallbacks": 0, "degraded": 0, "scoring_failures": 0,
            "retries": 0, "timeouts": 0, "breaker_opens": 0,
            "breaker_short_circuits": 0, "stale_index_hits": 0}

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def _cache_get(self, key) -> Optional[np.ndarray]:
        if self.config.cache_size <= 0:
            return None
        items = self._cache.get(key)
        if items is not None:
            self._cache.move_to_end(key)
        return items

    def _cache_put(self, key, items: np.ndarray) -> None:
        if self.config.cache_size <= 0:
            return
        self._cache[key] = items
        self._cache.move_to_end(key)
        while len(self._cache) > self.config.cache_size:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Guarded scoring (retry + deadline + breaker bookkeeping)
    # ------------------------------------------------------------------
    def _score_guarded(self, uid: int,
                       deadline: Optional[float] = None
                       ) -> Optional[np.ndarray]:
        """One user's exact score row, or None after the retry budget.

        Failures counted here: exceptions out of the index, calls that
        blow the policy's per-call timeout, and calls that blow the
        request's absolute ``deadline`` (``time.monotonic()`` seconds —
        the engine cannot preempt a running numpy kernel, so both are
        checked after the fact; injected delays and real stalls both
        register).  A deadline that expires before *any* scoring was
        attempted still degrades the request — and increments
        ``timeouts`` — but does not feed the circuit breaker: the index
        was never exercised, so its health is unknown.  Otherwise the
        request's *final* outcome feeds the breaker exactly once.
        """
        policy = self.config.retry
        attempted = False
        for attempt in range(policy.retries + 1):
            if (deadline is not None
                    and time.monotonic() >= deadline):
                self.stats["timeouts"] += 1
                obs.count("serve/timeouts")
                obs.trace_event("serve/deadline_exceeded", user=uid,
                                attempt=attempt, scored=attempted)
                break
            if attempt:
                self.stats["retries"] += 1
                obs.count("serve/retries")
                obs.trace_event("serve/retry", user=uid, attempt=attempt)
                if policy.backoff_s > 0:
                    pause = policy.backoff_s * (2 ** (attempt - 1))
                    if deadline is not None:
                        pause = min(pause,
                                    max(0.0, deadline - time.monotonic()))
                    time.sleep(pause)
            start = time.perf_counter()
            try:
                with obs.trace("serve/score", user=uid, attempt=attempt):
                    row = self.index.score_user(uid)
            except Exception as exc:
                attempted = True
                self.stats["scoring_failures"] += 1
                obs.count("serve/scoring_failures")
                obs.trace_event("serve/scoring_error", user=uid,
                                attempt=attempt, error=type(exc).__name__)
                LOG.warning("scoring user %d failed (attempt %d/%d): %s",
                            uid, attempt + 1, policy.retries + 1, exc)
                continue
            attempted = True
            if (policy.timeout_s is not None
                    and time.perf_counter() - start > policy.timeout_s):
                self.stats["timeouts"] += 1
                self.stats["scoring_failures"] += 1
                obs.count("serve/timeouts")
                obs.count("serve/scoring_failures")
                obs.trace_event("serve/timeout", user=uid, attempt=attempt)
                continue
            if deadline is not None and time.monotonic() > deadline:
                self.stats["timeouts"] += 1
                self.stats["scoring_failures"] += 1
                obs.count("serve/timeouts")
                obs.count("serve/scoring_failures")
                obs.trace_event("serve/deadline_exceeded", user=uid,
                                attempt=attempt, scored=True)
                continue
            self._record_outcome(True)
            return row
        if attempted:
            self._record_outcome(False)
        return None

    def _record_outcome(self, ok: bool) -> None:
        if self.breaker.record(ok):
            self.stats["breaker_opens"] += 1
            obs.count("serve/breaker_opens")
            LOG.warning("circuit breaker opened after repeated scoring "
                        "failures (cooldown: %d requests)",
                        self.config.breaker.cooldown)

    def _breaker_transition(self, old_state: str, new_state: str) -> None:
        """Breaker state changes land on the triggering request's trace."""
        obs.trace_event("serve/breaker_transition", old=old_state,
                        new=new_state)

    # ------------------------------------------------------------------
    # Fallbacks
    # ------------------------------------------------------------------
    def _popularity_items(self, uid: Optional[int], k: int) -> np.ndarray:
        """Popularity top-K; seen items masked for known users."""
        return popularity_items(self.index, uid, k,
                                self.config.exclude_seen)

    def _degraded_items(self, uid: int, k: int) -> "tuple[np.ndarray, str]":
        """Best available ranking when primary scoring is unavailable."""
        if (self.config.fallback == "stale_index"
                and self.fallback_index is not None):
            try:
                scores = self.fallback_index.score_user(uid).copy()
                if self.config.exclude_seen:
                    seen = self.fallback_index.seen_items(uid)
                    scores[seen] = -np.inf
                self.stats["stale_index_hits"] += 1
                obs.count("serve/stale_index_hits")
                return topk_indices(scores, k).astype(np.int64), \
                    "stale_index"
            except Exception as exc:
                LOG.warning("stale-index fallback failed for user %d: "
                            "%s; using popularity", uid, exc)
        return self._popularity_items(uid, k), "popularity"

    def _fallback_response(self, uid: int, k: int,
                           degraded: bool) -> Dict[str, object]:
        """A valid ranked response without fresh primary scores.

        ``degraded=False`` is the unknown-user path (policy, not
        failure): raw popularity, exactly as PR4 served it.
        """
        self.stats["fallbacks"] += 1
        obs.count("serve/fallbacks")
        if degraded:
            self.stats["degraded"] += 1
            obs.count("serve/degraded")
            items, source = self._degraded_items(uid, k)
        else:
            items, source = self.index.popularity[:k], "popularity"
        obs.trace_event("serve/fallback", user=uid, degraded=degraded,
                        source=source)
        return {"user_id": uid, "items": [int(i) for i in items],
                "cached": False, "fallback": True, "degraded": degraded,
                "source": source}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, user_id: int, k: Optional[int] = None) -> Dict[str, object]:
        """Top-K for one user; see :meth:`query_batch` for the schema."""
        return self.query_batch([user_id], k=k)[0]

    def query_batch(self, user_ids: Sequence[int],
                    k: Optional[int] = None, *,
                    deadlines=None,
                    enqueued_at=None) -> List[Dict[str, object]]:
        """Top-K for each requested user.

        Returns one dict per request, in request order::

            {"user_id": int, "items": [int, ...], "cached": bool,
             "fallback": bool, "degraded": bool, "source": str}

        ``source`` is one of ``"index"``, ``"cache"``, ``"popularity"``,
        ``"stale_index"``.  Known users whose scoring succeeds get
        exactly what ``model.recommend(u, k, exclude=<train items>)``
        returns on the live model; unknown users get the popularity
        fallback; scoring failures and an open breaker degrade to the
        configured fallback.  Every request gets a ranked list — the
        engine never lets a scoring exception escape.

        ``deadlines`` propagates per-request absolute deadlines
        (``time.monotonic()`` seconds; a scalar applies to the whole
        batch, ``None`` entries disable the check).  A request past its
        deadline degrades to the fallback instead of scoring further —
        see :meth:`_score_guarded`.

        ``enqueued_at`` carries per-request admission timestamps
        (``time.monotonic()`` seconds) from a front-end queue: the
        recorded ``serve/latency_ms`` then spans admission →
        completion — what the caller actually experienced — and the
        admission → batch-entry gap lands in ``serve/queue_wait_ms``.
        Without it both default to batch entry (zero queue wait).
        """
        k = self.config.k if k is None else int(k)
        user_ids = [int(u) for u in user_ids]
        if deadlines is None or isinstance(deadlines, (int, float)):
            deadlines = [deadlines] * len(user_ids)
        else:
            deadlines = list(deadlines)
        # One enabled() check per batch gates all per-request telemetry
        # (trace minting, binding, latency recording) so the disabled
        # path stays within the 2% overhead budget.
        telemetry = obs.enabled()
        ctxs: List[Optional[obs.TraceContext]] = [None] * len(user_ids)
        t_batch = time.monotonic() if telemetry else 0.0
        with obs.trace("serve/query_batch", n_requests=len(user_ids),
                       k=k):
            results: List[Optional[Dict[str, object]]] = (
                [None] * len(user_ids))

            def _complete(pos: int) -> None:
                # Per-request latency is admission (enqueued_at, when
                # the caller supplied it; batch entry otherwise) → this
                # request's completion: honest about both front-end
                # queueing and micro-batched work.
                result = results[pos]
                enq = t_batch if enqueued_at is None \
                    else float(enqueued_at[pos])
                obs.observe("serve/queue_wait_ms",
                            max(0.0, t_batch - enq) * 1e3)
                dur = time.monotonic() - enq
                obs.observe("serve/latency_ms", dur * 1e3)
                obs.record_span("serve/request", dur,
                                user=result["user_id"],
                                source=result["source"],
                                trace=ctxs[pos].trace_id)

            to_score: List[int] = []      # positions needing fresh scores
            for pos, uid in enumerate(user_ids):
                self.stats["requests"] += 1
                if telemetry:
                    ctxs[pos] = obs.new_trace("serve/request", user=uid)
                if not 0 <= uid < self.index.n_users:
                    with obs.bind_trace(ctxs[pos]):
                        results[pos] = self._fallback_response(
                            uid, k, degraded=False)
                    if telemetry:
                        _complete(pos)
                    continue
                cached = self._cache_get((uid, k))
                if cached is not None:
                    self.stats["cache_hits"] += 1
                    results[pos] = {"user_id": uid,
                                    "items": [int(i) for i in cached],
                                    "cached": True, "fallback": False,
                                    "degraded": False, "source": "cache"}
                    if telemetry:
                        with obs.bind_trace(ctxs[pos]):
                            obs.trace_event("serve/cache_hit", user=uid)
                        _complete(pos)
                else:
                    self.stats["cache_misses"] += 1
                    to_score.append(pos)
            scored_pos: List[int] = []
            rows: List[np.ndarray] = []

            def _score_one(pos: int) -> bool:
                """True when the request still awaits the top-K pass."""
                uid = user_ids[pos]
                if not self.breaker.allow():
                    self.stats["breaker_short_circuits"] += 1
                    obs.count("serve/breaker_short_circuits")
                    obs.trace_event("serve/short_circuit", user=uid)
                    results[pos] = self._fallback_response(uid, k,
                                                           degraded=True)
                    return False
                row = self._score_guarded(uid, deadline=deadlines[pos])
                if row is None:
                    results[pos] = self._fallback_response(uid, k,
                                                           degraded=True)
                    return False
                scored_pos.append(pos)
                rows.append(row)
                return True

            for pos in to_score:
                if telemetry:
                    with obs.bind_trace(ctxs[pos]):
                        pending = _score_one(pos)
                    if not pending:
                        _complete(pos)
                else:
                    _score_one(pos)
            chunk = self.config.batch_size
            for start in range(0, len(scored_pos), chunk):
                positions = scored_pos[start:start + chunk]
                batch = np.array([user_ids[pos] for pos in positions],
                                 dtype=np.int64)
                scores = np.stack(rows[start:start + chunk])
                if self.config.exclude_seen:
                    mask_rows, mask_cols = self.index.mask_coords(batch)
                    scores[mask_rows, mask_cols] = -np.inf
                topk = topk_indices(scores, k)
                for row_i, pos in enumerate(positions):
                    uid = user_ids[pos]
                    items = topk[row_i].astype(np.int64)
                    self._cache_put((uid, k), items)
                    results[pos] = {"user_id": uid,
                                    "items": [int(i) for i in items],
                                    "cached": False, "fallback": False,
                                    "degraded": False, "source": "index"}
                    if telemetry:
                        _complete(pos)
            if telemetry:
                obs.count("serve/requests", len(user_ids))
                obs.count("serve/scored_users", len(scored_pos))
                obs.observe("serve/batch_size", float(len(user_ids)))
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Hot swap (online learning)
    # ------------------------------------------------------------------
    def swap_index(self, new_index: RetrievalIndex, *,
                   keep_stale_fallback: bool = True) -> Dict[str, object]:
        """Atomically replace the live index with a fresher one.

        The outgoing index becomes the ``stale_index`` fallback (when
        ``keep_stale_fallback``), so a request that fails on the new
        index during the cutover window still gets the ranking the old
        index would have served — PR5's degraded mode is the swap
        window's safety net.  The response cache is cleared (entries
        were computed against the old scores).  Single-threaded callers
        see the swap as one attribute rebind between ``query_batch``
        calls; the multi-process front-end adds its own drain protocol
        on top (:meth:`repro.serve.frontend.ServingFrontend.swap_index`).
        """
        old_index = self.index
        old_users, old_items = old_index.n_users, old_index.n_items
        self.index = new_index
        if keep_stale_fallback:
            self.fallback_index = old_index
        self._cache.clear()
        # The breaker's error window measured the *old* index's health;
        # carrying an open breaker over would short-circuit the fresh
        # index for faults it never produced (the multi-worker swap gets
        # the same clean slate from its replacement supervisor).
        self.breaker = CircuitBreaker(self.config.breaker,
                                      on_transition=self._breaker_transition)
        self.stats["index_swaps"] = self.stats.get("index_swaps", 0) + 1
        obs.count("serve/index_swaps")
        obs.trace_event("serve/index_swap",
                        old_users=old_users, new_users=new_index.n_users,
                        old_items=old_items, new_items=new_index.n_items)
        return {"swaps": self.stats["index_swaps"],
                "new_users": new_index.n_users - old_users,
                "new_items": new_index.n_items - old_items}

    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Current cache occupancy plus the lifetime counters."""
        return {"size": len(self._cache),
                "capacity": self.config.cache_size, **self.stats}

    def health(self) -> Dict[str, object]:
        """Breaker state + counters, the shape a /health endpoint wants."""
        return {"breaker": self.breaker.snapshot(),
                "cache": {"size": len(self._cache),
                          "capacity": self.config.cache_size},
                "stats": dict(self.stats)}
