"""Online inference engine over a :class:`~repro.serve.RetrievalIndex`.

:class:`RecommendService` handles single and batched top-K requests,
configured by one :class:`~repro.serve.ServiceConfig`:

* **Micro-batching** — a batch request scores its uncached users with
  one batched index call (one GEMM), masks all seen items in one
  vectorized CSR pass per chunk, and ranks with one
  :func:`~repro.eval.metrics.masked_topk` call.  The core,
  :meth:`RecommendService.rank_batch`, answers with arrays (an
  ``(n, k)`` item array and one outcome code per request);
  :meth:`~RecommendService.query_batch` wraps them in response dicts.
  A batched score row matches ``recommend``'s one-row scores up to
  near-ties (see :mod:`repro.serve.index`).
* **LRU response cache** — bounded, keyed ``(user_id, k)``, with hit /
  miss counters.  ``cache_size=0`` disables it.
* **Resilience** — every request's scoring is guarded by the config's
  :class:`~repro.robust.policies.RetryPolicy` (retry with exponential
  backoff, per-request deadline) behind an error-rate
  :class:`~repro.robust.CircuitBreaker`; a batched call never changes
  which requests the breaker lets through, and rows a batched attempt
  failed retry alone (:meth:`RecommendService._score`).  Callers can
  additionally propagate absolute per-request deadlines (and front-end
  admission timestamps) into :meth:`RecommendService.rank_batch`, which
  is how the multi-worker front-end (:mod:`repro.serve.frontend`)
  threads its edge deadline through queue wait into worker scoring.  A
  request whose scoring ultimately fails — or arrives while the breaker
  is open — degrades to the configured fallback (stale index and/or
  popularity) instead of erroring: the engine's contract is that every
  request gets a valid ranked list, and failures surface in counters,
  not exceptions.
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
from repro.eval.metrics import masked_topk
from repro.robust.breaker import CircuitBreaker
from repro.serve.config import ServiceConfig
from repro.serve.index import RetrievalIndex

LOG = obs.get_logger(__name__)

# Per-request outcome codes of RecommendService.rank_batch, and the
# response fields each stands for: (cached, fallback, degraded, source).
INDEX, CACHE, UNKNOWN, DEGRADED, STALE = range(5)
_FIELDS = ((False, False, False, "index"),
           (True, False, False, "cache"),
           (False, True, False, "popularity"),
           (False, True, True, "popularity"),
           (False, True, True, "stale_index"))


def response(user_id: int, items: np.ndarray,
             code: int) -> Dict[str, object]:
    """The response dict of one request, from its item row and code.

    Rows are padded with ``-1`` past a catalogue shorter than ``k``; the
    padding is dropped here.
    """
    cached, fallback, degraded, source = _FIELDS[code]
    items = items.tolist()
    if items and items[-1] < 0:
        items = [i for i in items if i >= 0]
    return {"user_id": user_id, "items": items, "cached": cached,
            "fallback": fallback, "degraded": degraded, "source": source}


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
    def _deadline_passed(self, uid: int, attempt: int,
                         deadline: Optional[float], scored: bool) -> bool:
        """True (and one timeout counted) when ``deadline`` is behind us."""
        if deadline is None or time.monotonic() < deadline:
            return False
        self.stats["timeouts"] += 1
        obs.count("serve/timeouts")
        obs.trace_event("serve/deadline_exceeded", user=uid,
                        attempt=attempt, scored=scored)
        return True

    def _attempt_ok(self, uid: int, attempt: int,
                    deadline: Optional[float],
                    error: Optional[Exception] = None,
                    elapsed: float = 0.0) -> bool:
        """Charge one finished scoring attempt; True when its row is usable.

        Failures counted here: an exception out of the index, an attempt
        that blew the policy's per-call timeout, and one that blew the
        request's absolute ``deadline`` (``time.monotonic()`` seconds —
        the engine cannot preempt a running numpy kernel, so both are
        checked after the fact; injected delays and real stalls both
        register).
        """
        if error is not None:
            self.stats["scoring_failures"] += 1
            obs.count("serve/scoring_failures")
            obs.trace_event("serve/scoring_error", user=uid,
                            attempt=attempt, error=type(error).__name__)
            LOG.warning("scoring user %d failed (attempt %d/%d): %s",
                        uid, attempt + 1, self.config.retry.retries + 1,
                        error)
            return False
        timeout = self.config.retry.timeout_s
        if timeout is not None and elapsed > timeout:
            event, detail = "serve/timeout", {}
        elif deadline is not None and time.monotonic() > deadline:
            event, detail = "serve/deadline_exceeded", {"scored": True}
        else:
            return True
        self.stats["timeouts"] += 1
        self.stats["scoring_failures"] += 1
        obs.count("serve/timeouts")
        obs.count("serve/scoring_failures")
        obs.trace_event(event, user=uid, attempt=attempt, **detail)
        return False

    def _score_guarded(self, uid: int, deadline: Optional[float] = None,
                       first: int = 0) -> Optional[np.ndarray]:
        """One user's ``(1, n_items)`` scores alone, or None after retries.

        Runs attempts ``first ..`` of the retry budget (``first=1`` after
        a failed batched attempt).  A deadline that expires before *any*
        scoring was attempted still degrades the request — and
        increments ``timeouts`` — but does not feed the circuit breaker:
        the index was never exercised, so its health is unknown.
        Otherwise the request's *final* outcome feeds the breaker
        exactly once.
        """
        policy = self.config.retry
        attempted = first > 0
        for attempt in range(first, policy.retries + 1):
            if self._deadline_passed(uid, attempt, deadline, attempted):
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
            error = rows = None
            try:
                with obs.trace("serve/score", user=uid, attempt=attempt):
                    rows = self.index.score_users([uid])
            except Exception as exc:
                error = exc
            attempted = True
            if self._attempt_ok(uid, attempt, deadline, error,
                                time.perf_counter() - start):
                self._record_outcome(True)
                return rows
        if attempted:
            self._record_outcome(False)
        return None

    def _score(self, positions: List[int], user_ids: List[int],
               deadlines: list, ctxs: list):
        """Fresh scores for ``positions``: ``(blocks, failed)``.

        ``blocks`` pairs lists of positions with their score matrices;
        ``failed`` lists the positions to degrade (short-circuited, past
        their deadline, or out of retries).  A group of requests is
        scored in one batched call: at most ``batch_size``, and at most
        as many as the breaker can record failures for without opening
        (:meth:`~repro.robust.CircuitBreaker.headroom`), so grouping
        never changes which requests the breaker lets through.  Rows a
        batched attempt failed retry alone from attempt 1; rows it did
        not answer (another row raised, or the whole call blew the
        per-call timeout) start again alone from attempt 0.
        """
        blocks: list = []
        failed: List[int] = []
        i = 0
        while i < len(positions):
            size = max(1, self.breaker.headroom(
                min(len(positions) - i, self.config.batch_size)))
            group, i = positions[i:i + size], i + size
            live = []
            for pos in group:
                uid = user_ids[pos]
                with obs.bind_trace(ctxs[pos]):
                    if not self.breaker.allow():
                        self.stats["breaker_short_circuits"] += 1
                        obs.count("serve/breaker_short_circuits")
                        obs.trace_event("serve/short_circuit", user=uid)
                        failed.append(pos)
                    elif self._deadline_passed(uid, 0, deadlines[pos],
                                               False):
                        failed.append(pos)
                    else:
                        live.append(pos)
            if not live:
                continue
            error = scores = None
            start = time.perf_counter()
            try:
                with obs.trace("serve/score", n_users=len(live)):
                    scores = self.index.score_users(
                        [user_ids[pos] for pos in live])
            except Exception as exc:
                error = exc
            elapsed = time.perf_counter() - start
            timeout = self.config.retry.timeout_s
            slow = (len(live) > 1 and timeout is not None
                    and elapsed > timeout)
            bad = set()
            if error is not None:
                rows = getattr(error, "rows", None)
                bad = set(range(len(live)) if rows is None else rows)
            kept: List[int] = []
            for row, pos in enumerate(live):
                uid, deadline = user_ids[pos], deadlines[pos]
                with obs.bind_trace(ctxs[pos]):
                    if error is not None:
                        first = 1 if row in bad else 0
                        if first:
                            self._attempt_ok(uid, 0, deadline, error)
                    elif slow:
                        first = 0
                    elif self._attempt_ok(uid, 0, deadline, None,
                                          elapsed):
                        self._record_outcome(True)
                        kept.append(row)
                        continue
                    else:
                        first = 1
                    alone = self._score_guarded(uid, deadline, first)
                if alone is None:
                    failed.append(pos)
                else:
                    blocks.append(([pos], alone))
            if len(kept) == len(live):
                blocks.append((live, scores))
            elif kept:
                blocks.append(([live[row] for row in kept], scores[kept]))
        return blocks, failed

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

    def _degraded_items(self, uid: int, k: int) -> "tuple[np.ndarray, int]":
        """Best available ranking when primary scoring is unavailable."""
        if (self.config.fallback == "stale_index"
                and self.fallback_index is not None):
            try:
                stale = self.fallback_index
                scores = stale.score_users([uid])
                coords = stale.mask_coords(np.array([uid])) \
                    if self.config.exclude_seen else None
                items = masked_topk(scores, coords, k)[0]
                self.stats["stale_index_hits"] += 1
                obs.count("serve/stale_index_hits")
                return items, STALE
            except Exception as exc:
                LOG.warning("stale-index fallback failed for user %d: "
                            "%s; using popularity", uid, exc)
        return self._popularity_items(uid, k), DEGRADED

    def _fallback(self, uid: int, k: int,
                  degraded: bool) -> "tuple[np.ndarray, int]":
        """A valid ranking without fresh primary scores, and its code.

        ``degraded=False`` is the unknown-user path (policy, not
        failure): raw popularity, exactly as PR4 served it.
        """
        self.stats["fallbacks"] += 1
        obs.count("serve/fallbacks")
        if degraded:
            self.stats["degraded"] += 1
            obs.count("serve/degraded")
            items, code = self._degraded_items(uid, k)
        else:
            items, code = self.index.popularity[:k], UNKNOWN
        obs.trace_event("serve/fallback", user=uid, degraded=degraded,
                        source=_FIELDS[code][3])
        return items, code

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
        """Top-K for each requested user, one dict per request.

        A thin wrapper over :meth:`rank_batch` (same arguments), in
        request order::

            {"user_id": int, "items": [int, ...], "cached": bool,
             "fallback": bool, "degraded": bool, "source": str}

        ``source`` is one of ``"index"``, ``"cache"``, ``"popularity"``,
        ``"stale_index"``.
        """
        user_ids = [int(u) for u in user_ids]
        items, codes = self.rank_batch(user_ids, k, deadlines=deadlines,
                                       enqueued_at=enqueued_at)
        return [response(uid, row, code)
                for uid, row, code in zip(user_ids, items,
                                          codes.tolist())]

    def rank_batch(self, user_ids: Sequence[int], k: Optional[int] = None,
                   *, deadlines=None, enqueued_at=None):
        """The engine's core: ``(items, codes)`` for a batch of requests.

        ``items`` is an ``(n, k)`` int64 array, row ``i`` the ranked list
        of request ``i`` (padded with ``-1`` past a catalogue shorter
        than ``k``); ``codes`` holds one int8 outcome code per request
        (``INDEX``, ``CACHE``, ``UNKNOWN``, ``DEGRADED``, ``STALE``;
        :func:`response` turns a row and its code into the response
        dict).  Known users whose scoring succeeds get what
        ``model.recommend(u, k, exclude=<train items>)`` returns on the
        live model, up to near-ties (:mod:`repro.serve.index`); unknown
        users get the popularity fallback; scoring failures and an open
        breaker degrade to the configured fallback.  Every request gets
        a ranked list — the engine never lets a scoring exception
        escape.

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
        n = len(user_ids)
        if deadlines is None or isinstance(deadlines, (int, float)):
            deadlines = [deadlines] * n
        else:
            deadlines = list(deadlines)
        items = np.full((n, k), -1, dtype=np.int64)
        codes = np.full(n, INDEX, dtype=np.int8)
        # One enabled() check per batch gates all per-request telemetry
        # (trace minting, binding, latency recording) so the disabled
        # path stays within the 2% overhead budget.
        telemetry = obs.enabled()
        ctxs: List[Optional[obs.TraceContext]] = [None] * n
        t_batch = time.monotonic() if telemetry else 0.0

        def _answer(pos: int, row: np.ndarray, code: int) -> None:
            items[pos, :len(row)] = row
            codes[pos] = code
            if telemetry:
                _complete(pos)

        def _complete(pos: int) -> None:
            # Per-request latency is admission (enqueued_at, when
            # the caller supplied it; batch entry otherwise) → this
            # request's completion: honest about both front-end
            # queueing and micro-batched work.
            enq = t_batch if enqueued_at is None \
                else float(enqueued_at[pos])
            obs.observe("serve/queue_wait_ms",
                        max(0.0, t_batch - enq) * 1e3)
            dur = time.monotonic() - enq
            obs.observe("serve/latency_ms", dur * 1e3)
            obs.record_span("serve/request", dur, user=user_ids[pos],
                            source=_FIELDS[codes[pos]][3],
                            trace=ctxs[pos].trace_id)

        def _fallback(pos: int, degraded: bool) -> None:
            with obs.bind_trace(ctxs[pos]):
                row, code = self._fallback(user_ids[pos], k, degraded)
            _answer(pos, row, code)

        with obs.trace("serve/query_batch", n_requests=n, k=k):
            to_score: List[int] = []      # positions needing fresh scores
            for pos, uid in enumerate(user_ids):
                self.stats["requests"] += 1
                if telemetry:
                    ctxs[pos] = obs.new_trace("serve/request", user=uid)
                if not 0 <= uid < self.index.n_users:
                    _fallback(pos, degraded=False)
                    continue
                cached = self._cache_get((uid, k))
                if cached is None:
                    self.stats["cache_misses"] += 1
                    to_score.append(pos)
                    continue
                self.stats["cache_hits"] += 1
                if telemetry:
                    with obs.bind_trace(ctxs[pos]):
                        obs.trace_event("serve/cache_hit", user=uid)
                _answer(pos, cached, CACHE)
            blocks, failed = self._score(to_score, user_ids, deadlines,
                                         ctxs)
            for pos in failed:
                _fallback(pos, degraded=True)
            per_row = telemetry or self.config.cache_size > 0
            n_scored = 0
            for positions, scores in blocks:   # each <= batch_size rows
                n_scored += len(positions)
                coords = self.index.mask_coords(
                    np.array([user_ids[pos] for pos in positions],
                             dtype=np.int64)) \
                    if self.config.exclude_seen else None
                topk = masked_topk(scores, coords, k)
                if not per_row:
                    items[positions, :topk.shape[1]] = topk
                    continue
                for row, pos in zip(topk, positions):
                    self._cache_put((user_ids[pos], k), row)
                    _answer(pos, row, INDEX)
            if telemetry:
                obs.count("serve/requests", n)
                obs.count("serve/scored_users", n_scored)
                obs.observe("serve/batch_size", float(n))
        return items, codes

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
