"""The multi-worker serving front-end: admission, dispatch, supervision.

:class:`ServingFrontend` is the parent-process half of
:mod:`repro.serve.frontend`.  It shards a frozen
:class:`~repro.serve.RetrievalIndex` into shared memory
(:mod:`~repro.serve.frontend.sharding`), runs one worker process per
shard (:mod:`~repro.serve.frontend.worker`) under a
:class:`~repro.serve.frontend.supervisor.WorkerSupervisor`, and exposes
one thread-safe entry point — :meth:`submit` — that the HTTP layer (or
a load generator, or a test) calls per request.

The robustness contract, end to end:

* **Bounded admission.**  At most ``max_queue_depth`` requests are in
  flight; arrivals beyond that — or arriving while the EWMA queue wait
  exceeds ``wait_budget_ms``, or already past their deadline — are
  *shed*: resolved immediately with ``status="shed"`` (HTTP 429) and
  counted in ``shed_requests``.  Overload degrades throughput, never
  latency of the admitted or the stability of the process.
* **Immediate dispatch.**  The dispatcher thread wakes on each
  admission and sends every shard what has been admitted so far, in
  chunks of at most :data:`~repro.serve.frontend.config.MAX_BATCH`.
  There is no batch window: batching happens in the worker's queue,
  which coalesces whatever piled up behind a busy worker.
* **Deadline propagation.**  Each admitted request carries an absolute
  ``time.monotonic()`` deadline from the edge.  The dispatcher drops
  requests that expired before dispatch (e.g. held by an index swap);
  the worker drops ones that expire in the inter-process queue (both
  without scoring); the engine's retry loop observes the same deadline
  mid-scoring.
* **Supervised workers.**  Crashed or stalled workers are restarted;
  their in-flight requests fail over to the popularity fallback
  (``degraded=True``, never an error), and while a replacement warms
  up its whole shard serves the same fallback.
* **Graceful drain.**  :meth:`drain` stops admitting (new submits get
  ``status="draining"``), flushes every in-flight request, then tears
  down workers and shared memory.  Zero admitted requests are dropped.

**Transport.**  Each worker generation has one pipe per direction,
written by its sender (:class:`~repro.serve.frontend.supervisor.
Channel`): the dispatcher writes requests without ever blocking on one
worker (a message that would block waits in that worker's outbox and
fails over with it), and the response pump waits on every worker's
reply pipe with :func:`multiprocessing.connection.wait`.

Telemetry is single-writer by construction: workers run with
observability quiesced and ship raw stats on heartbeats; the response
pump re-emits latency/queue-wait histograms, counters (among them
``frontend/reply_bytes``, the bytes of the RESULT messages it read),
and per-request spans under the trace context minted at admission, so
``repro obs export-trace`` renders cross-process requests on one
timeline.
"""

from __future__ import annotations

import itertools
import pickle
import threading
import time
from concurrent.futures import Future
from multiprocessing.connection import wait
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.robust.faults import FaultPlan
from repro.serve.engine import DEGRADED, UNKNOWN, popularity_items, response
from repro.serve.frontend.config import MAX_BATCH, FrontendConfig
from repro.serve.frontend.sharding import create_shards
from repro.serve.frontend.supervisor import WorkerSupervisor
from repro.serve.frontend.worker import HEARTBEAT, RESULT, SHED
from repro.serve.index import RetrievalIndex

LOG = obs.get_logger(__name__)

# EWMA smoothing for the observed queue wait (admission wait-budget
# trigger): ~10 samples of memory — reacts within a few batches without
# flapping on one slow request.
_EWMA_ALPHA = 0.2

# Supervisor poll period for crash/stall detection.
HEALTH_CHECK_INTERVAL_S = 0.1

# How long the dispatcher sleeps before retrying a worker outbox that a
# full pipe left waiting.
_OUTBOX_RETRY_S = 0.005

# Default budget for draining in-flight requests, on shutdown and in the
# pause window of an index swap, before stragglers fall back.
DRAIN_TIMEOUT_S = 10.0


class PendingRequest:
    """One admitted request: identity, deadline, and its future.

    ``resolve`` is idempotent (first caller wins) because two paths can
    race to answer: a worker's late result vs. the failover sweep after
    that worker was declared dead.
    """

    __slots__ = ("req_id", "user_id", "k", "deadline", "t_admit",
                 "future", "ctx", "worker_id", "generation")

    def __init__(self, req_id: int, user_id: int, k: int,
                 deadline: Optional[float], t_admit: float,
                 ctx: Optional[obs.TraceContext]):
        self.req_id = req_id
        self.user_id = user_id
        self.k = k
        self.deadline = deadline
        self.t_admit = t_admit
        self.future: Future = Future()
        self.ctx = ctx
        self.worker_id: Optional[int] = None
        self.generation: Optional[int] = None

    def resolve(self, payload: Dict[str, object]) -> bool:
        """Complete the future; False when it already was."""
        try:
            self.future.set_result(payload)
            return True
        except Exception:
            return False


def _done_future(payload: Dict[str, object]) -> Future:
    future: Future = Future()
    future.set_result(payload)
    return future


class ServingFrontend:
    """Sharded multi-process serving with admission control.

    Parameters
    ----------
    index:
        The frozen :class:`RetrievalIndex` to shard and serve.
    config:
        The :class:`FrontendConfig`; defaults apply when omitted.
    faults:
        Optional :class:`~repro.robust.FaultPlan` whose process-level
        specs (``worker_kill`` / ``worker_stall`` / ``slow_shard``)
        are handed to every worker — the drill hook behind
        ``repro robust inject serve``.
    """

    def __init__(self, index: RetrievalIndex,
                 config: Optional[FrontendConfig] = None,
                 faults: Optional[FaultPlan] = None):
        self.config = config if config is not None else FrontendConfig()
        self.index = index
        self.faults = faults
        import multiprocessing
        self._mp = multiprocessing.get_context("fork")
        self._arena = None
        self.supervisor: Optional[WorkerSupervisor] = None
        self._lock = threading.Lock()
        self._pending: Dict[int, PendingRequest] = {}
        self._admitted: List[PendingRequest] = []   # awaiting dispatch
        self._admit_cv = threading.Condition(self._lock)
        self._req_ids = itertools.count()
        self._ewma_wait_ms = 0.0
        self._started = False
        self._draining = False
        self._stopping = False
        self._swapping = False
        self._swap_pausing = False
        self._threads: List[threading.Thread] = []
        self.counters: Dict[str, int] = {
            "requests": 0, "admitted": 0, "completed": 0,
            "shed_requests": 0, "shed_queue_full": 0,
            "shed_wait_budget": 0, "shed_deadline": 0,
            "draining_rejects": 0, "degraded_fallbacks": 0,
            "failovers": 0, "unknown_users": 0,
            "index_swaps": 0, "swap_stragglers": 0}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingFrontend":
        """Shard the index, spawn workers, and wait for readiness."""
        if self._started:
            return self
        self._arena = create_shards(self.index, self.config.n_workers)
        self.supervisor = WorkerSupervisor(
            self._arena.layout, self.config,
            faults=self.faults, mp_context=self._mp,
            on_failure=self._failover)
        self.supervisor.start()
        self._started = True
        self._threads = [
            threading.Thread(target=self._pump_loop,
                             name="repro-fe-pump", daemon=True),
            threading.Thread(target=self._dispatch_loop,
                             name="repro-fe-dispatch", daemon=True),
            threading.Thread(target=self._monitor_loop,
                             name="repro-fe-monitor", daemon=True),
        ]
        for thread in self._threads:
            thread.start()
        try:
            self.supervisor.wait_ready(lambda: time.sleep(0.005))
        except Exception:
            self.stop()
            raise
        return self

    def __enter__(self) -> "ServingFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def drain(self, timeout: Optional[float] = None) -> int:
        """Stop admitting, flush in-flight work, then shut down.

        Returns how many in-flight requests were still resolved during
        the drain.  Requests arriving after drain starts get
        ``status="draining"`` (HTTP 503).  In-flight requests that the
        workers cannot answer within :data:`DRAIN_TIMEOUT_S` are resolved
        from the degraded fallback — drained, never dropped.
        """
        with self._lock:
            if self._draining:
                in_flight = len(self._pending)
            else:
                self._draining = True
                in_flight = len(self._pending)
                self._admit_cv.notify_all()
        budget = DRAIN_TIMEOUT_S if timeout is None else timeout
        deadline = time.monotonic() + budget
        while time.monotonic() < deadline:
            with self._lock:
                if not self._pending:
                    break
            time.sleep(0.005)
        leftovers = self._sweep_pending(reason="drain timeout")
        if leftovers:
            LOG.warning("drain resolved %d request(s) from the fallback "
                        "after %.1fs", leftovers, budget)
        self.stop()
        return in_flight

    def stop(self) -> None:
        """Tear everything down; safe to call twice.

        Any still-pending request resolves from the degraded fallback
        first, so even a hard stop drops nothing that was admitted.
        """
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            self._draining = True
            self._admit_cv.notify_all()
        self._sweep_pending(reason="shutdown")
        if self.supervisor is not None:
            self.supervisor.stop()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads = []
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        self._started = False

    # ------------------------------------------------------------------
    # Hot swap (online learning)
    # ------------------------------------------------------------------
    def swap_index(self, new_index: RetrievalIndex) -> Dict[str, object]:
        """Replace the served index with zero dropped requests.

        The protocol, in order:

        1. **Warm.**  A complete replacement fleet — new shared-memory
           arena, new :class:`WorkerSupervisor` with its own pipes — is
           built and brought to ready while the old fleet keeps
           serving; this thread pumps the new fleet's heartbeats until
           the cutover.
        2. **Pause + drain.**  The dispatcher stops handing batches to
           workers (``submit`` stays open — arrivals queue up) and the
           in-flight requests on the old fleet drain through the old
           response pump.  Stragglers past :data:`DRAIN_TIMEOUT_S` resolve
           from the degraded fallback — allowed in the swap window,
           never dropped.
        3. **Cutover.**  Under the lock, supervisor / arena / index
           rebind atomically and the dispatcher resumes against the new
           fleet.  The pump re-reads the supervisor every iteration, so
           it follows the swap on its next wait.
        4. **Teardown.**  The old supervisor stops (closing its pipes),
           then its arena closes.

        Post-swap, users/items that exist only in ``new_index`` are
        servable: admission checks ``self.index.n_users``, which now
        covers them.  Returns swap latency and straggler counts.
        """
        t0 = time.monotonic()
        with self._lock:
            if not self._started or self._stopping or self._draining:
                raise RuntimeError(
                    "swap_index requires a running front-end")
            if self._swapping:
                raise RuntimeError("an index swap is already in progress")
            self._swapping = True
        new_arena = new_sup = None
        try:
            # Phase 1: warm the replacement fleet (old fleet serving).
            new_arena = create_shards(new_index, self.config.n_workers)
            # The replacement starts with a clean slate: no fault plan
            # (a swap is also the recovery path out of an injected
            # fault) and no failover hook until it owns live requests.
            new_sup = WorkerSupervisor(
                new_arena.layout, self.config,
                faults=None, mp_context=self._mp, on_failure=None)
            new_sup.start()
            new_sup.wait_ready(lambda: self._pump_once(new_sup, 0.005))

            # Phase 2: pause dispatch, drain in-flight on the old fleet.
            with self._lock:
                self._swap_pausing = True
            deadline = time.monotonic() + DRAIN_TIMEOUT_S
            while time.monotonic() < deadline:
                with self._lock:
                    if not any(p.worker_id is not None
                               for p in self._pending.values()):
                        break
                time.sleep(0.002)

            # Phase 3: sweep stragglers + cutover, atomically.
            swept = 0
            with self._lock:
                stragglers = [p for p in self._pending.values()
                              if p.worker_id is not None]
                for pending in stragglers:
                    self.counters["degraded_fallbacks"] += 1
                    self.counters["swap_stragglers"] += 1
                    self._resolve_locked(pending, self._degraded_result(
                        pending.user_id, pending.k))
                    swept += 1
                old_sup = self.supervisor
                old_arena = self._arena
                self.supervisor = new_sup
                self._arena = new_arena
                self.index = new_index
                new_sup.on_failure = self._failover
                self.counters["index_swaps"] += 1
                self._swap_pausing = False
                self._admit_cv.notify_all()
            new_arena = new_sup = None  # now owned live
        except Exception:
            if new_sup is not None:
                new_sup.stop()
            if new_arena is not None:
                new_arena.close()
            raise
        finally:
            with self._lock:
                self._swapping = False
                self._swap_pausing = False
                self._admit_cv.notify_all()

        # Phase 4: tear down the old fleet (no live requests point at
        # it — phase 2/3 drained or resolved every assigned request).
        old_sup.on_failure = None
        old_sup.stop()
        old_arena.close()
        latency_ms = (time.monotonic() - t0) * 1e3
        if self.config.telemetry:
            obs.count("frontend/index_swaps")
            obs.observe("frontend/swap_latency_ms", latency_ms)
            obs.trace_event("frontend/index_swap",
                            latency_ms=round(latency_ms, 3),
                            stragglers=swept,
                            n_users=new_index.n_users,
                            n_items=new_index.n_items)
        LOG.info("index swap complete in %.1fms (%d straggler(s) served "
                 "degraded)", latency_ms, swept)
        return {"swap_latency_ms": latency_ms, "stragglers": swept,
                "n_users": new_index.n_users,
                "n_items": new_index.n_items}

    # ------------------------------------------------------------------
    # Admission (any thread)
    # ------------------------------------------------------------------
    def submit(self, user_id: int, k: int,
               deadline_ms: Optional[float] = "default") -> Future:
        """Admit (or shed) one request; the future resolves to a dict.

        Resolutions::

            {"status": "ok", "result": {...engine response...}}
            {"status": "shed", "reason": "queue_full" | "wait_budget"
                                         | "deadline"}
            {"status": "draining"}

        ``deadline_ms`` is the remaining budget at the edge; the
        sentinel ``"default"`` applies the config's
        ``default_deadline_ms`` and ``None`` disables the deadline.
        Shedding decisions happen here, synchronously, in O(1) — an
        overloaded front-end answers 429 in microseconds, which is the
        whole point of admission control.
        """
        now = time.monotonic()
        uid, k = int(user_id), int(k)
        telemetry = self.config.telemetry and obs.enabled()
        if deadline_ms == "default":
            deadline_ms = self.config.default_deadline_ms
        deadline = None if deadline_ms is None \
            else now + float(deadline_ms) / 1e3
        with self._lock:
            self.counters["requests"] += 1
            if self._draining or self._stopping or not self._started:
                self.counters["draining_rejects"] += 1
                return _done_future({"status": "draining"})
            reason = None
            if deadline is not None and now >= deadline:
                reason = "deadline"       # dead on arrival: reject now
            elif len(self._pending) >= self.config.max_queue_depth:
                reason = "queue_full"
            elif (self.config.wait_budget_ms is not None
                    and self._ewma_wait_ms > self.config.wait_budget_ms):
                reason = "wait_budget"
            if reason is not None:
                self.counters["shed_requests"] += 1
                self.counters[f"shed_{reason}"] += 1
                if telemetry:
                    obs.count("frontend/shed_requests")
                    obs.trace_event("frontend/shed", user=uid,
                                    reason=reason)
                return _done_future({"status": "shed", "reason": reason})
            ctx = obs.new_trace("serve/request", user=uid) \
                if telemetry else None
            pending = PendingRequest(next(self._req_ids), uid, k,
                                     deadline, now, ctx)
            self.counters["admitted"] += 1
            # Unknown users never cross into a worker: no shard owns
            # them, and the engine would only hand back popularity
            # anyway.  Answer at the edge, same schema as the engine.
            if not 0 <= uid < self.index.n_users:
                self.counters["unknown_users"] += 1
                self._resolve_locked(pending, response(
                    uid, self.index.popularity[:k], UNKNOWN))
                return pending.future
            self._pending[pending.req_id] = pending
            self._admitted.append(pending)
            self._admit_cv.notify()
        return pending.future

    def query(self, user_id: int, k: int,
              deadline_ms: Optional[float] = "default",
              timeout: Optional[float] = 30.0) -> Dict[str, object]:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(user_id, k, deadline_ms).result(timeout)

    # ------------------------------------------------------------------
    # Resolution helpers
    # ------------------------------------------------------------------
    def _degraded_result(self, uid: int, k: int) -> Dict[str, object]:
        """Parent-side popularity fallback (worker down / failover).

        Same ranking the worker's engine would serve in its own
        degraded path, computed from the parent's copy of the index.
        """
        return response(uid, popularity_items(
            self.index, uid, k, self.config.service.exclude_seen),
            DEGRADED)

    def _resolve_locked(self, pending: PendingRequest,
                        result: Dict[str, object],
                        queue_wait_s: Optional[float] = None) -> None:
        """Complete one request and emit its telemetry (lock held)."""
        if not pending.resolve({"status": "ok", "result": result}):
            return
        self._pending.pop(pending.req_id, None)
        self.counters["completed"] += 1
        now = time.monotonic()
        wait = (now - pending.t_admit) if queue_wait_s is None \
            else queue_wait_s
        wait = max(0.0, wait)
        self._ewma_wait_ms += _EWMA_ALPHA * (
            wait * 1e3 - self._ewma_wait_ms)
        if pending.ctx is None or not obs.enabled():
            return
        dur = now - pending.t_admit
        with obs.bind_trace(pending.ctx):
            obs.count("serve/requests")
            obs.observe("serve/queue_wait_ms", wait * 1e3)
            obs.observe("serve/latency_ms", dur * 1e3)
            if result.get("fallback"):
                obs.count("serve/fallbacks")
                obs.trace_event("serve/fallback", user=pending.user_id,
                                degraded=bool(result.get("degraded")),
                                source=result.get("source"))
            if result.get("degraded"):
                obs.count("serve/degraded")
            obs.record_span("serve/request", dur, user=pending.user_id,
                            source=result.get("source"),
                            trace=pending.ctx.trace_id)

    def _shed_locked(self, pending: PendingRequest, reason: str) -> None:
        """Shed an already-admitted request (deadline died in queue)."""
        if not pending.resolve({"status": "shed", "reason": reason}):
            return
        self._pending.pop(pending.req_id, None)
        self.counters["shed_requests"] += 1
        self.counters["shed_deadline"] += 1
        if pending.ctx is not None and obs.enabled():
            with obs.bind_trace(pending.ctx):
                obs.count("frontend/shed_requests")
                obs.trace_event("frontend/shed", user=pending.user_id,
                                reason=reason)

    def _sweep_pending(self, reason: str) -> int:
        """Resolve every pending request from the fallback (shutdown)."""
        with self._lock:
            leftovers = list(self._pending.values())
            self._admitted.clear()
            count = 0
            for pending in leftovers:
                self.counters["degraded_fallbacks"] += 1
                self._resolve_locked(pending, self._degraded_result(
                    pending.user_id, pending.k))
                count += 1
        if count:
            obs.trace_event("frontend/sweep", n=count, reason=reason)
        return count

    def _failover(self, worker_id: int, generation: int,
                  why: str) -> None:
        """Fail a dead worker generation's in-flight work to fallback."""
        with self._lock:
            victims = [p for p in self._pending.values()
                       if p.worker_id == worker_id
                       and p.generation == generation]
            for pending in victims:
                self.counters["failovers"] += 1
                self.counters["degraded_fallbacks"] += 1
                self._resolve_locked(pending, self._degraded_result(
                    pending.user_id, pending.k))
        if victims:
            LOG.warning("worker %d (gen %d) %s: failed %d in-flight "
                        "request(s) over to the popularity fallback",
                        worker_id, generation, why, len(victims))
            obs.count("frontend/failovers", len(victims))

    # ------------------------------------------------------------------
    # Dispatcher thread
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        waiting = set()   # channels whose outbox a full pipe left behind
        while True:
            with self._admit_cv:
                # A swap in its pause window holds dispatch entirely:
                # arrivals keep queueing in _admitted and flow to the
                # new fleet the moment the cutover notifies.
                while ((not self._admitted or self._swap_pausing)
                        and not self._stopping and not waiting):
                    self._admit_cv.wait(timeout=0.1)
                if self._stopping:
                    return
                if self._swap_pausing or not self._admitted:
                    batch = []
                    if waiting:
                        self._admit_cv.wait(timeout=_OUTBOX_RETRY_S)
                else:
                    batch, self._admitted = self._admitted, []
                now = time.monotonic()
                by_shard: Dict[int, List[PendingRequest]] = {}
                for pending in batch:
                    if pending.req_id not in self._pending:
                        continue     # resolved while waiting (sweep)
                    if (pending.deadline is not None
                            and now >= pending.deadline):
                        self._shed_locked(pending, "deadline")
                        continue
                    shard_id = self._arena.layout.shard_for_user(
                        pending.user_id)
                    by_shard.setdefault(shard_id, []).append(pending)
                plans = []   # (handle, channel, chunk) built under lock
                for shard_id, group in by_shard.items():
                    route = self.supervisor.route(shard_id)
                    for start in range(0, len(group), MAX_BATCH):
                        chunk = group[start:start + MAX_BATCH]
                        if route is None:
                            # Shard down (worker restarting): serve the
                            # whole chunk degraded from the parent.
                            for pending in chunk:
                                self.counters["degraded_fallbacks"] += 1
                                self._resolve_locked(
                                    pending, self._degraded_result(
                                        pending.user_id, pending.k))
                            continue
                        for pending in chunk:
                            pending.worker_id, pending.generation = \
                                route[:2]
                        plans.append((*route, chunk))
            for channel in list(waiting):
                try:
                    if channel.send():
                        waiting.discard(channel)
                except OSError:
                    waiting.discard(channel)   # closed: failed over
            for worker_id, generation, channel, chunk in plans:
                message = [(p.req_id, p.user_id, p.k, p.deadline,
                            p.t_admit) for p in chunk]
                try:
                    if not channel.send(message):
                        waiting.add(channel)
                except OSError:
                    # Pipe closed under us (restart race): fail over now.
                    self._failover(worker_id, generation,
                                   "request pipe closed")

    # ------------------------------------------------------------------
    # Response pump thread
    # ------------------------------------------------------------------
    def _pump_loop(self) -> None:
        while not self._stopping:
            self._pump_once(self.supervisor, 0.05)

    def _pump_once(self, supervisor: WorkerSupervisor,
                   timeout: float) -> None:
        """Wait up to ``timeout`` on every reply pipe; handle what came."""
        channels = {channel.replies: (worker_id, generation, channel)
                    for worker_id, generation, channel
                    in supervisor.channels()}
        try:
            ready = wait(list(channels), timeout)
        except (OSError, ValueError):
            return   # a pipe closed under the wait (restart or swap)
        telemetry = self.config.telemetry and obs.enabled()
        for conn in ready:
            worker_id, generation, channel = channels[conn]
            buf = channel.recv_bytes()
            if buf is None:
                continue   # end-of-file: the supervisor sees the exit
            message = pickle.loads(buf)
            if message[0] == HEARTBEAT:
                supervisor.note_alive(worker_id, generation, message[1:])
            elif message[0] == RESULT:
                if telemetry:
                    obs.count("frontend/reply_bytes", len(buf))
                if supervisor.note_alive(worker_id, generation):
                    self._resolve_result(message)
                # else: a late result from a replaced worker; the
                # failover already answered or will.

    def _resolve_result(self, message: tuple) -> None:
        """Answer a RESULT's requests, building each response dict once."""
        _, t_start, req_ids, items, codes = message
        items = np.frombuffer(items, dtype=np.int32).reshape(len(codes), -1)
        with self._lock:
            for row, (req_id, code) in enumerate(
                    zip(np.frombuffer(req_ids, dtype=np.int64).tolist(),
                        codes)):
                pending = self._pending.get(req_id)
                if pending is None:
                    continue  # already failed over / swept
                if code == SHED:
                    self._shed_locked(pending, "deadline")
                else:
                    self._resolve_locked(
                        pending, response(pending.user_id,
                                          items[row, :pending.k], code),
                        queue_wait_s=t_start - pending.t_admit)

    # ------------------------------------------------------------------
    # Monitor thread
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stopping:
            time.sleep(HEALTH_CHECK_INTERVAL_S)
            if self._stopping:
                return
            try:
                self.supervisor.check()
            except Exception as exc:  # pragma: no cover - never expected
                LOG.error("supervisor health check failed: %s", exc)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """Everything ``/status`` reports: admission, fleet, breakers."""
        with self._lock:
            counters = dict(self.counters)
            depth = len(self._pending)
            ewma = self._ewma_wait_ms
            draining = self._draining
        return {
            "config": {
                "n_workers": self.config.n_workers,
                "max_queue_depth": self.config.max_queue_depth,
                "wait_budget_ms": self.config.wait_budget_ms,
                "default_deadline_ms": self.config.default_deadline_ms,
            },
            "draining": draining,
            "queue_depth": depth,
            "ewma_queue_wait_ms": round(ewma, 3),
            "counters": counters,
            "fleet": self.supervisor.fleet_health()
            if self.supervisor is not None else {},
        }
