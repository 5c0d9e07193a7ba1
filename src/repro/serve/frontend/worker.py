"""Worker-process entry point for the multi-worker serving front-end.

Each worker owns one user-range shard: it attaches the shard's
shared-memory tables zero-copy (:func:`~repro.serve.frontend.sharding.
attach_shard`), builds a plain in-process
:class:`~repro.serve.RecommendService` over the local view, and serves
its request pipe.  All the per-request semantics — retry/deadline
guards, circuit breaker, LRU cache, fallback ranking — are the
engine's, unchanged; this module only adds the process shell:

* **coalescing** — after each blocking read the worker drains the
  messages already waiting in its pipe, stopping once it holds
  :data:`~repro.serve.frontend.config.MAX_BATCH` requests.  It ranks
  them with one :meth:`~repro.serve.RecommendService.rank_batch` per
  ``k`` (one scoring GEMM) and answers them in one RESULT.  An idle
  worker thus serves each request as it arrives; a busy one batches
  exactly what piled up while it was busy.
* **array replies** — a RESULT is ``(RESULT, t_start, req_ids, items,
  codes)``: the request ids (int64), an ``(n, k)`` item array (int32,
  ``-1`` padded) and one outcome code per request (int8: the engine's
  codes plus :data:`SHED`), each as raw bytes, in request order.  The
  parent builds each response dict once, when it resolves the future.
* **id translation** — requests carry global user ids; the worker
  subtracts its shard's ``lo`` at the boundary, so the engine sees a
  dense local universe (the parent knows each request's global id).
* **heartbeats** — the worker's engine stats and breaker snapshot ride
  only on heartbeats: an idle worker sends one every
  :data:`~repro.serve.frontend.config.HEARTBEAT_INTERVAL_S`, and a busy
  one after a RESULT once an interval has passed, so the supervisor's
  per-shard health view is at most about one interval old and every
  RESULT also proves the worker alive.
* **deadline pre-shed** — a request whose absolute deadline expired
  while waiting in the pipe is answered :data:`SHED` without touching
  the engine (no scoring, no breaker feed); the front-end maps that to
  the load-shedding path.
* **fault hooks** — process-level :class:`~repro.robust.FaultSpec`
  kinds (``worker_kill`` / ``worker_stall`` / ``slow_shard``) fire here
  so ``repro robust inject serve`` and the kill-drill benchmark can
  exercise crash detection, stall detection, and hot-shard overload
  deterministically.

Observability in the child is quiesced at entry: the worker nulls the
inherited run globals (without closing the parent's sink — the file
descriptor is re-pointed at ``/dev/null`` first) and ships raw stats
upward; the parent's response pump re-emits telemetry under the
original request traces, keeping ``events.jsonl`` single-writer.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

import numpy as np

from repro.robust.faults import FaultPlan, FaultSpec
from repro.serve.engine import RecommendService
from repro.serve.frontend.config import (HEARTBEAT_INTERVAL_S, MAX_BATCH,
                                         FrontendConfig)
from repro.serve.frontend.sharding import ShardLayout, attach_shard

# Message tags (worker → parent).
HEARTBEAT = "heartbeat"
RESULT = "result"
BYE = "bye"

# RESULT outcome code of a request shed for its deadline (the engine's
# codes are 0..4).
SHED = 5

# Parent → worker shutdown sentinel.
SHUTDOWN = None

# Exit code for the injected worker_kill fault, so tests and the
# supervisor log can tell a drill kill from a real crash.
KILL_EXIT_CODE = 17


def _quiesce_observability() -> None:
    """Disable inherited telemetry without disturbing the parent's sink.

    The front-end forks workers while a run may be active.  Calling
    ``obs.disable()`` here would close the inherited ``events.jsonl``
    handle — flushing whatever the fork captured into the parent's
    stream.  Instead the sink's file descriptor is re-pointed at
    ``/dev/null`` (parent's descriptor is untouched; fd tables are
    per-process) and the run globals are nulled, so every obs helper in
    the child is a no-op from the first instruction of the worker loop.
    """
    from repro.obs import run as run_mod
    active = run_mod._RUN
    if active is not None:
        fh = getattr(active._sink, "_fh", None)
        if fh is not None:
            try:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fh.fileno())
                os.close(devnull)
            except OSError:  # pragma: no cover - sink already closed
                pass
    run_mod._RUN = None
    run_mod._NAN_CHECKS = False


class _FaultState:
    """Worker-local view of the process-level fault specs.

    The worker counts requests *handled* (not batches); ``worker_kill``
    and ``worker_stall`` trigger the first time the running count
    reaches ``after_requests``.  The plan's ``fired`` bookkeeping lives
    in whichever process fired the fault, which for a kill is the
    process that just died — so once-by-default semantics are enforced
    by *generation*: a replacement worker (generation > 1) skips
    ``once=True`` faults, exactly as an exhausted spec would be skipped
    in-process.  ``slow_shard`` draws from a generator seeded by
    ``(plan seed, worker id)`` so the delay schedule is replayable per
    worker without coordinating across processes.
    """

    def __init__(self, plan: Optional[FaultPlan], worker_id: int,
                 shard_id: int, generation: int):
        self.kill_spec: Optional[FaultSpec] = None
        self.stall_spec: Optional[FaultSpec] = None
        self.slow_specs: List[FaultSpec] = []
        self.stall_fired = False
        seed = plan.seed if plan is not None else 0
        self.rng = np.random.default_rng((seed, worker_id))
        if plan is None:
            return
        replacement = generation > 1
        for spec in plan.specs:
            if spec.kind == "worker_kill" and spec.worker == worker_id:
                if not (spec.once and replacement):
                    self.kill_spec = spec
            elif spec.kind == "worker_stall" and spec.worker == worker_id:
                if not (spec.once and replacement):
                    self.stall_spec = spec
            elif spec.kind == "slow_shard" and spec.shard in (None,
                                                              shard_id):
                self.slow_specs.append(spec)

    def kill_due(self, handled: int) -> bool:
        return (self.kill_spec is not None
                and handled >= self.kill_spec.after_requests)

    def stall_due(self, handled: int) -> Optional[float]:
        if (self.stall_spec is not None and not self.stall_fired
                and handled >= self.stall_spec.after_requests):
            self.stall_fired = True
            return self.stall_spec.delay_s
        return None

    def slow_delay(self, n_requests: int) -> float:
        """Total injected delay for a batch of ``n_requests``."""
        total = 0.0
        for spec in self.slow_specs:
            hits = int(np.count_nonzero(
                self.rng.random(n_requests) < spec.rate))
            total += hits * spec.delay_s
        return total


def _answer(engine: RecommendService, lo: int, requests: list,
            t_start: float) -> tuple:
    """Rank a coalesced batch: one RESULT, rows in request order."""
    n = len(requests)
    items = np.full((n, max(req[2] for req in requests)), -1,
                    dtype=np.int32)
    codes = np.full(n, SHED, dtype=np.int8)
    now = time.monotonic()
    by_k: Dict[int, List[int]] = {}
    for pos, (_, _, k, deadline, _) in enumerate(requests):
        if deadline is None or now < deadline:
            by_k.setdefault(k, []).append(pos)
    for k, positions in by_k.items():
        ranked, outcomes = engine.rank_batch(
            [requests[pos][1] - lo for pos in positions], k,
            deadlines=[requests[pos][3] for pos in positions])
        items[positions, :k] = ranked
        codes[positions] = outcomes
    req_ids = np.array([req[0] for req in requests], dtype=np.int64)
    return (RESULT, t_start, req_ids.tobytes(), items.tobytes(),
            codes.tobytes())


def worker_main(worker_id: int, generation: int, layout: ShardLayout,
                shard_id: int, config: FrontendConfig, requests,
                replies, faults: Optional[FaultPlan] = None) -> None:
    """Run one shard worker until the shutdown sentinel (fork target).

    ``requests`` and ``replies`` are this worker's ends of its two
    pipes (``multiprocessing`` connections).  A request message is a
    list of ``(req_id, user_id, k, deadline, t_admit)`` tuples (global
    user id; ``deadline``/``t_admit`` in ``time.monotonic()`` seconds,
    deadline may be None).  Replies are tagged tuples: ``(HEARTBEAT,
    handled, stats, breaker)``, the RESULT described in the module
    docstring, and a final ``(BYE,)``.  The pipe names the worker and
    its generation, so messages do not repeat them.
    """
    _quiesce_observability()
    shard = attach_shard(layout, shard_id)
    engine = RecommendService(shard.index, config.service)
    fault_state = _FaultState(faults, worker_id, shard_id, generation)
    handled = 0
    next_beat = 0.0

    def _heartbeat() -> None:
        nonlocal next_beat
        replies.send((HEARTBEAT, handled, dict(engine.stats),
                      engine.breaker.snapshot()))
        next_beat = time.monotonic() + HEARTBEAT_INTERVAL_S

    try:
        _heartbeat()  # "ready": releases the supervisor's start wait
        shutdown = False
        while not shutdown:
            if not requests.poll(max(0.0, next_beat - time.monotonic())):
                _heartbeat()
                continue
            message = requests.recv()
            if message is SHUTDOWN:
                break
            batch = message
            # Coalesce what queued up behind this worker while it was
            # busy; a sentinel found here ends the loop after the reply.
            while len(batch) < MAX_BATCH and requests.poll():
                message = requests.recv()
                if message is SHUTDOWN:
                    shutdown = True
                    break
                batch.extend(message)
            t_start = time.monotonic()  # queue wait ends here
            handled += len(batch)
            if fault_state.kill_due(handled):
                # Injected crash mid-batch: die without responding, so
                # the supervisor must fail over the in-flight work.
                os._exit(KILL_EXIT_CODE)
            stall = fault_state.stall_due(handled)
            if stall is not None:
                # Wedged, not dead: no serving, no heartbeats.  Only
                # heartbeat ageing can catch this.
                time.sleep(stall)
            delay = fault_state.slow_delay(len(batch))
            if delay > 0:
                time.sleep(delay)
            replies.send(_answer(engine, shard.lo, batch, t_start))
            if not shutdown and time.monotonic() >= next_beat:
                _heartbeat()
    finally:
        try:
            replies.send((BYE,))
        except Exception:  # pragma: no cover - parent end closed first
            pass
        shard.close()
