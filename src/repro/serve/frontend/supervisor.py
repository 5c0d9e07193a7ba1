"""Worker supervision: spawn, health-check, restart, aggregate health.

:class:`WorkerSupervisor` owns the worker processes of a
:class:`~repro.serve.frontend.core.ServingFrontend`.  It detects the
two distinct failure modes a process fleet has:

* **crash** — the process is gone; ``Process.is_alive()`` is false and
  the exit code says how it died.  Detected on the next health check.
* **stall** — the process is alive but wedged (the injected
  ``worker_stall`` fault, a hung syscall, a livelock): it stops
  draining its queue *and* stops heartbeating.  Detected when the last
  heartbeat is older than ``stall_after_s``; the supervisor kills the
  process so the failure collapses into the crash path.

Recovery is restart-with-generation: the replacement worker gets a
fresh :class:`Channel` (its two pipes) and an incremented generation
number, so messages from the dead incarnation (late results, stale
heartbeats) are recognizable and dropped by the parent pump.  While the replacement
warms up (attaches the shard, builds its engine, sends the first
heartbeat) the shard's handle reports not-ready and the front-end
serves that user range from the popularity fallback — degraded, never
failed.

The supervisor also aggregates per-worker engine stats and circuit-
breaker snapshots (carried on heartbeats, which a busy worker also
sends once per heartbeat interval) into
:meth:`fleet_health` — the per-shard view behind
``repro serve http --status``, where one worker's OPEN breaker is
visible without asking each process.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.robust.faults import FaultPlan
from repro.serve.frontend.config import FrontendConfig
from repro.serve.frontend.sharding import ShardLayout
from repro.serve.frontend.worker import worker_main

LOG = obs.get_logger(__name__)

STARTING = "starting"
READY = "ready"
DEAD = "dead"
STOPPED = "stopped"


class Channel:
    """One worker generation's two pipes, each written by its sender.

    The parent writes requests and the worker writes replies; the
    supervisor closes the child's ends in the parent right after the
    fork, so a dead worker reads as end-of-file on ``replies``.  Request writes never
    block: the write end is non-blocking and a request message of
    :data:`~repro.serve.frontend.config.MAX_BATCH` requests fits in
    ``PIPE_BUF``, so a write is all or nothing, and a message that
    would block waits in ``outbox`` for the next :meth:`send` (called
    with no message to retry).  The locks make :meth:`close` safe
    against a concurrent send or receive (a closed descriptor number
    can be reused at once).
    """

    def __init__(self, mp_context):
        self.child_requests, self.requests = mp_context.Pipe(duplex=False)
        self.replies, self.child_replies = mp_context.Pipe(duplex=False)
        os.set_blocking(self.requests.fileno(), False)
        self.outbox: deque = deque()
        self.eof = False
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()

    def send(self, *messages) -> bool:
        """Queue ``messages``, then write the outbox in order.

        True when the outbox is empty afterwards; raises ``OSError``
        once the channel is closed.
        """
        with self._send_lock:
            self.outbox.extend(messages)
            while self.outbox:
                try:
                    self.requests.send(self.outbox[0])
                except BlockingIOError:
                    return False
                self.outbox.popleft()
            return True

    def recv_bytes(self) -> Optional[bytes]:
        """One reply message, or None at end-of-file or once closed."""
        with self._recv_lock:
            if self.eof or self.replies.closed:
                return None
            try:
                return self.replies.recv_bytes()
            except (EOFError, OSError):
                self.eof = True
                return None

    def close(self) -> None:
        with self._send_lock, self._recv_lock:
            for conn in (self.requests, self.replies, self.child_requests,
                         self.child_replies):
                conn.close()


class WorkerHandle:
    """Parent-side state for one shard worker (one per shard)."""

    def __init__(self, worker_id: int, shard_id: int):
        self.worker_id = worker_id
        self.shard_id = shard_id
        self.generation = 0
        self.process = None
        self.channel: Optional[Channel] = None
        self.state = STOPPED
        self.last_heartbeat = 0.0
        self.handled = 0
        self.stats: Dict[str, int] = {}
        self.breaker: Dict[str, object] = {}
        self.restarts = 0

    @property
    def ready(self) -> bool:
        return self.state == READY

    def snapshot(self) -> Dict[str, object]:
        return {"worker_id": self.worker_id, "shard_id": self.shard_id,
                "state": self.state, "generation": self.generation,
                "restarts": self.restarts, "handled": self.handled,
                "pid": getattr(self.process, "pid", None),
                "breaker": dict(self.breaker),
                "stats": dict(self.stats)}


class WorkerSupervisor:
    """Spawns, health-checks, and restarts the worker fleet.

    ``on_failure(worker_id, generation, reason)`` fires once per
    detected failure, after the replacement is spawned — the front-end
    uses it to fail the dead generation's in-flight requests (its
    outbox included) over to the degraded fallback.  Thread-safe:
    heartbeats arrive from the response pump while ``check`` runs on
    the monitor thread.
    """

    def __init__(self, layout: ShardLayout, config: FrontendConfig,
                 faults: Optional[FaultPlan] = None,
                 mp_context=None,
                 on_failure: Optional[
                     Callable[[int, int, str], None]] = None):
        if mp_context is None:
            import multiprocessing
            # fork: workers inherit the layout/config without pickling
            # and start in milliseconds, which is what makes restart-
            # under-load viable on small machines.
            mp_context = multiprocessing.get_context("fork")
        self._mp = mp_context
        self.layout = layout
        self.config = config
        self.faults = faults
        self.on_failure = on_failure
        self._lock = threading.Lock()
        self._stopping = False
        self.handles: List[WorkerHandle] = [
            WorkerHandle(i, i) for i in range(config.n_workers)]
        self.total_restarts = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn_locked(self, handle: WorkerHandle) -> None:
        handle.generation += 1
        handle.channel = channel = Channel(self._mp)
        handle.state = STARTING
        handle.last_heartbeat = time.monotonic()
        handle.process = self._mp.Process(
            target=worker_main,
            args=(handle.worker_id, handle.generation, self.layout,
                  handle.shard_id, self.config, channel.child_requests,
                  channel.child_replies, self.faults),
            daemon=True,
            name=f"repro-serve-w{handle.worker_id}")
        handle.process.start()
        channel.child_requests.close()
        channel.child_replies.close()

    def start(self) -> None:
        with self._lock:
            for handle in self.handles:
                self._spawn_locked(handle)

    def wait_ready(self, drain_responses: Callable[[], None],
                   timeout: Optional[float] = None) -> None:
        """Block until every worker heartbeats (or raise on timeout).

        ``drain_responses`` is the front-end's pump step — the caller
        reads the reply pipes, so readiness heartbeats must flow
        through it rather than being consumed here.
        """
        budget = self.config.start_timeout_s if timeout is None \
            else timeout
        deadline = time.monotonic() + budget
        while True:
            drain_responses()
            with self._lock:
                if all(h.ready for h in self.handles):
                    return
                missing = [h.worker_id for h in self.handles
                           if not h.ready]
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"workers {missing} not ready after {budget:.1f}s")
            time.sleep(0.005)

    def stop(self, timeout: float = 5.0) -> None:
        """Shut every worker down (sentinel, join, then escalate)."""
        from repro.serve.frontend.worker import SHUTDOWN
        with self._lock:
            # Taken under the lock so a concurrent check() can never
            # spawn a replacement after this point (it would be joined
            # by nobody and leak its pipes).
            self._stopping = True
            handles = list(self.handles)
        for handle in handles:
            if handle.channel is not None:
                try:
                    handle.channel.send(SHUTDOWN)
                except OSError:  # a dead worker or a closed channel
                    pass
        deadline = time.monotonic() + timeout
        for handle in handles:
            proc = handle.process
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
                if proc.is_alive():  # pragma: no cover - last resort
                    proc.kill()
                    proc.join(timeout=1.0)
            handle.state = STOPPED
            if handle.channel is not None:
                handle.channel.close()

    # ------------------------------------------------------------------
    # Health signals (called from the response pump)
    # ------------------------------------------------------------------
    def note_alive(self, worker_id: int, generation: int,
                   health: Optional[Tuple[int, dict, dict]] = None
                   ) -> bool:
        """Record a message from a worker; False when it is not current.

        ``health`` is a heartbeat's ``(handled, stats, breaker)``; a
        result message only proves the worker alive.
        """
        with self._lock:
            handle = self.handles[worker_id]
            if generation != handle.generation:
                return False  # a replaced incarnation past its death
            if handle.state == STARTING:
                handle.state = READY
                obs.trace_event("frontend/worker_ready",
                                worker=worker_id, generation=generation)
            handle.last_heartbeat = time.monotonic()
            if health is not None:
                handle.handled, handle.stats, handle.breaker = health
            return True

    def channels(self) -> List[Tuple[int, int, Channel]]:
        """``(worker_id, generation, channel)`` of every open reply pipe."""
        with self._lock:
            return [(h.worker_id, h.generation, h.channel)
                    for h in self.handles
                    if h.channel is not None and not h.channel.eof]

    def route(self, shard_id: int) -> Optional[Tuple[int, int, Channel]]:
        """``(worker_id, generation, channel)`` of the ready worker
        serving ``shard_id``, read atomically, or None (degraded)."""
        with self._lock:
            handle = self.handles[shard_id]
            if not handle.ready:
                return None
            return handle.worker_id, handle.generation, handle.channel

    # ------------------------------------------------------------------
    # Detection and restart (called from the monitor thread)
    # ------------------------------------------------------------------
    def check(self) -> List[Tuple[int, int, str]]:
        """One health pass: detect failures, restart, report them.

        Returns ``[(worker_id, dead_generation, reason), ...]`` for
        every worker that failed since the last pass; ``on_failure``
        has already fired and the replacement is already starting when
        this returns.
        """
        failures: List[Tuple[int, int, str]] = []
        now = time.monotonic()
        with self._lock:
            if self._stopping:
                return failures
            for handle in self.handles:
                if handle.state not in (READY, STARTING):
                    continue
                proc = handle.process
                if proc is not None and not proc.is_alive():
                    reason = f"crashed (exit code {proc.exitcode})"
                elif (handle.state == READY
                        and now - handle.last_heartbeat
                        > self.config.stall_after_s):
                    reason = (f"stalled (no heartbeat for "
                              f"{now - handle.last_heartbeat:.2f}s)")
                    proc.terminate()
                    proc.join(timeout=1.0)
                    if proc.is_alive():  # pragma: no cover
                        proc.kill()
                        proc.join(timeout=1.0)
                elif (handle.state == STARTING
                        and now - handle.last_heartbeat
                        > self.config.start_timeout_s):
                    reason = "never became ready"
                    proc.terminate()
                    proc.join(timeout=1.0)
                else:
                    continue
                failures.append((handle.worker_id, handle.generation,
                                 reason))
                handle.state = DEAD
        for worker_id, generation, reason in failures:
            LOG.warning("worker %d (gen %d) %s; restarting",
                        worker_id, generation, reason)
            obs.count("frontend/worker_restarts")
            obs.trace_event("frontend/worker_failure", worker=worker_id,
                            generation=generation, reason=reason)
            # Restart bookkeeping BEFORE the failover callback: the
            # callback resolves client futures, and a client that saw
            # its future resolve must also see total_restarts reflect
            # the failure (drills read it right after their last
            # future).  Routing cannot reach the replacement early —
            # it stays not-ready until its first heartbeat.
            with self._lock:
                if self._stopping:
                    break
                handle = self.handles[worker_id]
                old_channel = handle.channel
                handle.restarts += 1
                self.total_restarts += 1
                self._spawn_locked(handle)
            if old_channel is not None:
                old_channel.close()
            if self.on_failure is not None:
                self.on_failure(worker_id, generation, reason)
        return failures

    # ------------------------------------------------------------------
    # Aggregated health (satellite view for /status)
    # ------------------------------------------------------------------
    def fleet_health(self) -> Dict[str, object]:
        """Per-shard worker + breaker view, plus fleet-wide rollups.

        ``shards`` maps shard id → that worker's state and breaker
        snapshot; ``breaker_states`` counts workers per breaker state,
        and ``any_breaker_open`` is the one-glance flag surfaced by
        ``repro serve http --status``.
        """
        with self._lock:
            shards = {str(h.shard_id): h.snapshot()
                      for h in self.handles}
        states: Dict[str, int] = {}
        for snap in shards.values():
            state = str(snap["breaker"].get("state", "unknown"))
            states[state] = states.get(state, 0) + 1
        return {
            "n_workers": len(shards),
            "ready": sum(1 for s in shards.values()
                         if s["state"] == READY),
            "total_restarts": self.total_restarts,
            "shards": shards,
            "breaker_states": states,
            "any_breaker_open": any(
                s["breaker"].get("state") == "open"
                for s in shards.values()),
        }
