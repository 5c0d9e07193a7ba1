"""Error-rate circuit breaker (closed → open → half-open).

Protects the serving hot path from hammering a failing scorer: once the
recent failure rate crosses the policy threshold the breaker *opens* and
the engine serves fallbacks without touching the index at all, which is
both faster for the caller and kinder to whatever is failing.  After a
request-counted cooldown one probe is let through (*half-open*); its
outcome decides between closing and re-opening.

Single-threaded by design (the engine is synchronous), request-counted
rather than clock-based so drills replay deterministically.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.robust.policies import BreakerPolicy

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Sliding-window failure-rate breaker driven by :class:`BreakerPolicy`.

    ``on_transition(old_state, new_state)`` is invoked on every state
    change — the serving engine hangs trace events off it so breaker
    open/half-open/close shows up on the request timeline.  The hook
    runs under the caller's trace context (transitions happen inside a
    request's ``allow``/``record``), and it must not raise.
    """

    def __init__(self, policy: BreakerPolicy = None,
                 on_transition: Optional[Callable[[str, str], None]] = None):
        self.policy = policy if policy is not None else BreakerPolicy()
        self.on_transition = on_transition
        self.state = CLOSED
        self.opens = 0                 # lifetime open transitions
        self._window: Deque[bool] = deque(maxlen=self.policy.window)
        self._cooldown_left = 0

    def _set_state(self, new_state: str) -> None:
        old_state = self.state
        self.state = new_state
        if self.on_transition is not None and old_state != new_state:
            self.on_transition(old_state, new_state)

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Should the next request attempt real scoring?

        While open, counts down the cooldown and short-circuits; the
        request that exhausts it becomes the half-open probe.
        """
        if self.state == OPEN:
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                return False
            self._set_state(HALF_OPEN)
        return True

    def record(self, ok: bool) -> bool:
        """Record a guarded request's final outcome.

        Returns True when this outcome tripped the breaker open (the
        caller counts open transitions in its metrics).
        """
        if self.state == HALF_OPEN:
            if ok:
                self._set_state(CLOSED)
                self._window.clear()
                return False
            return self._open()
        self._window.append(ok)
        if (self.state == CLOSED
                and len(self._window) >= self.policy.min_requests):
            failures = self._window.count(False)
            if failures / len(self._window) >= self.policy.threshold:
                return self._open()
        return False

    def headroom(self, limit: int) -> int:
        """How many of the next ``limit`` outcomes cannot change the state.

        0 unless closed.  Otherwise the count of failures in a row the
        window absorbs without opening: no mix of outcomes opens sooner
        than all failures do, so that many requests may be attempted
        before any of them is recorded, and each still sees the breaker
        exactly as it would have one request at a time.
        """
        if self.state != CLOSED:
            return 0
        size, old = self.policy.window, list(self._window)
        failures = old.count(False)
        for n in range(limit):
            failures += 1
            total = len(old) + n + 1
            if total > size:      # the oldest outcome slides out
                gone = total - size - 1
                if gone >= len(old) or not old[gone]:
                    failures -= 1
            length = min(total, size)
            if (length >= self.policy.min_requests
                    and failures / length >= self.policy.threshold):
                return n
        return limit

    def _open(self) -> bool:
        self._set_state(OPEN)
        self.opens += 1
        self._cooldown_left = self.policy.cooldown
        self._window.clear()
        return True

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """State for metrics/debug output."""
        return {"state": self.state, "opens": self.opens,
                "window_size": len(self._window),
                "cooldown_left": self._cooldown_left}
