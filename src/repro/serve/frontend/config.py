"""Deployment configuration for the multi-worker serving front-end.

:class:`FrontendConfig` is to :class:`~repro.serve.frontend.core.
ServingFrontend` what :class:`~repro.serve.ServiceConfig` is to the
in-process engine: one frozen dataclass holding every knob the
front-end is allowed to decide per deployment — worker count, admission
bounds, deadline defaults, and stall detection.  The nested
:class:`ServiceConfig` is handed verbatim to every worker's engine, so
per-worker behaviour (retries, breaker, cache, fallback) stays declared
in one place.

Batching is not a knob: the dispatcher sends each shard what has been
admitted as soon as it wakes, and a worker coalesces whatever queued up
behind it while it was busy, up to :data:`MAX_BATCH` requests per
engine call.  An idle fleet therefore answers at once and a loaded one
batches by itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.robust.policies import ConfigError
from repro.serve.config import ServiceConfig

# Requests per dispatched message and per worker engine call.
MAX_BATCH = 64

# Worker heartbeat period: idle workers heartbeat this often, busy ones
# after a result once this much time has passed.  Heartbeats alone
# carry a worker's stats and breaker snapshot.
HEARTBEAT_INTERVAL_S = 0.1


@dataclass(frozen=True)
class FrontendConfig:
    """Everything the multi-worker front-end decides per deployment.

    Parameters
    ----------
    n_workers:
        Worker processes; the user space is range-sharded into exactly
        this many shards, one worker per shard.
    service:
        Per-worker :class:`~repro.serve.ServiceConfig` (list length,
        LRU cache, retry/breaker policies, fallback mode).
    max_queue_depth:
        Admission bound: with this many admitted-but-unresolved
        requests in the system, new arrivals are shed (HTTP 429,
        ``shed_requests`` counter) instead of queueing unboundedly.
    wait_budget_ms:
        Second shedding trigger: when the EWMA of recently observed
        queue waits exceeds this budget, arrivals are shed until the
        backlog drains.  ``None`` disables it (depth bound only).
    default_deadline_ms:
        Deadline attached to requests that do not carry their own;
        ``None`` means no deadline.  The deadline propagates from
        admission through queue wait into worker scoring.
    stall_after_s:
        A worker whose last heartbeat is older than this is declared
        stalled, killed, and restarted.  Must comfortably exceed
        :data:`HEARTBEAT_INTERVAL_S` plus the longest legitimate batch.
    start_timeout_s:
        How long to wait for every worker's first heartbeat at startup
        (and for a replacement worker to warm up) before giving up.
    telemetry:
        Record front-end counters/histograms/trace events through
        :mod:`repro.obs` when a run is active.  Fault drills that would
        pollute a run's SLO numbers (deliberate kill benchmarks) turn
        this off.
    """

    n_workers: int = 2
    service: ServiceConfig = field(default_factory=ServiceConfig)
    max_queue_depth: int = 256
    wait_budget_ms: Optional[float] = None
    default_deadline_ms: Optional[float] = 250.0
    stall_after_s: float = 2.0
    start_timeout_s: float = 30.0
    telemetry: bool = True

    def __post_init__(self):
        if self.n_workers <= 0:
            raise ConfigError(
                f"n_workers must be positive, got {self.n_workers}")
        if self.max_queue_depth <= 0:
            raise ConfigError(f"max_queue_depth must be positive, "
                             f"got {self.max_queue_depth}")
        if self.wait_budget_ms is not None and self.wait_budget_ms <= 0:
            raise ConfigError(f"wait_budget_ms must be positive or None, "
                             f"got {self.wait_budget_ms}")
        if (self.default_deadline_ms is not None
                and self.default_deadline_ms <= 0):
            raise ConfigError(
                f"default_deadline_ms must be positive or None, "
                f"got {self.default_deadline_ms}")
        if self.start_timeout_s <= 0:
            raise ConfigError(f"start_timeout_s must be positive, "
                             f"got {self.start_timeout_s}")
        if self.stall_after_s <= HEARTBEAT_INTERVAL_S:
            raise ConfigError(
                f"stall_after_s ({self.stall_after_s}) must exceed the "
                f"heartbeat interval ({HEARTBEAT_INTERVAL_S}); healthy "
                f"idle workers would look stalled")
