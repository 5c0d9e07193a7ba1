"""Declarative robustness policies.

Three small frozen dataclasses describe *what* the system should do
under failure; the mechanisms that *execute* them live elsewhere:

* :class:`RetryPolicy` / :class:`BreakerPolicy` — consumed by
  :class:`repro.serve.RecommendService` (via
  :class:`repro.serve.ServiceConfig`) to guard index scoring calls;
* :class:`ResilienceConfig` — consumed by
  :class:`repro.robust.TrainingSupervisor` to drive auto-checkpointing,
  divergence rollback, and resume inside :meth:`Recommender.fit`.

Keeping the policies as plain data (no callables, no state) means a
drill, a test, and production serving can share the exact same policy
object, and the policy round-trips through ``repr`` for logging.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union


class ConfigError(ValueError):
    """A config field holds an unusable value.

    Raised by the ``__post_init__`` checks of the policy and serving
    config dataclasses, so the CLI can report a bad flag value as one
    ``error:`` line (exit 2) while any other ``ValueError`` keeps its
    traceback.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-backoff around a single scoring call.

    Parameters
    ----------
    retries:
        Additional attempts after the first failure (``0`` = fail fast).
    backoff_s:
        Sleep before retry ``i`` is ``backoff_s * 2**(i-1)`` seconds;
        ``0`` retries immediately (what deterministic tests use).
    timeout_s:
        A call that takes longer than this counts as a failure (the
        caller cannot preempt a running numpy kernel, so this is a
        deadline check, not a hard cancel).  ``None`` disables it.
    """

    retries: int = 2
    backoff_s: float = 0.0
    timeout_s: Optional[float] = None

    def __post_init__(self):
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ConfigError(
                f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError(
                f"timeout_s must be positive or None, got {self.timeout_s}")


@dataclass(frozen=True)
class BreakerPolicy:
    """Error-rate circuit breaker over a sliding request window.

    The breaker opens when, over the last ``window`` guarded requests
    (and at least ``min_requests`` of them), the failure rate reaches
    ``threshold``.  While open it short-circuits ``cooldown`` requests
    straight to the fallback, then lets one probe request through
    (half-open): a probe success closes the breaker, a failure re-opens
    it.  Cooldown is counted in *requests*, not seconds, so drills and
    tests are deterministic.
    """

    window: int = 50
    threshold: float = 0.5
    min_requests: int = 10
    cooldown: int = 25

    def __post_init__(self):
        if self.window <= 0:
            raise ConfigError(f"window must be positive, got {self.window}")
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigError(
                f"threshold must be in (0, 1], got {self.threshold}")
        if self.min_requests <= 0:
            raise ConfigError(
                f"min_requests must be positive, got {self.min_requests}")
        if self.cooldown <= 0:
            raise ConfigError(
                f"cooldown must be positive, got {self.cooldown}")


@dataclass(frozen=True)
class ResilienceConfig:
    """Training-side recovery policy (auto-checkpoint / rollback / resume).

    Parameters
    ----------
    checkpoint_dir:
        Directory for the rolling auto-checkpoint (PR4 format plus a
        ``fit_state`` sidecar holding optimizer state, best-epoch
        snapshot, and the retry budget).
    checkpoint_every:
        Save after every N completed epochs.  An initial epoch-0
        checkpoint is always written so rollback has a target even
        before the first interval elapses.
    max_retries:
        Divergence rollbacks allowed before :class:`TrainingDivergedError`
        is raised.  The budget spans the whole fit (and survives
        resume), so a persistently unstable run cannot loop forever.
    lr_backoff:
        Multiplier applied to the optimizer learning rate after each
        rollback (``0.5`` halves it).
    resume:
        Start from the checkpoint in ``checkpoint_dir`` when one exists
        (what ``repro train --resume`` sets).
    """

    checkpoint_dir: Union[str, Path]
    checkpoint_every: int = 5
    max_retries: int = 3
    lr_backoff: float = 0.5
    resume: bool = False

    def __post_init__(self):
        if self.checkpoint_every <= 0:
            raise ConfigError(
                f"checkpoint_every must be positive, "
                f"got {self.checkpoint_every}")
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if not 0.0 < self.lr_backoff <= 1.0:
            raise ConfigError(
                f"lr_backoff must be in (0, 1], got {self.lr_backoff}")
