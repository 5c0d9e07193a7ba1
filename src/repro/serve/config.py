"""Formal serving configuration for :class:`~repro.serve.RecommendService`.

:class:`ServiceConfig` replaces the loose keyword arguments the engine
grew in PR4 with one frozen dataclass, composing the shared robustness
policies from :mod:`repro.robust.policies`.  A config object is plain
data: it can be logged, diffed between environments, and shared between
a drill, a test, and the CLI without re-spelling knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.robust.policies import BreakerPolicy, ConfigError, RetryPolicy

FALLBACK_MODES = ("popularity", "stale_index")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the serving engine is allowed to decide per deployment.

    Parameters
    ----------
    k:
        Default list length per request.
    cache_size:
        Maximum cached responses (LRU eviction); ``0`` disables caching.
    exclude_seen:
        Mask each user's training items out of their ranking (the same
        policy the evaluator applies).
    batch_size:
        Most requests per scoring call and mask/top-K pass inside
        ``query_batch`` — a memory bound only; results do not depend
        on it beyond near-ties (DESIGN.md §8).
    retry:
        :class:`~repro.robust.policies.RetryPolicy` guarding each index
        scoring call (attempts, backoff, per-request deadline).
    breaker:
        :class:`~repro.robust.policies.BreakerPolicy` for the
        error-rate circuit breaker over guarded requests.
    fallback:
        What a degraded request gets instead of fresh scores:
        ``"popularity"`` (default) serves the popularity ranking with
        the user's seen items masked; ``"stale_index"`` first tries the
        service's ``fallback_index`` (e.g. yesterday's index) and only
        then popularity.
    """

    k: int = 10
    cache_size: int = 1024
    exclude_seen: bool = True
    batch_size: int = 256
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    fallback: str = "popularity"

    def __post_init__(self):
        if self.k <= 0:
            raise ConfigError(f"k must be positive, got {self.k}")
        if self.cache_size < 0:
            raise ConfigError(
                f"cache_size must be >= 0, got {self.cache_size}")
        if self.batch_size <= 0:
            raise ConfigError(
                f"batch_size must be positive, got {self.batch_size}")
        if self.fallback not in FALLBACK_MODES:
            raise ConfigError(
                f"unknown fallback mode {self.fallback!r}; "
                f"known: {list(FALLBACK_MODES)}")
