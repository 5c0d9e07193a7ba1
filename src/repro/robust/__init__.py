"""``repro.robust`` — fault injection, recovery policies, and drills.

The robustness subsystem closes the detect→recover loop around both
halves of the system:

* :mod:`repro.robust.faults` — :class:`FaultPlan`, a seeded schedule of
  NaN gradients, poisoned parameters, process-kill points, corrupted
  checkpoint bytes, failing/slow scoring calls, and poisoned event
  streams, replayable bit-identically from tests, drills, and
  ``repro robust inject``.
* :mod:`repro.robust.policies` — frozen policy dataclasses
  (:class:`RetryPolicy`, :class:`BreakerPolicy`,
  :class:`ResilienceConfig`) shared by training and serving.
* :mod:`repro.robust.training` — :class:`TrainingSupervisor`:
  auto-checkpoint every N epochs (PR4 format + ``fit_state`` sidecar),
  divergence rollback with learning-rate backoff under a bounded retry
  budget, and bit-identical ``--resume``.
* :mod:`repro.robust.breaker` — the error-rate :class:`CircuitBreaker`
  the serving engine trips to its fallback.
* :mod:`repro.robust.drills` — the end-to-end scenarios behind
  ``repro robust inject`` and the CI fault smoke.
"""

from repro.robust.breaker import CircuitBreaker
from repro.robust.faults import (FAULT_KINDS, PROCESS_KINDS,
                                 STREAM_KINDS, FaultInjectionError,
                                 FaultPlan, FaultSpec, FaultyIndex,
                                 InjectedScoringError, SimulatedCrash)
from repro.robust.policies import (BreakerPolicy, ConfigError,
                                   ResilienceConfig, RetryPolicy)
from repro.robust.training import (TrainingDivergedError,
                                   TrainingSupervisor, has_fit_state,
                                   load_fit_state, save_fit_state)

__all__ = [
    "FAULT_KINDS",
    "PROCESS_KINDS",
    "STREAM_KINDS",
    "FaultInjectionError",
    "FaultPlan",
    "FaultSpec",
    "FaultyIndex",
    "InjectedScoringError",
    "SimulatedCrash",
    "BreakerPolicy",
    "ConfigError",
    "ResilienceConfig",
    "RetryPolicy",
    "CircuitBreaker",
    "TrainingDivergedError",
    "TrainingSupervisor",
    "has_fit_state",
    "load_fit_state",
    "save_fit_state",
]
