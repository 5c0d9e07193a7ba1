"""Deterministic fault injection for training and serving drills.

A :class:`FaultPlan` is a seeded schedule of failures.  Every draw comes
from the plan's own generator, so the same plan against the same request
sequence injects the same faults — drills, tests, and CI all replay
bit-identically.

Fault kinds
-----------
``nan_grad``
    On the first batch of epoch ``epoch``, overwrite one element of a
    parameter's gradient with NaN (the classic hyperbolic-training
    blowup: one bad conversion near the manifold boundary).
``nan_param``
    At the start of epoch ``epoch``, poison one element of a parameter
    table — diverges every model regardless of whether its optimizer
    skips non-finite gradients.
``kill``
    Raise :class:`SimulatedCrash` after epoch ``epoch``'s bookkeeping
    (a process-kill point: the auto-checkpoint for that epoch, if due,
    has already been written).
``score_error``
    Each scored row fails with probability ``rate``
    (:class:`InjectedScoringError`).
``score_delay``
    Each scored row sleeps ``delay_s`` with probability ``rate``
    (exercises request timeouts).
``worker_kill``
    A serving worker process calls ``os._exit`` after handling
    ``after_requests`` requests — the front-end supervisor must detect
    the dead process, fail its in-flight work over to the degraded
    fallback, and restart it (:mod:`repro.serve.frontend`).
``worker_stall``
    A worker stops serving *and* heartbeating for ``delay_s`` seconds
    after ``after_requests`` requests — the live-process-but-wedged
    failure mode that only heartbeat ageing can catch.
``slow_shard``
    Requests routed to shard ``shard`` (every shard when ``None``)
    sleep ``delay_s`` with probability ``rate`` before scoring —
    drives queue growth, deadline expiry, and load shedding on one
    slice of the user space.
``journal_corrupt``
    Flip one byte of an event-journal record in place — the reader
    must raise a typed :class:`~repro.data.dataset.StreamError`
    carrying the poison offset instead of ingesting garbage.
``event_disorder``
    Deliver a batch whose timestamps go backwards — ingest must
    reject it before mutating (the temporal-split contract).
``event_duplicate``
    Re-deliver an already-ingested ``(user, item)`` pair — skipped
    under the default at-least-once policy, a typed error under
    ``on_duplicate="error"``.  Stream faults are exercised through
    :func:`repro.robust.drills.run_stream_drill`.

Training faults fire **once** by default (``once=True``): after the
recovery machinery rolls the run back, the retry proceeds cleanly —
matching real transient blowups, where a smaller learning rate gets
past the bad batch.  Set ``once=False`` for a persistent fault (used to
test retry-budget exhaustion).  Scoring faults are rate-based and use
``max_faults`` to bound how many times they fire.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

TRAINING_KINDS = ("nan_grad", "nan_param", "kill")
SCORING_KINDS = ("score_error", "score_delay")
PROCESS_KINDS = ("worker_kill", "worker_stall", "slow_shard")
STREAM_KINDS = ("journal_corrupt", "event_disorder", "event_duplicate")
FAULT_KINDS = TRAINING_KINDS + SCORING_KINDS + PROCESS_KINDS \
    + STREAM_KINDS


class FaultInjectionError(Exception):
    """Base class for every injected failure."""


class InjectedScoringError(FaultInjectionError):
    """A scoring call failed because the fault plan said so.

    ``rows`` holds the positions, within the call, of the rows that
    failed; the serving engine reads it off any scoring exception and
    takes a missing one to mean every row.
    """

    def __init__(self, message: str, rows: Optional[List[int]] = None):
        super().__init__(message)
        self.rows = rows


class SimulatedCrash(FaultInjectionError):
    """Training hit an injected process-kill point."""


@dataclass
class FaultSpec:
    """One scheduled fault; see the module docstring for the kinds."""

    kind: str
    epoch: Optional[int] = None     # nan_grad / nan_param / kill
    rate: float = 0.0               # score_error / score_delay / slow_shard
    delay_s: float = 0.0            # score_delay / worker_stall / slow_shard
    param_index: int = 0            # which parameter to poison
    once: bool = True               # training faults fire a single time
    max_faults: Optional[int] = None  # cap on scoring-fault firings
    after_requests: Optional[int] = None  # worker_kill / worker_stall
    worker: int = 0                 # target worker id (process faults)
    shard: Optional[int] = None     # slow_shard target (None = every shard)
    fired: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {list(FAULT_KINDS)}")
        if self.kind in TRAINING_KINDS and self.epoch is None:
            raise ValueError(f"{self.kind} fault needs an epoch")
        if (self.kind in SCORING_KINDS + ("slow_shard",)
                and not 0.0 <= self.rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if (self.kind in ("worker_kill", "worker_stall")
                and self.after_requests is None):
            raise ValueError(f"{self.kind} fault needs after_requests")
        if self.kind == "worker_stall" and self.delay_s <= 0:
            raise ValueError(
                f"worker_stall needs a positive delay_s, "
                f"got {self.delay_s}")
        if self.kind == "slow_shard" and self.delay_s <= 0:
            raise ValueError(
                f"slow_shard needs a positive delay_s, got {self.delay_s}")

    def exhausted(self) -> bool:
        if self.kind in (TRAINING_KINDS + ("worker_kill", "worker_stall")
                         + STREAM_KINDS):
            return self.once and self.fired > 0
        return self.max_faults is not None and self.fired >= self.max_faults


class FaultPlan:
    """A seeded, replayable schedule of :class:`FaultSpec` entries.

    The plan is consulted by :class:`repro.robust.TrainingSupervisor`
    (training faults) and :class:`FaultyIndex` (scoring faults); every
    injection is appended to :attr:`events` as ``(kind, detail)`` so
    drills and tests can assert exactly what fired.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.specs: List[FaultSpec] = list(specs)
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.events: List[Tuple[str, dict]] = []

    def _record(self, spec: FaultSpec, **detail) -> None:
        spec.fired += 1
        self.events.append((spec.kind, detail))

    # ------------------------------------------------------------------
    # Training-side queries (consulted by the TrainingSupervisor)
    # ------------------------------------------------------------------
    def _training_spec(self, kind: str, epoch: int) -> Optional[FaultSpec]:
        for spec in self.specs:
            if (spec.kind == kind and spec.epoch == epoch
                    and not spec.exhausted()):
                return spec
        return None

    def take_nan_grad(self, epoch: int) -> Optional[FaultSpec]:
        """The ``nan_grad`` spec due this epoch, marking it fired."""
        spec = self._training_spec("nan_grad", epoch)
        if spec is not None:
            self._record(spec, epoch=epoch, param_index=spec.param_index)
        return spec

    def take_nan_param(self, epoch: int) -> Optional[FaultSpec]:
        """The ``nan_param`` spec due this epoch, marking it fired."""
        spec = self._training_spec("nan_param", epoch)
        if spec is not None:
            self._record(spec, epoch=epoch, param_index=spec.param_index)
        return spec

    def take_kill(self, epoch: int) -> bool:
        """True when an unexpired kill point is scheduled for ``epoch``."""
        spec = self._training_spec("kill", epoch)
        if spec is not None:
            self._record(spec, epoch=epoch)
            return True
        return False

    # ------------------------------------------------------------------
    # Serving-side draws (consulted by FaultyIndex per scored row)
    # ------------------------------------------------------------------
    def draw_scoring_fault(self) -> Optional[FaultSpec]:
        """One seeded draw per active scoring spec; first hit wins.

        Draw order is the spec order, and the generator advances once
        per active spec per call, so the fault sequence is a pure
        function of ``(seed, call sequence)``.
        """
        hit: Optional[FaultSpec] = None
        for spec in self.specs:
            if spec.kind not in SCORING_KINDS or spec.exhausted():
                continue
            if self.rng.random() < spec.rate and hit is None:
                hit = spec
        if hit is not None:
            self._record(hit, delay_s=hit.delay_s)
        return hit

    # ------------------------------------------------------------------
    # Stream-side draws (consulted by the ingest drill)
    # ------------------------------------------------------------------
    def take_stream(self, kind: str) -> Optional[FaultSpec]:
        """The unexpired stream spec of ``kind``, marking it fired."""
        if kind not in STREAM_KINDS:
            raise ValueError(f"not a stream fault kind: {kind!r}")
        for spec in self.specs:
            if spec.kind == kind and not spec.exhausted():
                self._record(spec)
                return spec
        return None

    # ------------------------------------------------------------------
    # Artifact corruption
    # ------------------------------------------------------------------
    @staticmethod
    def corrupt_file(path, seed: int = 0) -> int:
        """Flip one seeded byte of ``path`` in place; returns the offset.

        Used to prove the checkpoint/index checksum actually catches
        bit rot instead of loading a silently wrong model.
        """
        path = Path(path)
        blob = bytearray(path.read_bytes())
        if not blob:
            raise ValueError(f"cannot corrupt empty file {path}")
        offset = int(np.random.default_rng(seed).integers(0, len(blob)))
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        return offset

    def counts(self) -> dict:
        """``{kind: times fired}`` over everything injected so far."""
        out: dict = {}
        for kind, _ in self.events:
            out[kind] = out.get(kind, 0) + 1
        return out


class FaultyIndex:
    """Proxy over a :class:`~repro.serve.RetrievalIndex` that injects
    scoring faults at the exact boundary the serving engine guards.

    Only :meth:`score_users` is intercepted — masks, popularity, and
    metadata pass straight through — so everything the engine does with
    a *successful* score stays bit-identical to the clean index.  A
    batched call draws one fault per row: delays add up, and when any
    row draws ``score_error`` the call raises with those rows' positions
    in ``exc.rows``, so the engine charges exactly one scoring failure
    per injected fault.
    """

    def __init__(self, index, plan: FaultPlan):
        self._index = index
        self._plan = plan

    def __getattr__(self, name):
        return getattr(self._index, name)

    def score_users(self, user_ids) -> np.ndarray:
        failed: List[int] = []
        for row in range(len(user_ids)):
            spec = self._plan.draw_scoring_fault()
            if spec is None:
                continue
            if spec.kind == "score_error":
                failed.append(row)
            else:
                time.sleep(spec.delay_s)
        if failed:
            raise InjectedScoringError(
                f"injected scoring failure for users "
                f"{[int(user_ids[row]) for row in failed]}", rows=failed)
        return self._index.score_users(user_ids)
