"""Offline serving: checkpoints, retrieval index, and an inference engine.

The subsystem turns a trained in-memory model into deployable artifacts:

* :mod:`repro.serve.checkpoint` — ``arrays.npz`` + ``checkpoint.json``
  in the one checksummed :mod:`repro.artifact` format.  Round-tripping a
  model gives bit-identical scores and bit-identical *resumed* training.
* :mod:`repro.serve.index` — an offline index builder that freezes the
  model's scoring arithmetic (:meth:`Recommender.export_scoring`) into
  precomputed tables (``index.npz`` + ``index.json``, the same format),
  so per-request scoring is one small matvec, not a full forward pass.
* :mod:`repro.serve.config` — :class:`ServiceConfig`, the formal
  deployment configuration (list length, cache, retry/breaker policies,
  fallback mode) shared by the engine, the bench, and the CLI.
* :mod:`repro.serve.engine` — :class:`RecommendService`, a batched online
  inference engine with an LRU response cache, retry/timeout guards, an
  error-rate circuit breaker, and graceful degradation (stale-index or
  popularity fallback) for unknown users and failed scoring.
* :mod:`repro.serve.bench` — the one load harness, behind
  ``benchmarks/bench_serve.py`` and ``repro serve bench``: closed-loop
  request paths in process, and open-loop overload plus a worker-kill
  drill against the front-end.
* :mod:`repro.serve.frontend` — the multi-worker scale-out layer:
  shared-memory index shards served by supervised worker processes
  behind an admission-controlled asyncio HTTP edge
  (``repro serve http``).
"""

from repro.serve.checkpoint import (CHECKPOINT_VERSION, CheckpointError,
                                    load_checkpoint, read_checkpoint_meta,
                                    save_checkpoint)
from repro.serve.config import FALLBACK_MODES, ServiceConfig
from repro.serve.index import (INDEX_VERSION, IndexFormatError,
                               RetrievalIndex, build_index, load_index)
from repro.serve.engine import RecommendService
from repro.serve.frontend import FrontendConfig, ServingFrontend

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
    "INDEX_VERSION",
    "IndexFormatError",
    "RetrievalIndex",
    "build_index",
    "load_index",
    "FALLBACK_MODES",
    "ServiceConfig",
    "RecommendService",
    "FrontendConfig",
    "ServingFrontend",
]
