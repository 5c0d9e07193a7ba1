"""``repro.serve.frontend`` — multi-worker serving that survives overload.

The scale-out half of :mod:`repro.serve`: the frozen
:class:`~repro.serve.RetrievalIndex` is range-sharded into shared
memory (:mod:`~repro.serve.frontend.sharding`), served by supervised
worker processes (:mod:`~repro.serve.frontend.worker`,
:mod:`~repro.serve.frontend.supervisor`), and fronted by an admission-
controlled dispatcher (:mod:`~repro.serve.frontend.core`) with an
asyncio HTTP edge (:mod:`~repro.serve.frontend.http`) — the surface
behind ``repro serve http``.  The package is the server only; the
open-loop load generator that drives it is a client and lives in
:mod:`repro.serve.bench`.

The contract, in one sentence: under overload the front-end sheds (429)
instead of queueing unboundedly, under worker failure it degrades
(popularity fallback) instead of erroring, and under SIGTERM it drains
instead of dropping — an admitted request always gets an answer.
"""

from repro.serve.frontend.config import FrontendConfig
from repro.serve.frontend.core import PendingRequest, ServingFrontend
from repro.serve.frontend.http import (HttpFrontendServer, fetch_status,
                                       run_http_server)
from repro.serve.frontend.sharding import (ShardLayout, SharedIndexArena,
                                           attach_shard, create_shards,
                                           shard_boundaries)
from repro.serve.frontend.supervisor import WorkerHandle, WorkerSupervisor

__all__ = [
    "FrontendConfig",
    "HttpFrontendServer",
    "PendingRequest",
    "ServingFrontend",
    "ShardLayout",
    "SharedIndexArena",
    "WorkerHandle",
    "WorkerSupervisor",
    "attach_shard",
    "create_shards",
    "fetch_status",
    "run_http_server",
    "shard_boundaries",
]
