"""Multi-worker serving front-end: sharding, admission, supervision.

The load-bearing guarantees under test:

* **Sharding is invisible** — a shard attached from shared memory
  scores bit-identically to the original index (embeddings, CSR seen
  masks, popularity), including empty shards and single-user shards.
* **An admitted request always gets an answer** — worker kills and
  stalls surface as degraded popularity fallbacks and supervisor
  restarts, never as client-visible errors; graceful drain resolves
  every in-flight future.
* **Deadlines propagate end to end** — dead-on-arrival requests are
  rejected at admission, requests that expire waiting in a queue are
  shed without scoring, and requests that expire mid-scoring feed the
  engine's ``timeouts`` counter.

The worker fleet uses real forked processes and shared memory, so the
process-spawning tests share one module-scoped index and keep their
request counts small; timing margins are generous for 1-CPU CI boxes.
"""

import multiprocessing
import pickle
import select
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.robust import FaultPlan, FaultSpec
from repro.serve import RecommendService, ServiceConfig
from repro.serve.engine import popularity_items
from repro.serve.bench import estimate_capacity, run_open_loop
from repro.serve.frontend import (FrontendConfig, ServingFrontend,
                                  attach_shard, create_shards,
                                  shard_boundaries)
from repro.serve.frontend.config import MAX_BATCH
from repro.serve.frontend.worker import (BYE, HEARTBEAT, RESULT,
                                         SHUTDOWN, worker_main)
from repro.serve.index import RetrievalIndex


def toy_index(n_users=50, n_items=40, dim=8, seed=0) -> RetrievalIndex:
    """A small ``dot``-kind index with random CSR seen lists.

    Users whose drawn interaction count is zero exercise the
    zero-interaction regression: their CSR row is empty and scoring
    must not mask anything.
    """
    rng = np.random.default_rng(seed)
    user = rng.normal(size=(n_users, dim))
    item = rng.normal(size=(n_items, dim))
    indptr = [0]
    indices = []
    for _ in range(n_users):
        seen = rng.choice(n_items, size=rng.integers(0, 5), replace=False)
        indices.extend(sorted(int(i) for i in seen))
        indptr.append(len(indices))
    counts = np.bincount(np.array(indices, dtype=np.int64),
                         minlength=n_items)
    popularity = np.argsort(-counts, kind="stable").astype(np.int64)
    return RetrievalIndex(
        kind="dot", arrays={"user": user, "item": item}, scalars={},
        train_indptr=np.array(indptr, dtype=np.int64),
        train_indices=np.array(indices, dtype=np.int64),
        popularity=popularity,
        meta={"n_users": n_users, "n_items": n_items})


@pytest.fixture(scope="module")
def index() -> RetrievalIndex:
    return toy_index()


def _run_worker_inline(index, messages, after_sentinel=None):
    """Run ``worker_main`` in this process on one shard of ``index``.

    ``messages`` are written to its request pipe ahead of the shutdown
    sentinel (and the message ``after_sentinel`` behind it); returns
    every reply it sent, the request pipe's read end, and each reply's
    size in bytes as read from the pipe.
    """
    requests, to_worker = multiprocessing.Pipe(duplex=False)
    from_worker, replies = multiprocessing.Pipe(duplex=False)
    arena = create_shards(index, 1)
    try:
        for message in messages:
            to_worker.send(message)
        to_worker.send(SHUTDOWN)
        if after_sentinel is not None:
            to_worker.send(after_sentinel)
        worker_main(0, 1, arena.layout, 0, _config(n_workers=1),
                    requests, replies)
    finally:
        arena.close()
    received = []
    while from_worker.poll():
        received.append(from_worker.recv_bytes())
    return [pickle.loads(buf) for buf in received], requests, \
        [len(buf) for buf in received]


def _config(**overrides) -> FrontendConfig:
    base = dict(n_workers=2, service=ServiceConfig(k=10, cache_size=0),
                start_timeout_s=60.0)
    base.update(overrides)
    return FrontendConfig(**base)


# ----------------------------------------------------------------------
# Sharding: boundaries, bit-identity, hostile shapes
# ----------------------------------------------------------------------
class TestSharding:
    def test_boundaries_partition_the_user_space(self):
        for n_users, n_shards in [(50, 2), (7, 3), (3, 5), (1, 1)]:
            bounds = shard_boundaries(n_users, n_shards)
            assert len(bounds) == n_shards
            assert bounds[0][0] == 0 and bounds[-1][1] == n_users
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo
        with pytest.raises(ValueError):
            shard_boundaries(10, 0)

    def test_attached_shards_score_bit_identically(self, index):
        arena = create_shards(index, 3)
        try:
            for spec in arena.layout.shards:
                shard = attach_shard(arena.layout, spec.shard_id)
                try:
                    for uid in range(spec.lo, spec.hi):
                        local = uid - spec.lo
                        assert np.array_equal(
                            shard.index.score_users([local]),
                            index.score_users([uid]))
                        assert np.array_equal(
                            shard.index.seen_items(local),
                            index.seen_items(uid))
                    assert np.array_equal(shard.index.popularity,
                                          index.popularity)
                finally:
                    shard.close()
        finally:
            arena.close()

    def test_more_shards_than_users(self):
        tiny = toy_index(n_users=3, n_items=10)
        arena = create_shards(tiny, 5)
        try:
            layout = arena.layout
            populated = [s for s in layout.shards if s.n_users]
            empty = [s for s in layout.shards if not s.n_users]
            assert len(populated) == 3 and len(empty) == 2
            # Single-user shards score their one row correctly ...
            for spec in populated:
                shard = attach_shard(layout, spec.shard_id)
                try:
                    assert np.array_equal(shard.index.score_users([0]),
                                          tiny.score_users([spec.lo]))
                finally:
                    shard.close()
            # ... and empty shards attach without blowing up.
            shard = attach_shard(layout, empty[0].shard_id)
            try:
                assert shard.index.n_users == 0
            finally:
                shard.close()
        finally:
            arena.close()

    def test_shard_for_user(self, index):
        arena = create_shards(index, 4)
        try:
            layout = arena.layout
            for uid in range(index.n_users):
                spec = layout.shards[layout.shard_for_user(uid)]
                assert spec.lo <= uid < spec.hi
            with pytest.raises(KeyError):
                layout.shard_for_user(index.n_users)
        finally:
            arena.close()


# ----------------------------------------------------------------------
# Front-end parity and admission
# ----------------------------------------------------------------------
class TestFrontend:
    def test_answers_match_the_inprocess_engine(self, index):
        reference = RecommendService(index,
                                     ServiceConfig(k=10, cache_size=0))
        expected = reference.query_batch(range(index.n_users))
        with ServingFrontend(index, _config()) as frontend:
            futures = [frontend.submit(uid, 10)
                       for uid in range(index.n_users)]
            for uid, future in enumerate(futures):
                resolution = future.result(timeout=30.0)
                assert resolution["status"] == "ok"
                result = resolution["result"]
                assert result["items"] == expected[uid]["items"]
                assert result["source"] == "index"
                assert not result["degraded"]

    def test_duplicate_concurrent_requests(self, index):
        """The same (user, k) in flight many times answers identically."""
        with ServingFrontend(index, _config()) as frontend:
            futures = [frontend.submit(7, 10) for _ in range(32)]
            items = {tuple(f.result(30.0)["result"]["items"])
                     for f in futures}
            assert len(items) == 1

    def test_unknown_user_served_at_the_edge(self, index):
        with ServingFrontend(index, _config()) as frontend:
            resolution = frontend.query(index.n_users + 5, 10)
            assert resolution["status"] == "ok"
            result = resolution["result"]
            assert result["source"] == "popularity"
            assert result["items"] == [
                int(i) for i in index.popularity[:10]]
            assert frontend.counters["unknown_users"] == 1

    def test_queue_full_sheds(self, index):
        # One-slot queue, slow worker: the second concurrent request
        # must shed with queue_full while the first is being scored.
        plan = FaultPlan([FaultSpec("slow_shard", rate=1.0, delay_s=0.2,
                                    shard=0)])
        config = _config(max_queue_depth=1)
        with ServingFrontend(index, config, faults=plan) as frontend:
            first = frontend.submit(0, 10, deadline_ms=None)
            second = frontend.submit(1, 10)
            assert second.result(1.0) == {"status": "shed",
                                          "reason": "queue_full"}
            assert first.result(30.0)["status"] == "ok"
            assert frontend.counters["shed_queue_full"] == 1
            assert frontend.counters["shed_requests"] == 1

    def test_requests_behind_a_busy_worker_coalesce(self, index,
                                                   monkeypatch):
        # Forked workers inherit this wrapper; the shared counter sees
        # every engine call they make.
        reference = RecommendService(index,
                                     ServiceConfig(k=10, cache_size=0))
        users = list(range(index.n_users // 2))   # shard 0's range
        expected = reference.query_batch(users)
        calls = multiprocessing.get_context("fork").Value("i", 0)
        rank_batch = RecommendService.rank_batch

        def counting_rank_batch(self, *args, **kwargs):
            with calls.get_lock():
                calls.value += 1
            return rank_batch(self, *args, **kwargs)

        monkeypatch.setattr(RecommendService, "rank_batch",
                            counting_rank_batch)
        # The stall holds worker 0 on its first request while the rest
        # queue up behind it; the supervisor must not kill it for that.
        plan = FaultPlan([FaultSpec("worker_stall", after_requests=1,
                                    delay_s=0.6, worker=0)])
        config = _config(stall_after_s=5.0)
        with ServingFrontend(index, config, faults=plan) as frontend:
            blocker = frontend.submit(users[0], 10, deadline_ms=None)
            time.sleep(0.1)   # the blocker is in the worker's hands
            futures = []
            for uid in users:
                # Spaced out, so each is dispatched in its own message.
                futures.append(frontend.submit(uid, 10, deadline_ms=None))
                time.sleep(0.005)
            assert blocker.result(30.0)["result"]["items"] == \
                expected[0]["items"]
            for uid, future in zip(users, futures):
                resolution = future.result(timeout=30.0)
                assert resolution["status"] == "ok"
                assert resolution["result"]["items"] == \
                    expected[uid]["items"]
        # One call for the blocker, then far fewer than one per
        # queued request.
        assert calls.value - 1 < len(users)

    def test_worker_replies_once_then_stops_on_a_drained_sentinel(
            self, index):
        # worker_main in-process over its two pipes: both requests
        # queued ahead of the sentinel are answered in one RESULT, then
        # the worker exits without reading past the sentinel.
        reference = RecommendService(index,
                                     ServiceConfig(k=10, cache_size=0))
        messages, requests, _ = _run_worker_inline(
            index, [[(req_id, uid, 10, None, time.monotonic())]
                    for req_id, uid in enumerate((3, 4))],
            after_sentinel=[(2, 5, 10, None, time.monotonic())])
        assert [m[0] for m in messages] == [HEARTBEAT, RESULT, BYE]
        _, _, req_ids, items, codes = messages[1]
        items = np.frombuffer(items, dtype=np.int32).reshape(len(codes), -1)
        assert [(req_id, row.tolist()) for req_id, row in zip(
            np.frombuffer(req_ids, dtype=np.int64).tolist(), items)] \
            == [(0, reference.query(3)["items"]),
                (1, reference.query(4)["items"])]
        assert requests.poll()   # the message after the sentinel ...
        assert requests.recv()[0][0] == 2   # ... is still unread

    def test_result_bytes_are_pinned(self, index):
        # A RESULT is raw arrays: 8 B of request id, 4 B per item and
        # 1 B of code per request, plus a fixed envelope.  The pickled
        # dicts it replaced cost 390 B for one request and 1,280 B for
        # 16 on serve-uniform's index.
        sizes = {}
        for n in (1, 16):
            messages, _, nbytes = _run_worker_inline(
                index, [[(1000 + i, i % 25, 10, None, time.monotonic())
                         for i in range(n)]])
            assert [m[0] for m in messages] == [HEARTBEAT, RESULT, BYE]
            sizes[n] = nbytes[1]
        assert sizes == {1: 91, 16: 829}
        assert sizes[1] < 390 and sizes[16] < 1280

    def test_a_full_request_message_fits_pipe_buf(self):
        # The dispatcher's non-blocking write is all-or-nothing only up
        # to PIPE_BUF: a MAX_BATCH message with the widest fields must
        # fit.
        widest = [(2**63 - 1, 2**31 - 1, 2**31 - 1, 1e12, 1e12)
                  for _ in range(MAX_BATCH)]
        assert len(pickle.dumps(widest)) + 4 <= select.PIPE_BUF

    def test_fleet_health_aggregates_breakers(self, index):
        with ServingFrontend(index, _config()) as frontend:
            for uid in range(10):
                frontend.query(uid, 10)
            fleet = frontend.supervisor.fleet_health()
            assert fleet["n_workers"] == 2 and fleet["ready"] == 2
            assert fleet["breaker_states"] == {"closed": 2}
            assert not fleet["any_breaker_open"]
            snaps = fleet["shards"]
            assert set(snaps) == {"0", "1"}
            for snap in snaps.values():
                assert snap["state"] == "ready"
                assert snap["breaker"]["state"] == "closed"


# ----------------------------------------------------------------------
# Deadline propagation matrix
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_dead_on_arrival_rejected_at_admission(self, index):
        with ServingFrontend(index, _config()) as frontend:
            resolution = frontend.query(0, 10, deadline_ms=0.0)
            assert resolution == {"status": "shed", "reason": "deadline"}
            assert frontend.counters["shed_deadline"] == 1
            # Nothing was admitted, so nothing reached a worker.
            assert frontend.counters["admitted"] == 0

    def test_expiry_in_queue_sheds_without_scoring(self, index):
        # A blocker keeps shard 0's worker busy (150 ms) past the
        # deadline (30 ms) of the request queued behind it: the worker
        # must shed that request without scoring it.
        plan = FaultPlan([FaultSpec("slow_shard", rate=1.0, delay_s=0.15,
                                    shard=0)])
        with ServingFrontend(index, _config(), faults=plan) as frontend:
            blocker = frontend.submit(1, 10, deadline_ms=None)
            resolution = frontend.query(0, 10, deadline_ms=30.0)
            assert resolution == {"status": "shed", "reason": "deadline"}
            assert blocker.result(30.0)["status"] == "ok"
            time.sleep(0.3)   # let worker heartbeats report stats
            fleet = frontend.supervisor.fleet_health()
            scored = sum(s["stats"].get("requests", 0)
                         for s in fleet["shards"].values())
            assert scored == 1   # the blocker alone

    def test_expiry_mid_scoring_counts_a_timeout(self, index):
        # Engine-level leg of the matrix: the deadline the front-end
        # threads through query_batch() is checked between retry
        # attempts, so an expired one degrades and counts a timeout.
        engine = RecommendService(index, ServiceConfig(k=10,
                                                       cache_size=0))
        past = time.monotonic() - 1.0
        results = engine.query_batch([0, 1], deadlines=[past, None])
        assert engine.stats["timeouts"] == 1
        assert results[0]["degraded"] and results[0]["fallback"]
        assert results[1]["source"] == "index"


# ----------------------------------------------------------------------
# Worker failure drills: kill, stall, failover
# ----------------------------------------------------------------------
class TestSupervision:
    def test_worker_kill_restart_and_failover(self, index):
        plan = FaultPlan([FaultSpec("worker_kill", after_requests=5,
                                    worker=0)])
        with ServingFrontend(index, _config(),
                             faults=plan) as frontend:
            lo, hi = 0, index.n_users // 2   # shard 0's user range
            futures = [frontend.submit(lo + (i % (hi - lo)), 10)
                       for i in range(30)]
            for future in futures:
                resolution = future.result(timeout=30.0)
                assert resolution["status"] == "ok"   # never an error
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                fleet = frontend.supervisor.fleet_health()
                if fleet["ready"] == 2:
                    break
                time.sleep(0.05)
            assert fleet["ready"] == 2, "fleet never recovered"
            assert frontend.supervisor.total_restarts == 1
            assert frontend.counters["degraded_fallbacks"] > 0
            # The replacement serves real scores again (the once-only
            # kill fault must not re-fire in the new generation).
            result = frontend.query(lo, 10, deadline_ms=None)["result"]
            assert result["source"] == "index"

    def test_worker_stall_detected_by_heartbeat_age(self, index):
        plan = FaultPlan([FaultSpec("worker_stall", after_requests=3,
                                    delay_s=5.0, worker=0)])
        config = _config(stall_after_s=0.5)
        with ServingFrontend(index, config, faults=plan) as frontend:
            futures = [frontend.submit(i % 5, 10, deadline_ms=None)
                       for i in range(10)]
            for future in futures:
                assert future.result(timeout=30.0)["status"] == "ok"
            assert frontend.supervisor.total_restarts >= 1

    def test_graceful_drain_resolves_every_inflight(self, index):
        plan = FaultPlan([FaultSpec("slow_shard", rate=1.0,
                                    delay_s=0.05)])
        with ServingFrontend(index, _config(),
                             faults=plan) as frontend:
            futures = [frontend.submit(i, 10, deadline_ms=None)
                       for i in range(20)]
            drained = frontend.drain(timeout=30.0)
            assert drained >= 0
            for future in futures:
                assert future.done()
                assert future.result()["status"] == "ok"
            assert frontend.submit(0, 10).result() == {
                "status": "draining"}
            assert frontend.counters["draining_rejects"] == 1


    def test_a_stalled_worker_never_blocks_the_other_shard(self, index):
        # Worker 0 wedges on its first request; the flood behind it
        # fills its request pipe (64 KiB) until the dispatcher parks
        # messages in the outbox.  Shard 1 must keep answering from the
        # index meanwhile, well inside stall_after_s.
        plan = FaultPlan([FaultSpec("worker_stall", after_requests=1,
                                    delay_s=30.0, worker=0)])
        config = _config(stall_after_s=3.0, max_queue_depth=1 << 16)
        with ServingFrontend(index, config, faults=plan) as frontend:
            flood = [frontend.submit(0, 10, deadline_ms=None)]
            time.sleep(0.1)   # worker 0 holds the blocker and stalls
            channel = frontend.supervisor.handles[0].channel
            while not channel.outbox and len(flood) < 40_000:
                flood += [frontend.submit(i % 25, 10, deadline_ms=None)
                          for i in range(500)]
                time.sleep(0.01)
            assert channel.outbox, "request pipe never filled"
            t0 = time.monotonic()
            for uid in range(25, 50):
                result = frontend.query(uid, 10, deadline_ms=None)
                assert result["status"] == "ok"
                assert result["result"]["source"] == "index"
            assert time.monotonic() - t0 < 1.0
            for future in flood:   # failed over once worker 0 is killed
                assert future.result(timeout=30.0)["status"] == "ok"
            assert frontend.supervisor.total_restarts >= 1

    def test_kill_under_two_shard_load(self, index):
        plan = FaultPlan([FaultSpec("worker_kill", after_requests=20,
                                    worker=0)])
        with ServingFrontend(index, _config(), faults=plan) as frontend:
            futures = []
            for i in range(200):
                uid = (i // 2) % 25 + 25 * (i % 2)   # shards alternate
                futures.append((uid, frontend.submit(uid, 10,
                                                     deadline_ms=None)))
                time.sleep(0.002)
            for uid, future in futures:
                resolution = future.result(timeout=30.0)
                assert resolution["status"] == "ok"    # no hard failure
                if uid >= 25:    # the surviving shard
                    assert resolution["result"]["source"] == "index"
            assert frontend.supervisor.total_restarts == 1
            assert frontend.counters["degraded_fallbacks"] > 0


# ----------------------------------------------------------------------
# Telemetry: queue-wait + latency histograms (single-writer parent)
# ----------------------------------------------------------------------
def test_histograms_include_queue_wait(index, tmp_path):
    run = obs.start_run(run_dir=tmp_path)
    try:
        with ServingFrontend(index, _config()) as frontend:
            for uid in range(20):
                frontend.query(uid, 10)
    finally:
        obs.finish_run()
    manifest = obs.read_manifest(run.dir)
    hdr = manifest["metrics"]["hdr"]
    assert hdr["serve/latency_ms"]["count"] == 20
    assert hdr["serve/queue_wait_ms"]["count"] == 20
    # Queue wait is a component of latency, never exceeds it.
    assert (hdr["serve/queue_wait_ms"]["p50"]
            <= hdr["serve/latency_ms"]["p99"])
    assert manifest["metrics"]["counters"]["serve/requests"] == 20


def test_reply_bytes_count_the_result_messages(index, tmp_path):
    # One request per RESULT (each query waits for its answer), so the
    # counter is exactly 20 one-request RESULTs of the pinned size.
    run = obs.start_run(run_dir=tmp_path)
    try:
        with ServingFrontend(index, _config()) as frontend:
            for uid in range(20):
                frontend.query(uid, 10)
    finally:
        obs.finish_run()
    counters = obs.read_manifest(run.dir)["metrics"]["counters"]
    assert counters["frontend/reply_bytes"] == 20 * 91
    assert counters["serve/requests"] == 20


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
def test_open_loop_classifies_every_offer(index):
    with ServingFrontend(index, _config()) as frontend:
        capacity = estimate_capacity(frontend, range(index.n_users), 10,
                                     duration_s=0.3)
        assert capacity > 0
        outcome = run_open_loop(frontend, range(index.n_users), 10,
                                offered_qps=50.0, duration_s=0.5)
    assert outcome["n_offered"] == 25
    accounted = (outcome["completed"] + outcome["shed"]
                 + outcome["draining"] + outcome["hard_failures"])
    assert accounted == outcome["n_offered"]
    assert outcome["hard_failures"] == 0
    assert outcome["p99_ms"] is None or outcome["p99_ms"] > 0


# ----------------------------------------------------------------------
# HTTP edge (in-process asyncio server)
# ----------------------------------------------------------------------
def test_http_server_serves_and_drains(index):
    import asyncio

    from repro.serve.frontend import HttpFrontendServer

    frontend = ServingFrontend(index, _config()).start()
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        server = HttpFrontendServer(frontend, port=0)
        port = asyncio.run_coroutine_threadsafe(
            server.start(), loop).result(timeout=30.0)
        drain_task = asyncio.run_coroutine_threadsafe(
            server.serve_until_drained(), loop)

        def _get(path):
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{path}",
                    timeout=10.0) as response:
                return response.status, response.read()

        status, body = _get("/recommend?user=3&k=5")
        assert status == 200 and b'"items"' in body
        status, _ = _get("/health")
        assert status == 200
        status, body = _get("/status")
        assert status == 200 and b'"fleet"' in body
        with pytest.raises(urllib.error.HTTPError) as err:
            _get("/recommend?user=abc")
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _get("/nope")
        assert err.value.code == 404

        loop.call_soon_threadsafe(server.request_drain)
        assert drain_task.result(timeout=30.0) is None
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5.0)
        loop.close()
        frontend.stop()


# ----------------------------------------------------------------------
# Fault-spec surface for the process kinds
# ----------------------------------------------------------------------
class TestProcessFaultSpecs:
    def test_kill_and_stall_require_after_requests(self):
        with pytest.raises(ValueError):
            FaultSpec("worker_kill")
        with pytest.raises(ValueError):
            FaultSpec("worker_stall", after_requests=3)   # no delay
        with pytest.raises(ValueError):
            FaultSpec("slow_shard", rate=0.5)             # no delay
        with pytest.raises(ValueError):
            FaultSpec("slow_shard", rate=1.5, delay_s=0.1)

    def test_valid_specs_round_out(self):
        kill = FaultSpec("worker_kill", after_requests=5, worker=1)
        assert not kill.exhausted()
        kill.fired = 1
        assert kill.exhausted()           # once-by-default, like kills
        slow = FaultSpec("slow_shard", rate=0.2, delay_s=0.01, shard=0)
        assert slow.shard == 0 and not slow.exhausted()
