"""Fault injection, rollback/resume, and serving degradation.

The two acceptance bars of the robustness subsystem:

* **Kill-then-resume is bit-identical** — for every registry model, a
  training run killed mid-way and resumed from its auto-checkpoint ends
  with exactly the loss history and parameters of an uninterrupted run
  (also proving a ``supervisor`` leaves the numerics untouched).
* **Failures never reach the caller** — under injected scoring faults
  every request still gets a valid ranked list; retries, timeouts,
  breaker trips, and fallbacks land in counters instead of exceptions.
"""

import copy
import json
import shutil
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import SyntheticConfig, generate_dataset, temporal_split
from repro.experiments.runner import ALL_MODEL_NAMES, build_model
from repro.robust import (BreakerPolicy, CircuitBreaker, FaultPlan,
                          FaultSpec, FaultyIndex, InjectedScoringError,
                          ResilienceConfig,
                          RetryPolicy, SimulatedCrash,
                          TrainingDivergedError, TrainingSupervisor,
                          has_fit_state)
from repro.serve import (CheckpointError, RecommendService,
                         ServiceConfig, build_index, load_checkpoint)

from tests.strategies.settings import STANDARD_SETTINGS

EPOCHS = 3


@pytest.fixture(scope="module")
def setup():
    ds = generate_dataset(SyntheticConfig(n_users=40, n_items=60,
                                          depth=3, branching=3,
                                          mean_interactions=10.0, seed=4))
    return ds, temporal_split(ds)


@pytest.fixture(scope="module")
def served(setup):
    """A clean trained index + its exact expected responses."""
    ds, split = setup
    model = build_model("BPRMF", ds, seed=0)
    model.config.epochs = 2
    model.fit(ds, split)
    index = build_index(model, ds, split)
    clean = RecommendService(index, ServiceConfig(k=10, cache_size=0))
    expected = [r["items"] for r in clean.query_batch(range(ds.n_users))]
    return ds, split, index, expected


def _supervised(config, **kwargs):
    return TrainingSupervisor(ResilienceConfig(**config), **kwargs)


# ----------------------------------------------------------------------
# FaultPlan mechanics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_kind_and_missing_epoch_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor")
        with pytest.raises(ValueError, match="needs an epoch"):
            FaultSpec("kill")
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("score_error", rate=1.5)

    def test_scoring_draws_are_seed_deterministic(self):
        def draws(seed):
            plan = FaultPlan([FaultSpec("score_error", rate=0.5,
                                        max_faults=None)], seed=seed)
            return [plan.draw_scoring_fault() is not None
                    for _ in range(40)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_training_faults_fire_once_by_default(self):
        plan = FaultPlan([FaultSpec("nan_grad", epoch=2)])
        assert plan.take_nan_grad(1) is None
        assert plan.take_nan_grad(2) is not None
        assert plan.take_nan_grad(2) is None      # fired; retry is clean
        assert plan.counts() == {"nan_grad": 1}

    def test_corrupt_file_flips_one_seeded_byte(self, tmp_path):
        target = tmp_path / "blob.bin"
        target.write_bytes(bytes(range(256)))
        offset = FaultPlan.corrupt_file(target, seed=3)
        assert FaultPlan.corrupt_file(target, seed=3) == offset
        assert target.read_bytes() == bytes(range(256))  # flipped twice


class TestCircuitBreaker:
    POLICY = BreakerPolicy(window=8, threshold=0.5, min_requests=2,
                           cooldown=3)

    def test_opens_on_failure_rate_then_recovers(self):
        breaker = CircuitBreaker(self.POLICY)
        assert breaker.record(False) is False     # below min_requests
        assert breaker.record(False) is True      # trips
        assert breaker.state == "open"
        assert [breaker.allow() for _ in range(3)] == [False] * 3
        assert breaker.allow() is True            # half-open probe
        assert breaker.state == "half_open"
        assert breaker.record(True) is False      # probe ok -> closed
        assert breaker.state == "closed"

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(self.POLICY)
        breaker.record(False), breaker.record(False)
        for _ in range(3):
            breaker.allow()
        breaker.allow()                           # probe
        assert breaker.record(False) is True      # counts as a new open
        assert breaker.state == "open"
        assert breaker.opens == 2


# ----------------------------------------------------------------------
# Kill + resume, registry-wide
# ----------------------------------------------------------------------
class TestKillResume:
    @pytest.mark.parametrize("name", ALL_MODEL_NAMES)
    def test_resumed_run_bit_identical(self, setup, tmp_path, name):
        ds, split = setup
        # Model-dependent but process-stable kill point (hash() is
        # salted per process; crc32 is not).
        kill_epoch = zlib.crc32(name.encode()) % (EPOCHS - 1)
        config = {"checkpoint_dir": tmp_path / "ck",
                  "checkpoint_every": 1}

        killed = build_model(name, ds, seed=0)
        killed.config.epochs = EPOCHS
        plan = FaultPlan([FaultSpec("kill", epoch=kill_epoch)])
        with pytest.raises(SimulatedCrash):
            killed.fit(ds, split,
                       supervisor=_supervised(config, fault_plan=plan))
        assert len(killed.loss_history) == kill_epoch + 1
        assert has_fit_state(tmp_path / "ck")

        resumed = load_checkpoint(tmp_path / "ck", dataset=ds,
                                  split=split)
        supervisor = _supervised({**config, "resume": True})
        resumed.fit(ds, split, supervisor=supervisor)
        assert supervisor.resumed

        reference = build_model(name, ds, seed=0)
        reference.config.epochs = EPOCHS
        reference.fit(ds, split)            # plain fit, no supervisor

        assert resumed.loss_history == reference.loss_history, (
            f"{name}: resumed loss history diverges")
        for key, value in reference.state_dict().items():
            assert np.array_equal(resumed.state_dict()[key], value), (
                f"{name}: parameter {key} not bit-identical after "
                f"kill/resume")


    def test_torn_checkpoint_sidecar_pair_is_not_resumed(self, setup,
                                                          tmp_path):
        """A kill between the checkpoint write and the sidecar write
        leaves an epoch-2 checkpoint beside an epoch-1 sidecar.  Both
        checksums pass; the pairing field must refuse the resume."""
        ds, split = setup
        for kill_epoch in (0, 1):
            model = build_model("BPRMF", ds, seed=0)
            model.config.epochs = EPOCHS
            plan = FaultPlan([FaultSpec("kill", epoch=kill_epoch)])
            with pytest.raises(SimulatedCrash):
                model.fit(ds, split, supervisor=_supervised(
                    {"checkpoint_dir": tmp_path / f"k{kill_epoch}",
                     "checkpoint_every": 1}, fault_plan=plan))
        torn = tmp_path / "k1"
        for name in ("fit_state.json", "fit_state.npz"):
            shutil.copy(tmp_path / "k0" / name, torn / name)

        resumed = load_checkpoint(torn, dataset=ds, split=split)
        assert len(resumed.loss_history) == 2
        with pytest.raises(CheckpointError,
                           match="served but not resumed"):
            resumed.fit(ds, split, supervisor=_supervised(
                {"checkpoint_dir": torn, "resume": True}))

        # A sidecar that records no checkpoint cannot be paired either.
        meta_path = tmp_path / "k0" / "fit_state.json"
        meta = json.loads(meta_path.read_text())
        del meta["checkpoint_sha256"]
        meta_path.write_text(json.dumps(meta))
        resumed = load_checkpoint(tmp_path / "k0", dataset=ds, split=split)
        with pytest.raises(CheckpointError,
                           match="served but not resumed"):
            resumed.fit(ds, split, supervisor=_supervised(
                {"checkpoint_dir": tmp_path / "k0", "resume": True}))


# ----------------------------------------------------------------------
# Divergence rollback
# ----------------------------------------------------------------------
class TestRollback:
    def test_nan_grad_rolls_back_and_completes(self, setup, tmp_path):
        ds, split = setup
        model = build_model("BPRMF", ds, seed=0)
        model.config.epochs = 4
        plan = FaultPlan([FaultSpec("nan_grad", epoch=2)])
        supervisor = _supervised(
            {"checkpoint_dir": tmp_path / "ck", "checkpoint_every": 1},
            fault_plan=plan)
        model.fit(ds, split, supervisor=supervisor)
        summary = supervisor.summary()
        assert summary["rollbacks"] == 1
        assert summary["retries_left"] == 2
        assert len(model.loss_history) == 4
        assert np.isfinite(model.loss_history).all()
        assert all(np.isfinite(p.data).all() for p in model.parameters())
        kinds = [kind for kind, _ in summary["events"]]
        assert "rollback" in kinds

    def test_nan_param_diverges_riemannian_model_too(self, setup,
                                                     tmp_path):
        # RSGD skips non-finite *gradients*, so nan_param is the fault
        # that proves rollback covers the hyperbolic models as well.
        ds, split = setup
        model = build_model("HGCF", ds, seed=0)
        model.config.epochs = 3
        plan = FaultPlan([FaultSpec("nan_param", epoch=1)])
        supervisor = _supervised(
            {"checkpoint_dir": tmp_path / "ck", "checkpoint_every": 1},
            fault_plan=plan)
        model.fit(ds, split, supervisor=supervisor)
        assert supervisor.summary()["rollbacks"] == 1
        assert np.isfinite(model.loss_history).all()

    def test_retry_budget_exhaustion_raises(self, setup, tmp_path):
        ds, split = setup
        model = build_model("BPRMF", ds, seed=0)
        model.config.epochs = 4
        # once=False: the fault re-fires after every rollback, so the
        # budget must run out.
        plan = FaultPlan([FaultSpec("nan_param", epoch=1, once=False)])
        supervisor = _supervised(
            {"checkpoint_dir": tmp_path / "ck", "checkpoint_every": 1,
             "max_retries": 1},
            fault_plan=plan)
        with pytest.raises(TrainingDivergedError, match="no rollback "
                                                        "budget"):
            model.fit(ds, split, supervisor=supervisor)
        assert supervisor.summary()["rollbacks"] == 1

    def test_lr_backoff_compounds_across_rollbacks(self, setup,
                                                   tmp_path):
        ds, split = setup
        model = build_model("BPRMF", ds, seed=0)
        model.config.epochs = 4
        base_lr = model.config.lr
        plan = FaultPlan([FaultSpec("nan_param", epoch=1),
                          FaultSpec("nan_param", epoch=1)])
        supervisor = _supervised(
            {"checkpoint_dir": tmp_path / "ck", "checkpoint_every": 1,
             "lr_backoff": 0.5},
            fault_plan=plan)
        model.fit(ds, split, supervisor=supervisor)
        lrs = [detail["lr"] for kind, detail in supervisor.events
               if kind == "rollback"]
        assert lrs == [base_lr * 0.5, base_lr * 0.25]


# ----------------------------------------------------------------------
# Serving resilience
# ----------------------------------------------------------------------
def _assert_all_valid(responses, k, n_items):
    for response in responses:
        items = response["items"]
        assert len(items) == k and len(set(items)) == k
        assert all(0 <= i < n_items for i in items)


class TestServingResilience:
    def test_injected_failures_still_serve_everyone(self, served):
        ds, _, index, expected = served
        plan = FaultPlan([FaultSpec("score_error", rate=0.1)], seed=1)
        service = RecommendService(
            FaultyIndex(index, plan),
            ServiceConfig(k=10, cache_size=0,
                          retry=RetryPolicy(retries=2, backoff_s=0.0)))
        responses = service.query_batch(range(ds.n_users))
        _assert_all_valid(responses, 10, ds.n_items)
        assert plan.counts().get("score_error", 0) > 0
        # Requests whose retries succeeded are bit-identical to the
        # clean service; the rest are marked degraded.
        for uid, response in enumerate(responses):
            if not response["fallback"]:
                assert response["items"] == expected[uid]
            else:
                assert response["degraded"]
        assert service.stats["scoring_failures"] == \
            plan.counts()["score_error"]

    def test_breaker_trips_to_fallback(self, served):
        ds, _, index, _ = served
        plan = FaultPlan([FaultSpec("score_error", rate=1.0)], seed=0)
        service = RecommendService(
            FaultyIndex(index, plan),
            ServiceConfig(k=10, cache_size=0,
                          retry=RetryPolicy(retries=0),
                          breaker=BreakerPolicy(window=10, threshold=0.5,
                                                min_requests=3,
                                                cooldown=4)))
        responses = service.query_batch(range(ds.n_users))
        _assert_all_valid(responses, 10, ds.n_items)
        assert all(r["degraded"] for r in responses)
        assert service.breaker.opens >= 1
        assert service.stats["breaker_opens"] == service.breaker.opens
        assert service.stats["breaker_short_circuits"] > 0
        # Short-circuited requests never touched the index.
        assert service.stats["scoring_failures"] < ds.n_users

    def test_timeouts_count_and_degrade(self, served):
        ds, _, index, _ = served
        plan = FaultPlan([FaultSpec("score_delay", rate=1.0,
                                    delay_s=0.005)], seed=0)
        service = RecommendService(
            FaultyIndex(index, plan),
            ServiceConfig(k=10, cache_size=0,
                          retry=RetryPolicy(retries=0,
                                            timeout_s=1e-4)))
        responses = service.query_batch(range(8))
        _assert_all_valid(responses, 10, ds.n_items)
        assert all(r["degraded"] for r in responses)
        assert service.stats["timeouts"] > 0

    def test_stale_index_fallback_serves_old_scores(self, served):
        ds, _, index, expected = served
        plan = FaultPlan([FaultSpec("score_error", rate=1.0)], seed=0)
        service = RecommendService(
            FaultyIndex(index, plan),
            ServiceConfig(k=10, cache_size=0, fallback="stale_index",
                          retry=RetryPolicy(retries=0),
                          breaker=BreakerPolicy(min_requests=10**6)),
            fallback_index=index)
        responses = service.query_batch(range(ds.n_users))
        assert all(r["source"] == "stale_index" for r in responses)
        assert service.stats["stale_index_hits"] == ds.n_users
        # The "stale" index is actually the fresh one here, so the
        # degraded answers must equal the clean ones exactly.
        assert [r["items"] for r in responses] == expected

    def test_unknown_user_is_fallback_but_not_degraded(self, served):
        ds, _, index, _ = served
        service = RecommendService(index, ServiceConfig(k=5))
        response = service.query(ds.n_users + 5)
        assert response["fallback"] and not response["degraded"]
        assert response["items"] == [int(i) for i in
                                     index.popularity[:5]]


class _FailingUsers:
    """Index proxy whose scoring of a fixed set of users always fails.

    The failure depends on the user, not on call order, so a batched
    engine and a one-request-at-a-time engine see the same faults.
    """

    def __init__(self, index, bad):
        self._index = index
        self._bad = set(bad)

    def __getattr__(self, name):
        return getattr(self._index, name)

    def score_users(self, user_ids):
        rows = [row for row, uid in enumerate(user_ids)
                if int(uid) in self._bad]
        if rows:
            raise InjectedScoringError("user down", rows=rows)
        return self._index.score_users(user_ids)


class TestBatchedGuards:
    @STANDARD_SETTINGS
    @given(window=st.integers(1, 12), min_requests=st.integers(1, 12),
           threshold=st.floats(0.05, 1.0), outcomes=st.lists(
               st.booleans(), max_size=30), limit=st.integers(0, 70))
    def test_headroom_is_failures_absorbed_before_opening(
            self, window, min_requests, threshold, outcomes, limit):
        policy = BreakerPolicy(window=window, min_requests=min_requests,
                               threshold=threshold, cooldown=3)
        breaker = CircuitBreaker(policy)
        for ok in outcomes:
            breaker.allow()
            breaker.record(ok)
        probe = copy.deepcopy(breaker)
        absorbed = 0
        while (absorbed < limit and probe.state == "closed"
               and not probe.record(False)):
            absorbed += 1
        expected = absorbed if breaker.state == "closed" else 0
        assert breaker.headroom(limit) == expected

    @STANDARD_SETTINGS
    @given(bad=st.sets(st.integers(0, 39), max_size=40),
           users=st.lists(st.integers(0, 45), min_size=1, max_size=64),
           retries=st.integers(0, 2), window=st.integers(2, 20),
           min_requests=st.integers(1, 10),
           threshold=st.floats(0.1, 1.0), cooldown=st.integers(1, 6))
    def test_a_batch_answers_like_one_request_at_a_time(
            self, served, bad, users, retries, window, min_requests,
            threshold, cooldown):
        _, _, index, _ = served
        config = ServiceConfig(
            k=10, cache_size=0, retry=RetryPolicy(retries=retries),
            breaker=BreakerPolicy(window=window, threshold=threshold,
                                  min_requests=min_requests,
                                  cooldown=cooldown))
        batched = RecommendService(_FailingUsers(index, bad), config)
        alone = RecommendService(_FailingUsers(index, bad), config)
        assert batched.query_batch(users) == [alone.query(u)
                                              for u in users]
        assert batched.stats == alone.stats
        assert batched.breaker.snapshot() == alone.breaker.snapshot()


class TestConfigShims:
    def test_legacy_kwargs_conflict_with_config(self, served):
        # k= and friends are rejected: a ServiceConfig is the only way
        # to configure the engine.
        _, _, index, _ = served
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            RecommendService(index, ServiceConfig(), k=7)

    def test_service_config_validation(self):
        with pytest.raises(ValueError, match="fallback"):
            ServiceConfig(fallback="coin_flip")
        with pytest.raises(ValueError, match="k must be positive"):
            ServiceConfig(k=0)
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="threshold"):
            BreakerPolicy(threshold=2.0)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCliRobust:
    def test_inject_train_kill_then_resume(self, tmp_path, capsys,
                                           monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["robust", "inject", "train", "--epochs", "4",
                     "--kill-epoch", "1", "--checkpoint-dir", "ck"]) == 3
        assert "crashed" in capsys.readouterr().out
        assert main(["robust", "inject", "train", "--epochs", "4",
                     "--checkpoint-dir", "ck", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out and "resumed_from: 2" in out

    def test_inject_serve_reports_validity(self, tmp_path, capsys,
                                           monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["robust", "inject", "serve", "--requests", "40",
                     "--fail-rate", "0.2", "--epochs", "1"]) == 0
        assert "all responses valid" in capsys.readouterr().out

    def test_inject_checkpoint_detects_corruption(self, tmp_path,
                                                  capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["train", "BPRMF", "--dataset", "ciao", "--epochs",
                     "1", "--save", "ck"]) == 0
        capsys.readouterr()
        assert main(["robust", "inject", "checkpoint", "ck"]) == 0
        assert "corruption detected" in capsys.readouterr().out

    def test_train_resume_requires_checkpoint_dir(self, capsys):
        from repro.cli import main

        assert main(["train", "BPRMF", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_serve_bench_missing_index_exits_2(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["serve", "bench", "--index", "nope"]) == 2
        assert "no index" in capsys.readouterr().err
