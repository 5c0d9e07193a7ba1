"""Serving subsystem: checkpoints, retrieval index, inference engine, CLI.

The two load-bearing guarantees under test:

* **Checkpoint round trips are bit-exact** — for every registered model,
  a saved-then-loaded model returns identical ``recommend`` lists and
  identical ``score_users`` matrices, and *resuming training* from the
  checkpoint reproduces the live model's continued loss history
  bit-for-bit (parameters + RNG state + loss history all restored).
* **Serving equals the live model** — ``RecommendService`` responses are
  exactly ``model.recommend(u, k, exclude=<train items>)``, with the
  cache on or off, because index and model share the same score-formula
  functions and the engine scores per-row with the same shapes.
"""

import json

import numpy as np
import pytest

from repro.data import SyntheticConfig, generate_dataset, temporal_split
from repro.experiments.runner import ALL_MODEL_NAMES, build_model
from repro.serve import (CheckpointError, IndexFormatError,
                         RecommendService, ServiceConfig, build_index,
                         load_checkpoint, load_index, save_checkpoint)


@pytest.fixture(scope="module")
def setup():
    ds = generate_dataset(SyntheticConfig(n_users=40, n_items=60,
                                          depth=3, branching=3,
                                          mean_interactions=10.0, seed=4))
    return ds, temporal_split(ds)


def _trained(name, ds, split, epochs=2):
    model = build_model(name, ds, seed=0)
    model.config.epochs = epochs
    model.fit(ds, split)
    return model


# ----------------------------------------------------------------------
# Checkpoint round trips, parametrized over the full model registry
# ----------------------------------------------------------------------
class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("name", ALL_MODEL_NAMES)
    def test_scores_and_resume_bit_identical(self, setup, tmp_path,
                                             name):
        ds, split = setup
        model = _trained(name, ds, split)
        path = save_checkpoint(model, tmp_path / "ck", dataset=ds)
        loaded = load_checkpoint(path, dataset=ds, split=split)

        users = np.arange(ds.n_users)
        assert np.array_equal(model.score_users(users),
                              loaded.score_users(users))
        for uid in range(0, ds.n_users, 7):
            assert np.array_equal(model.recommend(uid, 10),
                                  loaded.recommend(uid, 10))
        assert loaded.loss_history == model.loss_history

        # Resume: the loaded model continues training exactly as the
        # never-serialized live model does (same RNG stream, same
        # parameters, same appended losses).
        model.fit(ds, split)
        loaded.fit(ds, split)
        assert loaded.loss_history == model.loss_history
        assert np.array_equal(model.score_users(users),
                              loaded.score_users(users))

    def test_checkpoint_records_provenance(self, setup, tmp_path):
        ds, split = setup
        model = _trained("BPRMF", ds, split)
        path = save_checkpoint(model, tmp_path / "ck", dataset=ds)
        meta = json.loads((path / "checkpoint.json").read_text())
        assert meta["format_version"] == 1
        assert meta["model_class"] == "BPRMF"
        assert meta["dataset"]["n_users"] == ds.n_users
        assert meta["extra_init"] == {"l2": model.l2}


class TestCheckpointRejection:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nope")

    def test_version_mismatch(self, setup, tmp_path):
        ds, split = setup
        path = save_checkpoint(_trained("BPRMF", ds, split),
                               tmp_path / "ck", dataset=ds)
        meta_path = path / "checkpoint.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="format_version"):
            load_checkpoint(path)

    def test_corrupted_arrays(self, setup, tmp_path):
        ds, split = setup
        path = save_checkpoint(_trained("BPRMF", ds, split),
                               tmp_path / "ck", dataset=ds)
        arrays_path = path / "arrays.npz"
        blob = bytearray(arrays_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        arrays_path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="corrupted"):
            load_checkpoint(path)

    def test_unknown_model_class(self, setup, tmp_path):
        ds, split = setup
        path = save_checkpoint(_trained("BPRMF", ds, split),
                               tmp_path / "ck", dataset=ds)
        meta_path = path / "checkpoint.json"
        meta = json.loads(meta_path.read_text())
        meta["model_class"] = "NotAModel"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="unknown model class"):
            load_checkpoint(path)

    def test_truncated_json(self, setup, tmp_path):
        ds, split = setup
        path = save_checkpoint(_trained("BPRMF", ds, split),
                               tmp_path / "ck", dataset=ds)
        (path / "checkpoint.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)


# ----------------------------------------------------------------------
# Retrieval index + engine
# ----------------------------------------------------------------------
class TestIndexAndEngine:
    @pytest.mark.parametrize("name", ALL_MODEL_NAMES)
    def test_service_matches_live_recommend(self, setup, tmp_path, name):
        """Engine responses are bit-identical to the live model's,
        through an index save/load round trip, cache on or off."""
        ds, split = setup
        model = _trained(name, ds, split)
        index = build_index(model, ds, split)
        index.save(tmp_path / "idx")
        index = load_index(tmp_path / "idx")
        train_items = ds.items_of_user(split.train)
        users = list(range(0, ds.n_users, 5))
        for cache_size in (0, 128):
            service = RecommendService(
                index, ServiceConfig(k=10, cache_size=cache_size))
            responses = service.query_batch(users)
            for uid, response in zip(users, responses):
                live = model.recommend(uid, 10,
                                       exclude=train_items.get(uid, ()))
                assert response["items"] == [int(i) for i in live], (
                    f"{name}: user {uid} diverges from live recommend")
                assert not response["fallback"]
            # Second pass: served from cache (when enabled), same items.
            again = service.query_batch(users)
            assert [r["items"] for r in again] == [
                r["items"] for r in responses]
            assert all(r["cached"] for r in again) == (cache_size > 0)

    def test_unknown_user_popularity_fallback(self, setup):
        ds, split = setup
        model = _trained("BPRMF", ds, split)
        index = build_index(model, ds, split)
        service = RecommendService(index, ServiceConfig(k=5))
        for bad in (-1, ds.n_users, 10**9):
            response = service.query(bad)
            assert response["fallback"]
            assert response["items"] == [int(i) for i in
                                         index.popularity[:5]]
        assert service.stats["fallbacks"] == 3

    def test_cache_eviction_and_counters(self, setup):
        ds, split = setup
        model = _trained("BPRMF", ds, split)
        index = build_index(model, ds, split)
        service = RecommendService(index, ServiceConfig(k=5,
                                                        cache_size=4))
        service.query_batch(range(8))
        info = service.cache_info()
        assert info["size"] == 4
        assert info["cache_misses"] == 8
        service.query(7)                       # still cached
        assert service.stats["cache_hits"] == 1
        service.query(0)                       # evicted -> rescored
        assert service.stats["cache_misses"] == 9

    def test_index_corruption_rejected(self, setup, tmp_path):
        ds, split = setup
        model = _trained("BPRMF", ds, split)
        build_index(model, ds, split).save(tmp_path / "idx")
        npz = tmp_path / "idx" / "index.npz"
        blob = bytearray(npz.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        npz.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError, match="corrupted"):
            load_index(tmp_path / "idx")

    def test_missing_index(self, tmp_path):
        with pytest.raises(IndexFormatError, match="no index"):
            load_index(tmp_path / "nope")

    def test_load_harness_on_saved_index(self, setup, tmp_path):
        """Every key the BENCH_serve.json checks and SLO adapter read."""
        from repro.serve.bench import run_serve_benchmark

        ds, split = setup
        build_index(_trained("BPRMF", ds, split), ds,
                    split).save(tmp_path / "idx")
        results = run_serve_benchmark(index_path=tmp_path / "idx",
                                      n_requests=20, frontend_workers=0)
        assert results["naive"] is None
        assert results["speedup_indexed_vs_naive"] is None
        for path in ("indexed", "cached"):
            row = results[path]
            assert row["n_requests"] == 20
            assert 0 < row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
            assert row["mean_ms"] > 0 and row["qps"] > 0
        assert results["batched"]["qps"] > 0
        assert results["service_stats"]["requests"] == 80
        assert results["slo"]["passed"]
        assert "frontend" not in results


# ----------------------------------------------------------------------
# CLI flow + friendly obs errors
# ----------------------------------------------------------------------
class TestCli:
    def test_train_save_export_query_flow(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["train", "BPRMF", "--dataset", "ciao", "--epochs",
                     "2", "--save", "ck"]) == 0
        out = capsys.readouterr().out
        assert "[checkpoint] saved to ck" in out
        assert main(["serve", "export", "ck"]) == 0
        assert "written to" in capsys.readouterr().out
        assert main(["serve", "query", "ck/index",
                     "--users", "0,1,2,3,4"]) == 0
        first = capsys.readouterr().out
        assert first.count("user ") == 5
        assert main(["serve", "query", "ck/index",
                     "--users", "0,1,2,3,4", "--no-cache"]) == 0
        assert capsys.readouterr().out == first  # deterministic

    def test_serve_errors_are_friendly(self, tmp_path, capsys,
                                       monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["serve", "export", "nope"]) == 2
        assert "no checkpoint" in capsys.readouterr().err
        assert main(["serve", "query", "nope", "--users", "0"]) == 2
        assert "no index" in capsys.readouterr().err

    def test_obs_missing_and_empty_run_dirs(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["obs", "summarize", "missing"]) == 2
        assert "no run directory" in capsys.readouterr().err
        assert main(["obs", "list", "--run-dir", "missing"]) == 2
        assert "no run directory" in capsys.readouterr().err
        (tmp_path / "empty").mkdir()
        assert main(["obs", "summarize", "empty"]) == 2
        assert "no run artifacts" in capsys.readouterr().err
        assert main(["obs", "list", "--run-dir", "empty"]) == 2
        assert "no runs recorded" in capsys.readouterr().err
