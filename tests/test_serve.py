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
import shutil

import numpy as np
import pytest

from repro.data import SyntheticConfig, generate_dataset, temporal_split
from repro.data.io import SnapshotError, load_dataset_file, save_dataset
from repro.experiments.runner import ALL_MODEL_NAMES, build_model
from repro.models.base import FitState
from repro.robust import (ResilienceConfig, TrainingSupervisor,
                          load_fit_state)
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


@pytest.fixture(scope="module")
def artifacts(setup, tmp_path_factory):
    """A trained BPRMF's auto-checkpoint (checkpoint + fit_state sidecar),
    its index and a dataset snapshot, saved once; each rejection case
    damages a copy."""
    ds, split = setup
    root = tmp_path_factory.mktemp("artifacts")
    model = build_model("BPRMF", ds, seed=0)
    model.config.epochs = 2
    model.fit(ds, split, supervisor=TrainingSupervisor(
        ResilienceConfig(checkpoint_dir=root / "ck")))
    build_index(model, ds, split).save(root / "idx")
    save_dataset(ds, root / "snap" / "dataset")
    return model, root


# artifact -> (saved directory, manifest, arrays file, loader, error,
#              what a missing manifest is called)
_ARTIFACTS = {
    "checkpoint": ("ck", "checkpoint.json", "arrays.npz",
                   lambda model, path: load_checkpoint(path),
                   CheckpointError, "no checkpoint"),
    "index": ("idx", "index.json", "index.npz",
              lambda model, path: load_index(path),
              IndexFormatError, "no index"),
    "fit_state": ("ck", "fit_state.json", "fit_state.npz",
                  lambda model, path: load_fit_state(
                      path, model.make_optimizer(), FitState()),
                  CheckpointError, "no fit_state"),
    "dataset_snapshot": ("snap", "dataset.taxonomy.json", "dataset.npz",
                         lambda model, path: load_dataset_file(
                             path / "dataset"),
                         SnapshotError, "no dataset snapshot"),
}


def _drop_manifest(manifest, arrays):
    manifest.unlink()


def _unreadable_json(manifest, arrays):
    manifest.write_text("{not json")


def _wrong_version(manifest, arrays):
    meta = json.loads(manifest.read_text())
    meta["format_version"] = 99
    manifest.write_text(json.dumps(meta))


def _flip_one_byte(manifest, arrays):
    blob = bytearray(arrays.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    arrays.write_bytes(bytes(blob))


_FAULTS = {
    "manifest_missing": (_drop_manifest, None),
    "unreadable_json": (_unreadable_json, "unreadable"),
    "wrong_version": (_wrong_version, "format_version"),
    "corrupted_byte": (_flip_one_byte, "corrupted"),
}


class TestArtifactRejection:
    """Every persisted artifact rejects every damage with its own typed
    error and a one-line reason, never a silently wrong load."""

    @pytest.mark.parametrize("fault", list(_FAULTS))
    @pytest.mark.parametrize("artifact", list(_ARTIFACTS))
    def test_rejected(self, artifacts, tmp_path, artifact, fault):
        model, root = artifacts
        subdir, manifest, arrays, load, error, missing = \
            _ARTIFACTS[artifact]
        damage, match = _FAULTS[fault]
        path = tmp_path / subdir
        shutil.copytree(root / subdir, path)
        damage(path / manifest, path / arrays)
        with pytest.raises(error, match=match or missing):
            load(model, path)


class TestCheckpointRejection:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nope")

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

    def test_serve_export_hashes_the_checkpoint_once(self, tmp_path,
                                                     capsys, monkeypatch):
        import repro.artifact
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["train", "BPRMF", "--dataset", "ciao", "--epochs",
                     "1", "--save", "ck"]) == 0
        arrays = (tmp_path / "ck" / "arrays.npz").read_bytes()
        hashed = []
        real = repro.artifact.sha256_of
        monkeypatch.setattr(repro.artifact, "sha256_of",
                            lambda data: hashed.append(data) or real(data))
        assert main(["serve", "export", "ck", "--out", "idx"]) == 0
        assert hashed.count(arrays) == 1

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
