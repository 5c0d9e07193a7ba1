"""Tests for the resumable experiment DAG (spec → graph → scheduler).

Covers the PR 10 contracts: config-hash stability across processes,
cache hit/miss accounting, and kill→resume bit-identity of aggregate
tables.
"""

import json
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.dag import (ExperimentError, ExperimentSpec,
                                   ResultStore, SpecError, compile_spec,
                                   experiment_status, run_experiment)
from repro.robust import FaultPlan, FaultSpec, SimulatedCrash

EPOCHS = 3


def tiny_spec(**overrides):
    base = dict(kind="comparison", models=("BPRMF", "CML"),
                datasets=("ciao",), seeds=(0,), epochs=EPOCHS, scale=0.5)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecHash:
    def test_same_spec_same_hash(self):
        assert tiny_spec().spec_hash() == tiny_spec().spec_hash()

    def test_same_spec_same_node_keys(self):
        keys_a = list(compile_spec(tiny_spec()).topo_order())
        keys_b = list(compile_spec(tiny_spec()).topo_order())
        assert keys_a == keys_b

    def test_hash_stable_across_processes(self):
        spec = tiny_spec()
        code = ("from repro.experiments.dag import ExperimentSpec, "
                "compile_spec; "
                f"spec = ExperimentSpec.from_dict({spec.to_dict()!r}); "
                "print(spec.spec_hash()); "
                "print('\\n'.join(compile_spec(spec).topo_order()))")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=Path(__file__).resolve().parents[1])
        lines = out.stdout.split()
        assert lines[0] == spec.spec_hash()
        assert lines[1:] == list(compile_spec(spec).topo_order())

    @pytest.mark.parametrize("change", [
        {"models": ("BPRMF",)},
        {"datasets": ("cd",)},
        {"seeds": (0, 1)},
        {"epochs": EPOCHS + 1},
        {"ks": (10,)},
        {"backend": "fast"},
        {"scale": 1.0},
    ])
    def test_any_field_change_new_hash(self, change):
        base = tiny_spec()
        changed = tiny_spec(**change)
        assert base.spec_hash() != changed.spec_hash()
        base_keys = set(compile_spec(base).topo_order())
        changed_keys = set(compile_spec(changed).topo_order())
        assert base_keys != changed_keys

    def test_foreign_fields_do_not_perturb(self):
        # A comparison spec zeroes ablation-only fields at construction.
        assert (tiny_spec().spec_hash()
                == tiny_spec(variants=("w/o L_Ex",)).spec_hash())

    def test_roundtrip_through_dict(self):
        spec = tiny_spec()
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            ExperimentSpec(kind="banquet")

    def test_unknown_model(self):
        with pytest.raises(SpecError):
            tiny_spec(models=("BPRMF", "NotAModel"))

    def test_unknown_dataset(self):
        with pytest.raises(SpecError):
            tiny_spec(datasets=("netflix",))


class TestCaching:
    def test_ephemeral_runs_every_node(self):
        result = run_experiment(tiny_spec())
        assert result.stats.hits == 0
        assert result.stats.executed == result.stats.total

    def test_second_run_all_cache_hits(self, tmp_path):
        spec = tiny_spec()
        first = run_experiment(spec, workdir=tmp_path)
        assert first.stats.hits == 0
        assert first.stats.retrained == 2          # two models, one seed
        second = run_experiment(spec, workdir=tmp_path)
        assert second.stats.hits == second.stats.total
        assert second.stats.executed == 0
        assert second.stats.retrained == 0
        assert "100%" in second.stats.summary()
        # Bit-identical tables from cache.
        assert second.sections == first.sections
        assert second.format() == first.format()

    def test_spec_change_partial_reuse(self, tmp_path):
        run_experiment(tiny_spec(), workdir=tmp_path)
        # Adding a model reuses the dataset + old train/eval nodes.
        grown = run_experiment(
            tiny_spec(models=("BPRMF", "CML", "NeuMF")),
            workdir=tmp_path)
        assert grown.stats.hits > 0
        assert grown.stats.retrained == 1          # only the new model

    def test_status_lifecycle(self, tmp_path):
        spec = tiny_spec()
        assert experiment_status(spec, tmp_path)["state"] == "empty"
        run_experiment(spec, workdir=tmp_path)
        status = experiment_status(spec, tmp_path)
        assert status["state"] == "complete"
        assert status["done"] == status["total"]
        wider = tiny_spec(models=("BPRMF", "CML", "NeuMF"))
        assert experiment_status(wider, tmp_path)["state"] == "partial"


class TestKillResume:
    def test_kill_then_resume_bit_identical(self, tmp_path):
        spec = tiny_spec()
        label = "train:BPRMF:ciao:s0"
        kill_epoch = zlib.crc32(b"BPRMF") % (EPOCHS - 1) + 1
        plan = FaultPlan([FaultSpec("kill", epoch=kill_epoch)])
        crashed = tmp_path / "crashed"
        with pytest.raises(ExperimentError) as err:
            run_experiment(spec, workdir=crashed,
                           fault_plans={label: plan})
        assert isinstance(err.value.cause, SimulatedCrash)
        assert err.value.label == label
        # The killed node left auto-checkpoints but no completion marker.
        store = ResultStore(crashed)
        status = experiment_status(spec, crashed)
        assert status["state"] == "partial"
        killed = [n for n in status["nodes"] if n["label"] == label]
        assert killed and not killed[0]["done"]
        # Resume (no fault plan) and compare against a clean fresh run.
        resumed = run_experiment(spec, workdir=crashed)
        assert resumed.stats.hits > 0
        train_key = killed[0]["key"]
        assert store.load(train_key)["resumed"] is True
        clean = run_experiment(spec, workdir=tmp_path / "clean")
        assert resumed.sections == clean.sections
        assert resumed.format() == clean.format()
        assert (json.dumps(resumed.sections, sort_keys=True)
                == json.dumps(clean.sections, sort_keys=True))

    def test_torn_checkpoint_pair_trains_from_scratch(self, tmp_path):
        """A kill between the checkpoint write and the sidecar write
        leaves a pair the supervisor refuses; the rerun must discard
        ``ck/`` and train the node afresh instead of failing."""
        spec = tiny_spec()
        label = "train:BPRMF:ciao:s0"
        for name, kill_epoch in (("torn", 1), ("donor", 0)):
            plan = FaultPlan([FaultSpec("kill", epoch=kill_epoch)])
            with pytest.raises(ExperimentError):
                run_experiment(spec, workdir=tmp_path / name,
                               fault_plans={label: plan})
        key = next(n["key"] for n in experiment_status(
            spec, tmp_path / "torn")["nodes"] if n["label"] == label)
        ck = ResultStore(tmp_path / "torn").node_dir(key) / "ck"
        donor = ResultStore(tmp_path / "donor").node_dir(key) / "ck"
        for name in ("fit_state.json", "fit_state.npz"):
            (ck / name).write_bytes((donor / name).read_bytes())

        rerun = run_experiment(spec, workdir=tmp_path / "torn")
        assert ResultStore(tmp_path / "torn").load(key)["resumed"] is False
        clean = run_experiment(spec, workdir=tmp_path / "clean")
        assert (json.dumps(rerun.sections, sort_keys=True)
                == json.dumps(clean.sections, sort_keys=True))
        assert rerun.format() == clean.format()


class TestGridCompile:
    def test_grid_dedups_shared_nodes(self):
        spec = ExperimentSpec(kind="grid", datasets=("ciao",),
                              models=("BPRMF", "LogiRec++"), epochs=2)
        graph = compile_spec(spec)
        keys = list(graph.topo_order())
        assert len(keys) == len(set(keys))
        dataset_nodes = [k for k in keys
                         if graph.nodes[k].kind == "dataset"
                         and graph.nodes[k].payload.get("fraction",
                                                        0.0) == 0.0]
        # All six sections share one clean ciao dataset node.
        assert len(dataset_nodes) == 1
        assert set(graph.sections) == {"comparison", "ablation", "sweep",
                                       "lambda", "robustness", "cases"}

    def test_topo_order_deps_first(self):
        graph = compile_spec(tiny_spec())
        seen = set()
        for key in graph.topo_order():
            assert all(dep in seen for dep in graph.nodes[key].deps)
            seen.add(key)


class TestCli:
    def run_cli(self, *argv):
        return cli_main(list(argv))

    def test_exp_run_status_resume_clean(self, tmp_path, capsys):
        workdir = str(tmp_path / "exp")
        flags = ["--kind", "comparison", "--models", "BPRMF",
                 "--datasets", "ciao", "--seeds", "0",
                 "--epochs", str(EPOCHS), "--scale", "0.5",
                 "--workdir", workdir]
        assert self.run_cli("exp", "run", *flags, "--no-tables") == 0
        assert "cached (0%)" in capsys.readouterr().out
        assert self.run_cli("exp", "status", *flags) == 0
        capsys.readouterr()
        # Resume with no --spec picks up the recorded spec: all cached.
        assert self.run_cli("exp", "resume", "--workdir", workdir,
                            "--no-tables") == 0
        assert "cached (100%)" in capsys.readouterr().out
        assert self.run_cli("exp", "clean", "--workdir", workdir) == 0
        capsys.readouterr()
        assert self.run_cli("exp", "status", *flags) == 2

    def test_exp_status_partial_exit_code(self, tmp_path, capsys):
        workdir = str(tmp_path / "exp")
        flags = ["--kind", "comparison", "--models", "BPRMF",
                 "--datasets", "ciao", "--seeds", "0",
                 "--epochs", str(EPOCHS), "--scale", "0.5",
                 "--workdir", workdir]
        assert self.run_cli("exp", "run", *flags, "--no-tables") == 0
        capsys.readouterr()
        wider = ["--kind", "comparison", "--models", "BPRMF", "CML",
                 "--datasets", "ciao", "--seeds", "0",
                 "--epochs", str(EPOCHS), "--scale", "0.5",
                 "--workdir", workdir]
        assert self.run_cli("exp", "status", *wider) == 1

    def test_exp_resume_nothing_recorded(self, tmp_path, capsys):
        rc = self.run_cli("exp", "resume", "--workdir",
                          str(tmp_path / "nothing"))
        capsys.readouterr()
        assert rc == 2

    def test_compare_wrapper_runs(self, tmp_path, capsys):
        # The comparison job formerly behind `compare`, now one `exp run`.
        rc = self.run_cli("exp", "run", "--kind", "comparison", "--models",
                          "BPRMF", "--datasets", "ciao", "--epochs",
                          str(EPOCHS), "--ephemeral")
        out = capsys.readouterr().out
        assert rc == 0
        assert "BPRMF" in out
        assert "recall@10" in out
