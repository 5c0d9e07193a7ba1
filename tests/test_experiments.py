"""Integration tests for the experiment harness (tiny budgets)."""

import numpy as np
import pytest

from repro.core import LogiRecConfig, LogiRecPP
from repro.data import load_dataset, temporal_split
from repro.eval import Evaluator
from repro.experiments import (ABLATIONS, ExperimentSpec, SpecError,
                               build_model, case_rows,
                               embedding_projection,
                               format_comparison_table, run_experiment,
                               tag_separation_scores,
                               tag_types_vs_origin_distance,
                               user_tag_type_distribution)
from repro.experiments.ablation import format_ablation_table
from repro.experiments.cases import format_case_table
from repro.experiments.runner import (ALL_MODEL_NAMES,
                                      significance_vs_best_baseline)


@pytest.fixture(scope="module")
def small():
    ds = load_dataset("ciao", scale=0.5)
    return ds, temporal_split(ds)


@pytest.fixture(scope="module")
def trained_pp(small):
    ds, split = small
    model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags,
                      LogiRecConfig(dim=8, epochs=10, batch_size=2048,
                                    seed=0))
    model.fit(ds, split)
    return model


class TestModelZoo:
    def test_zoo_covers_all_paper_models(self):
        expected = {"BPRMF", "NeuMF", "CML", "SML", "HyperML", "CMLF",
                    "AMF", "TransC", "AGCN", "LightGCN", "HGCF", "GDCF",
                    "HRCF", "LogiRec", "LogiRec++"}
        assert set(ALL_MODEL_NAMES) == expected

    @pytest.mark.parametrize("name", ALL_MODEL_NAMES)
    def test_build_model(self, small, name):
        ds, _ = small
        model = build_model(name, ds)
        assert model.n_users == ds.n_users

    def test_unknown_model_raises(self, small):
        ds, _ = small
        with pytest.raises(KeyError):
            build_model("SVD++", ds)

    def test_run_model_returns_metrics(self, small):
        ds, split = small
        model = build_model("BPRMF", ds)
        model.config.epochs = 5
        evaluator = Evaluator(ds, split)
        model.fit(ds, split)
        result = evaluator.evaluate_test(model)
        assert set(result.means) == {"recall@10", "recall@20",
                                     "ndcg@10", "ndcg@20"}


class TestComparison:
    def test_run_comparison_structure(self):
        results = run_experiment(ExperimentSpec(
            kind="comparison", models=("BPRMF", "LogiRec++"),
            datasets=("ciao",), seeds=(0,), epochs=4)).comparison()
        assert "ciao" in results
        assert "BPRMF" in results["ciao"]
        mean, std = results["ciao"]["BPRMF"]["recall@10"]
        assert 0.0 <= mean <= 100.0
        assert std == 0.0  # one seed

    def test_format_table_renders(self):
        results = run_experiment(ExperimentSpec(
            kind="comparison", models=("BPRMF", "LogiRec++"),
            datasets=("ciao",), seeds=(0,), epochs=3)).comparison()
        text = format_comparison_table(results)
        assert "BPRMF" in text
        assert "recall@10" in text

    def test_significance_helper(self):
        per_user = {
            "BPRMF": {"recall@10": np.full(30, 0.1)},
            "LogiRec++": {"recall@10": np.full(30, 0.1) + 0.05},
        }
        out = significance_vs_best_baseline(per_user)
        assert out["best_baseline"] == "BPRMF"
        assert out["significant"]


class TestAblation:
    def test_all_variants_run(self):
        results = run_experiment(ExperimentSpec(
            kind="ablation", datasets=("ciao",),
            variants=("LogiRec++", "w/o L_Ex", "w/o HGCN", "w/o Hyper",
                      "w/o LRM"),
            epochs=4)).ablation()
        assert set(results["ciao"]) == {"LogiRec++", "w/o L_Ex",
                                        "w/o HGCN", "w/o Hyper",
                                        "w/o LRM"}

    def test_unknown_variant_raises(self):
        with pytest.raises(SpecError):
            ExperimentSpec(kind="ablation", datasets=("ciao",),
                           variants=("w/o magic",), epochs=2)

    def test_ablation_list_matches_paper(self):
        for variant in ["w/o L_Mem", "w/o L_Hie", "w/o L_Ex", "w/o HGCN",
                        "w/o LRM", "w/o Hyper"]:
            assert variant in ABLATIONS

    def test_format_ablation(self):
        results = run_experiment(ExperimentSpec(
            kind="ablation", datasets=("ciao",), variants=("LogiRec++",),
            epochs=2)).ablation()
        assert "LogiRec++" in format_ablation_table(results)


class TestSweeps:
    def test_lambda_sweep_structure(self):
        results = run_experiment(ExperimentSpec(
            kind="lambda", datasets=("ciao",), lambdas=(0.0, 1.0),
            ks=(10,), epochs=4)).lambda_sweep()
        assert set(results["ciao"]["series"]) == {0.0, 1.0}
        assert "recall@10" in results["ciao"]["baseline"]


class TestFigures:
    def test_tag_type_distribution(self, small):
        ds, split = small
        out = user_tag_type_distribution(ds, split)
        assert out["hist_values"].sum() == len(out["tag_type_counts"])

    def test_origin_distance_correlation(self, small, trained_pp):
        ds, split = small
        out = tag_types_vs_origin_distance(trained_pp, ds, split)
        assert -1.0 <= out["spearman_corr"] <= 1.0
        assert len(out["tag_types"]) == len(out["distances"])

    def test_embedding_projection_in_disk(self, small, trained_pp):
        ds, _ = small
        out = embedding_projection(trained_pp, ds)
        assert out["coords"].shape == (ds.n_items, 2)
        norms = np.linalg.norm(out["coords"], axis=1)
        assert (norms < 1.0).all()
        assert len(out["labels"]) == ds.n_items

    def test_separation_scores(self, small, trained_pp):
        ds, _ = small
        out = tag_separation_scores(trained_pp, ds)
        assert -1.0 <= out["mean_score"] <= 1.0
        assert len(out["scores"]) == len(out["is_overlapping_pair"])


class TestCases:
    def test_case_studies_rows(self, small, trained_pp):
        ds, split = small
        rows = case_rows(trained_pp, ds, split)
        assert 2 <= len(rows) <= 4
        for row in rows:
            assert set(row) >= {"user", "con", "gr", "alpha",
                                "profile_tags", "recommended_items",
                                "recommended_tags"}

    def test_case_studies_explicit_users(self, small, trained_pp):
        ds, split = small
        rows = case_rows(trained_pp, ds, split, user_ids=[0, 1])
        assert [r["user"] for r in rows] == [0, 1]

    def test_format_case_table(self, small, trained_pp):
        ds, split = small
        rows = case_rows(trained_pp, ds, split, user_ids=[0])
        text = format_case_table(rows)
        assert "CON=" in text and "alpha=" in text
