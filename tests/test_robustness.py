"""Tests for the taxonomy-corruption robustness experiment."""

import numpy as np
import pytest

from repro.data import load_dataset
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.robustness import (corrupt_taxonomy,
                                          format_robustness_table,
                                          _with_taxonomy)
from repro.taxonomy import Taxonomy


class TestCorruptTaxonomy:
    @pytest.fixture
    def taxonomy(self):
        return Taxonomy.balanced(depth=4, branching=3, n_roots=2)

    def test_zero_fraction_identity(self, taxonomy):
        rng = np.random.default_rng(0)
        out = corrupt_taxonomy(taxonomy, 0.0, rng)
        np.testing.assert_array_equal(out.parents, taxonomy.parents)

    def test_fraction_of_edges_rewired(self, taxonomy):
        rng = np.random.default_rng(0)
        out = corrupt_taxonomy(taxonomy, 0.5, rng)
        changed = int((out.parents != taxonomy.parents).sum())
        non_roots = int((taxonomy.parents != -1).sum())
        # At most the requested number change (a victim may draw its old
        # parent back or have no candidate), and plenty should change.
        assert changed <= round(non_roots * 0.5)
        assert changed >= non_roots * 0.2

    def test_levels_preserved(self, taxonomy):
        rng = np.random.default_rng(1)
        out = corrupt_taxonomy(taxonomy, 0.7, rng)
        np.testing.assert_array_equal(out.levels, taxonomy.levels)

    def test_no_cycles(self, taxonomy):
        # Taxonomy's constructor validates; just ensure it constructs.
        rng = np.random.default_rng(2)
        for seed in range(5):
            corrupt_taxonomy(taxonomy, 0.9,
                             np.random.default_rng(seed))

    def test_corruption_changes_exclusions(self):
        ds = load_dataset("ciao", scale=0.5)
        rng = np.random.default_rng(3)
        corrupted = corrupt_taxonomy(ds.taxonomy, 0.8, rng)
        clone = _with_taxonomy(ds, corrupted)
        before = ds.relations.exclusion_set()
        after = clone.relations.exclusion_set()
        assert before != after

    def test_clone_keeps_interactions(self):
        ds = load_dataset("ciao", scale=0.5)
        rng = np.random.default_rng(4)
        clone = _with_taxonomy(ds, corrupt_taxonomy(ds.taxonomy, 0.5,
                                                    rng))
        np.testing.assert_array_equal(clone.user_ids, ds.user_ids)
        assert (clone.item_tags != ds.item_tags).nnz == 0


class TestRobustnessRun:
    def test_small_run_structure(self):
        results = run_experiment(ExperimentSpec(
            kind="robustness", datasets=("ciao",), fractions=(0.0, 0.5),
            epochs=5)).robustness()
        assert set(results) == {0.0, 0.5}
        for fraction in results:
            assert set(results[fraction]) == {"LogiRec", "LogiRec++"}
            for metrics in results[fraction].values():
                assert "recall@10" in metrics

    def test_format_table(self):
        results = {0.0: {"LogiRec": {"recall@10": 10.0},
                         "LogiRec++": {"recall@10": 12.0}}}
        text = format_robustness_table(results)
        assert "0%" in text
        assert "+2.00" in text
