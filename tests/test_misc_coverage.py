"""Coverage-widening tests for smaller code paths across the stack."""

import numpy as np
import pytest

from repro.core import LogiRecConfig, LogiRecPP
from repro.data import load_dataset, temporal_split
from repro.experiments.figures import (_item_embedding_array,
                                       _primary_tags)
from repro.models import BPRMF, HGCF, TrainConfig
from repro.taxonomy import Taxonomy
from repro.tensor import Tensor, logsumexp, stack, where


class TestTensorMiscPaths:
    def test_logsumexp_keepdims(self):
        x = Tensor(np.zeros((2, 3)))
        out = logsumexp(x, axis=1, keepdims=True)
        assert out.shape == (2, 1)
        np.testing.assert_allclose(out.data, np.log(3.0))

    def test_stack_axis1(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3))
        out = stack([a, b], axis=1)
        assert out.shape == (3, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))

    def test_where_with_broadcast_condition(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((2, 2)))
        cond = np.array([[True, False], [False, True]])
        out = where(cond, a, b)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, cond.astype(float))

    def test_tensor_repr_and_len(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        assert "requires_grad=True" in repr(t)
        assert len(t) == 4

    def test_comparison_operators_return_numpy(self):
        a = Tensor(np.array([1.0, 3.0]))
        assert (a > 2.0).tolist() == [False, True]
        assert (a <= 3.0).all()
        assert (a >= 1.0).all()
        assert (a < 0.0).sum() == 0

    def test_tensor_size_and_ndim(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.size == 6
        assert t.ndim == 2
        assert t.numpy() is t.data


class TestTaxonomyMiscPaths:
    def test_multiple_roots_are_siblings(self):
        forest = Taxonomy([-1, -1, -1])
        assert set(forest.siblings(0)) == {1, 2}

    def test_repr(self):
        tax = Taxonomy.balanced(2, 2)
        text = repr(tax)
        assert "n_tags=3" in text
        assert "depth=2" in text


class TestFigureHelpers:
    @pytest.fixture(scope="class")
    def setup(self):
        ds = load_dataset("ciao", scale=0.4)
        split = temporal_split(ds)
        return ds, split

    def test_primary_tags_prefers_deepest(self, setup):
        ds, _ = setup
        labels = _primary_tags(ds)
        levels = ds.taxonomy.levels
        csr = ds.item_tags
        for item in range(min(ds.n_items, 30)):
            tags = csr.indices[csr.indptr[item]:csr.indptr[item + 1]]
            if len(tags):
                assert levels[labels[item]] == levels[tags].max()

    def test_item_embedding_extraction_models(self, setup):
        ds, split = setup
        cfg = TrainConfig(dim=8, epochs=2, batch_size=1024, seed=0)
        bpr = BPRMF(ds.n_users, ds.n_items, cfg)
        bpr.fit(ds, split)
        emb = _item_embedding_array(bpr)
        assert emb.shape[0] == ds.n_items
        hgcf = HGCF(ds.n_users, ds.n_items, cfg)
        hgcf.fit(ds, split)
        emb2 = _item_embedding_array(hgcf)
        assert emb2.shape[0] == ds.n_items

    def test_item_embedding_extraction_rejects_unknown(self):
        with pytest.raises(TypeError):
            _item_embedding_array(object())


class TestCLICommands:
    """Table II/III/V through their one CLI path, ``exp run --kind``."""

    def test_compare_command(self, capsys):
        from repro.cli import main
        code = main(["exp", "run", "--kind", "comparison", "--models",
                     "BPRMF", "LogiRec++", "--datasets", "ciao",
                     "--epochs", "2", "--ephemeral"])
        assert code == 0
        out = capsys.readouterr().out
        assert "BPRMF" in out and "LogiRec++" in out
        assert "recall@10" in out

    def test_ablation_command(self, capsys):
        from repro.cli import main
        code = main(["exp", "run", "--kind", "ablation", "--datasets",
                     "ciao", "--epochs", "2", "--ephemeral"])
        assert code == 0
        assert "w/o" in capsys.readouterr().out

    def test_cases_command(self, capsys):
        from repro.cli import main
        code = main(["exp", "run", "--kind", "cases", "--datasets", "ciao",
                     "--epochs", "3", "--ephemeral"])
        assert code == 0
        assert "CON=" in capsys.readouterr().out


class TestRecommendPaths:
    def test_recommend_without_exclusions(self):
        ds = load_dataset("ciao", scale=0.4)
        split = temporal_split(ds)
        model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags,
                          LogiRecConfig(dim=8, epochs=2,
                                        batch_size=1024, seed=0))
        model.fit(ds, split)
        recs = model.recommend(0, k=5)
        assert len(recs) == 5

    def test_evaluation_result_getitem(self):
        from repro.eval import Evaluator
        ds = load_dataset("ciao", scale=0.4)
        split = temporal_split(ds)
        model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags,
                          LogiRecConfig(dim=8, epochs=2,
                                        batch_size=1024, seed=0))
        model.fit(ds, split)
        result = Evaluator(ds, split).evaluate_test(model)
        assert result["recall@10"] == result.means["recall@10"]
