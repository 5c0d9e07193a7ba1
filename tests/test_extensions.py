"""Tests for geodesic tools, relation extensions, io, and the builder."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.extensions import (classify_pair, classify_relations,
                                   intersection_loss,
                                   mined_relation_report)
from repro.data import SyntheticConfig, generate_dataset, temporal_split
from repro.data.io import (dataset_from_frames, load_dataset_file,
                           read_interactions_csv, read_item_tags_csv,
                           save_dataset)
from repro.manifolds import Lorentz, enclosing_ball
from repro.manifolds.geodesic import (einstein_midpoint, frechet_mean,
                                      lorentz_geodesic,
                                      lorentz_parallel_transport)
from repro.optim import Adam, Parameter
from repro.taxonomy import Taxonomy
from repro.taxonomy.builder import (build_taxonomy_from_tags,
                                    taxonomy_quality)
from repro.tensor import Tensor

RNG = np.random.default_rng(23)


class TestGeodesics:
    def test_endpoints(self):
        manifold = Lorentz()
        x = manifold.random((1, 4), RNG)[0]
        y = manifold.random((1, 4), RNG)[0]
        path = lorentz_geodesic(x, y, np.array([0.0, 1.0]))
        np.testing.assert_allclose(path[0], x, atol=1e-9)
        np.testing.assert_allclose(path[1], y, atol=1e-9)

    def test_midpoint_equidistant(self):
        manifold = Lorentz()
        x = manifold.random((1, 4), RNG)[0]
        y = manifold.random((1, 4), RNG)[0]
        mid = lorentz_geodesic(x, y, np.array([0.5]))[0]
        d_xm = np.arccosh(-Lorentz.inner_np(x[None], mid[None]))[0]
        d_ym = np.arccosh(-Lorentz.inner_np(y[None], mid[None]))[0]
        assert d_xm == pytest.approx(d_ym, rel=1e-6)

    def test_path_on_manifold(self):
        manifold = Lorentz()
        x = manifold.random((1, 5), RNG)[0]
        y = manifold.random((1, 5), RNG)[0]
        path = lorentz_geodesic(x, y, np.linspace(0, 1, 7))
        np.testing.assert_allclose(Lorentz.inner_np(path, path), -1.0,
                                   atol=1e-8)

    def test_parallel_transport_preserves_norm(self):
        manifold = Lorentz()
        x = manifold.random((1, 4), RNG)
        y = manifold.random((1, 4), RNG)
        v = manifold.proj_tangent(x, RNG.normal(size=(1, 4)))
        transported = lorentz_parallel_transport(x, y, v)
        # Transported vector is tangent at y with the same Lorentz norm.
        np.testing.assert_allclose(Lorentz.inner_np(y, transported), 0.0,
                                   atol=1e-9)
        np.testing.assert_allclose(Lorentz.inner_np(v, v),
                                   Lorentz.inner_np(transported,
                                                    transported),
                                   atol=1e-9)

    def test_frechet_mean_of_identical_points(self):
        manifold = Lorentz()
        x = manifold.random((1, 4), RNG)[0]
        mean = frechet_mean(np.stack([x, x, x]))
        np.testing.assert_allclose(mean, x, atol=1e-7)

    def test_frechet_mean_minimizes_sq_distances(self):
        manifold = Lorentz()
        pts = manifold.random((10, 4), RNG)
        mean = frechet_mean(pts)

        def cost(point):
            d = np.arccosh(np.maximum(
                -Lorentz.inner_np(pts, point[None]), 1.0))
            return float(np.sum(d ** 2))

        base = cost(mean)
        for p in pts:
            assert base <= cost(p) + 1e-6

    def test_einstein_midpoint_on_manifold(self):
        manifold = Lorentz()
        pts = manifold.random((6, 5), RNG)
        mid = einstein_midpoint(pts)
        assert Lorentz.inner_np(mid[None], mid[None])[0] == pytest.approx(
            -1.0, abs=1e-9)

    def test_einstein_midpoint_weighted(self):
        manifold = Lorentz()
        pts = manifold.random((2, 4), RNG)
        # All weight on the first point => midpoint ~= first point.
        mid = einstein_midpoint(pts, weights=np.array([1.0, 0.0]))
        np.testing.assert_allclose(mid, pts[0], atol=1e-9)


class TestIntersectionExtension:
    def test_classify_pair_cases(self):
        o = np.array([0.0, 0.0])
        assert classify_pair(o, 1.0, np.array([5.0, 0.0]),
                             1.0) == "exclusion"
        assert classify_pair(o, 3.0, np.array([0.5, 0.0]),
                             1.0) == "hierarchy_i_contains_j"
        assert classify_pair(o, 1.0, np.array([0.5, 0.0]),
                             3.0) == "hierarchy_j_contains_i"
        assert classify_pair(o, 1.0, np.array([1.5, 0.0]),
                             1.0) == "intersection"

    def test_classify_relations_batch(self):
        centers = np.array([[0.8, 0.0], [-0.8, 0.0], [0.79, 0.01]])
        labels = classify_relations(centers, np.array([[0, 1], [0, 2]]))
        assert labels[0] == "exclusion"       # opposite tiny balls
        assert labels[1] != "exclusion"       # nearly identical centers

    def test_intersection_loss_zero_when_partial_overlap(self):
        # Two balls overlapping partially: loss = 0.
        centers = Tensor(np.array([[0.5, 0.0], [0.55, 0.1]]))
        balls = enclosing_ball(centers)
        o, r = balls[0].data, balls[1].data
        gap = np.linalg.norm(o[0] - o[1])
        if abs(r[0, 0] - r[1, 0]) < gap < r[0, 0] + r[1, 0]:
            loss = intersection_loss(balls, np.array([[0, 1]]))
            assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_intersection_loss_positive_when_disjoint(self):
        centers = Tensor(np.array([[0.9, 0.0], [-0.9, 0.0]]))
        loss = intersection_loss(enclosing_ball(centers),
                                 np.array([[0, 1]]))
        assert loss.item() > 0

    def test_intersection_loss_trains_toward_overlap(self):
        centers = Parameter(np.array([[0.9, 0.0], [-0.9, 0.0]]))
        opt = Adam([centers], lr=0.02)
        pairs = np.array([[0, 1]])
        for _ in range(400):
            opt.zero_grad()
            loss = intersection_loss(enclosing_ball(centers), pairs)
            if loss.item() < 1e-8:
                break
            loss.backward()
            opt.step()
        assert loss.item() < 0.05

    def test_intersection_loss_empty(self):
        centers = Tensor(np.array([[0.5, 0.0]]))
        loss = intersection_loss(enclosing_ball(centers),
                                 np.zeros((0, 2), dtype=np.int64))
        assert loss.item() == 0.0

    def test_mined_relation_report(self):
        from repro.core import LogiRecConfig, LogiRecPP
        ds = generate_dataset(SyntheticConfig(
            n_users=60, n_items=120, depth=3, branching=3,
            overlap_pair_frac=0.5, overlap_item_frac=0.7, seed=5))
        split = temporal_split(ds)
        model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags,
                          LogiRecConfig(dim=8, epochs=25, lam=2.0,
                                        seed=0))
        model.fit(ds, split)
        report = mined_relation_report(model, ds)
        assert 0.0 <= report["kept_genuine_frac"] <= 1.0
        assert 0.0 <= report["softened_mislabelled_frac"] <= 1.0
        assert len(report["rows"]) == len(ds.relations.exclusion)


class TestDatasetIO:
    def test_npz_roundtrip(self, tmp_path):
        ds = generate_dataset(SyntheticConfig(n_users=20, n_items=30,
                                              seed=2))
        path = str(tmp_path / "ds")
        save_dataset(ds, path)
        loaded = load_dataset_file(path)
        np.testing.assert_array_equal(loaded.user_ids, ds.user_ids)
        np.testing.assert_array_equal(loaded.item_ids, ds.item_ids)
        assert (loaded.item_tags != ds.item_tags).nnz == 0
        assert loaded.taxonomy.n_tags == ds.taxonomy.n_tags
        assert loaded.name == ds.name

    def test_csv_ingestion(self, tmp_path):
        inter = tmp_path / "inter.csv"
        inter.write_text("user,item,ts\n"
                         "alice,song1,3\nalice,song2,5\nbob,song1,1\n")
        users, items, times, user_map, item_map = read_interactions_csv(
            str(inter))
        assert len(users) == 3
        assert user_map["alice"] == 0
        assert items[2] == items[0]  # bob also listened to song1
        np.testing.assert_array_equal(times, [3, 5, 1])

    def test_csv_without_timestamp_uses_order(self, tmp_path):
        inter = tmp_path / "inter.csv"
        inter.write_text("user,item\nu1,i1\nu1,i2\n")
        _, _, times, _, _ = read_interactions_csv(str(inter))
        np.testing.assert_array_equal(times, [0, 1])

    def test_item_tags_csv(self, tmp_path):
        tags = tmp_path / "tags.csv"
        tags.write_text("item,tag\nsong1,rock\nsong2,jazz\n"
                        "ghost,metal\n")
        item_map = {"song1": 0, "song2": 1}
        q, tag_map = read_item_tags_csv(str(tags), item_map)
        assert q.shape == (2, 2)  # ghost skipped, 2 tags kept
        assert q[0, tag_map["rock"]] == 1.0
        assert "metal" not in tag_map

    def test_dataset_from_frames(self):
        taxonomy = Taxonomy([-1, 0])
        q = sp.csr_matrix(np.array([[1, 0], [0, 1], [1, 1]]))
        ds = dataset_from_frames(
            np.array([0, 0, 1]), np.array([0, 1, 2]),
            np.array([0, 1, 0]), q, taxonomy)
        assert ds.n_users == 2
        assert ds.n_items == 3
        assert ds.relations.counts["n_membership"] == 4


class TestTaxonomyBuilder:
    def _nested_q(self):
        """Items under a perfect 2-level hierarchy: tag0 > {tag1, tag2}."""
        rows = []
        for item in range(20):
            child = 1 + (item % 2)
            rows.append((item, 0))
            rows.append((item, child))
        r, c = zip(*rows)
        return sp.coo_matrix((np.ones(len(rows)), (r, c)),
                             shape=(20, 3)).tocsr()

    def test_recovers_planted_hierarchy(self):
        q = self._nested_q()
        inferred = build_taxonomy_from_tags(q)
        assert inferred.parent(1) == 0
        assert inferred.parent(2) == 0
        assert inferred.parent(0) == -1

    def test_quality_against_reference(self):
        q = self._nested_q()
        inferred = build_taxonomy_from_tags(q)
        reference = Taxonomy([-1, 0, 0])
        quality = taxonomy_quality(inferred, reference)
        assert quality["f1"] == pytest.approx(1.0)

    def test_threshold_prunes_weak_edges(self):
        # tag1 co-occurs with tag0 only half the time: no edge at 0.8.
        rows = [(i, 1) for i in range(10)] + [(i, 0) for i in range(5)]
        r, c = zip(*rows)
        q = sp.coo_matrix((np.ones(len(rows)), (r, c)),
                          shape=(10, 2)).tocsr()
        inferred = build_taxonomy_from_tags(q,
                                            subsumption_threshold=0.8)
        assert inferred.parent(1) == -1

    def test_low_support_tags_stay_roots(self):
        q = sp.csr_matrix(np.array([[1, 1], [1, 0], [1, 0]]))
        inferred = build_taxonomy_from_tags(q, min_support=2)
        assert inferred.parent(1) == -1  # support 1 < min_support

    def test_synthetic_dataset_recovery(self):
        """On generator output (ancestor_prob < 1) the builder should
        still recover a majority of ancestor edges."""
        ds = generate_dataset(SyntheticConfig(
            n_users=30, n_items=300, depth=3, branching=3,
            ancestor_prob=0.95, extra_tag_prob=0.0,
            overlap_pair_frac=0.0, seed=9))
        inferred = build_taxonomy_from_tags(ds.item_tags,
                                            subsumption_threshold=0.7)
        quality = taxonomy_quality(inferred, ds.taxonomy)
        assert quality["recall"] > 0.4
        assert quality["precision"] > 0.4


class TestCLI:
    def test_stats_command(self, capsys):
        from repro.cli import main
        assert main(["stats", "--datasets", "ciao"]) == 0
        out = capsys.readouterr().out
        assert "ciao" in out

    def test_train_command(self, capsys):
        from repro.cli import main
        code = main(["train", "BPRMF", "--dataset", "ciao",
                     "--epochs", "2"])
        assert code == 0
        assert "BPRMF on ciao" in capsys.readouterr().out

    def test_unknown_model_errors(self):
        from repro.cli import main
        with pytest.raises(KeyError):
            main(["train", "Nonexistent", "--epochs", "1"])

    def test_parser_requires_command(self):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv, code, message", [
        (["exp", "run", "--models", "Nope"], 2, "unknown model"),
        (["serve", "query", "missing", "--users", "0"], 2, "no index"),
        (["serve", "export", "missing"], 2, "no checkpoint"),
        (["online", "ingest", "--workdir", "online", "--dataset", "ciao"],
         1, "corrupt journal"),
        (["train", "BPRMF", "--dataset", "ciao", "--epochs", "1",
          "--checkpoint-dir", "ck", "--checkpoint-every", "0"], 2,
         "checkpoint_every"),
        # The config is checked before the index directory is read.
        (["serve", "http", "missing", "--workers", "0"], 2, "n_workers"),
    ], ids=["SpecError", "IndexFormatError", "CheckpointError",
            "StreamError", "ConfigError-train", "ConfigError-serve"])
    def test_expected_failure_exit_codes(self, argv, code, message,
                                         tmp_path, capsys, monkeypatch):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        (tmp_path / "online").mkdir()
        (tmp_path / "online" / "journal.jsonl").write_text("not json\n")
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert "Traceback" not in captured.err
