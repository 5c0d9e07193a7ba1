"""Tests for the SVG visualization module."""

import numpy as np
import pytest

from repro.core import LogiRecConfig, LogiRecPP
from repro.data import load_dataset, temporal_split
from repro.viz import render_poincare_disk, save_embedding_figure


class TestSVGRendering:
    def test_basic_svg_structure(self):
        coords = np.array([[0.1, 0.2], [-0.5, 0.3]])
        labels = np.array([0, 1])
        svg = render_poincare_disk(coords, labels)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        # Unit circle + 2 data points.
        assert svg.count("<circle") >= 3

    def test_labels_get_distinct_colors(self):
        coords = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
        labels = np.array([0, 1, 0])
        svg = render_poincare_disk(coords, labels)
        assert "#4e79a7" in svg and "#f28e2b" in svg

    def test_unlabelled_points_gray(self):
        svg = render_poincare_disk(np.array([[0.0, 0.0]]),
                                   np.array([-1]))
        assert "#cccccc" in svg

    def test_legend_names_escaped(self):
        svg = render_poincare_disk(np.array([[0.1, 0.1]]),
                                   np.array([0]),
                                   names=["<Rock & Roll>"])
        assert "&lt;Rock &amp; Roll&gt;" in svg
        assert "<Rock & Roll>" not in svg

    def test_tag_region_overlay(self):
        svg = render_poincare_disk(
            np.array([[0.1, 0.1]]), np.array([0]),
            tag_regions={0: (np.array([0.5, 0.0]), 0.3)})
        assert "stroke-dasharray" in svg

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="coords"):
            render_poincare_disk(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="labels"):
            render_poincare_disk(np.zeros((3, 2)), np.zeros(2))

    def test_save_embedding_figure(self, tmp_path):
        ds = load_dataset("ciao", scale=0.4)
        split = temporal_split(ds)
        model = LogiRecPP(ds.n_users, ds.n_items, ds.n_tags,
                          LogiRecConfig(dim=8, epochs=3,
                                        batch_size=1024, seed=0))
        model.fit(ds, split)
        path = str(tmp_path / "fig.svg")
        out = save_embedding_figure(model, ds, path)
        assert out == path
        content = open(path).read()
        assert content.startswith("<svg")
        assert ds.name in content
