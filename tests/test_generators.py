"""Tests for synthetic graph/feature generators."""

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from graph_checks import is_symmetric


class TestPowerlawDegrees:
    def test_mean_close_to_target(self):
        degs = gen.powerlaw_degree_sequence(5000, avg_degree=10, seed=0)
        assert 5 <= degs.mean() <= 20

    def test_even_sum(self):
        degs = gen.powerlaw_degree_sequence(1001, avg_degree=7, seed=1)
        assert degs.sum() % 2 == 0

    def test_minimum_degree(self):
        degs = gen.powerlaw_degree_sequence(1000, avg_degree=5, min_degree=2, seed=2)
        assert degs.min() >= 2

    def test_heavy_tail(self):
        degs = gen.powerlaw_degree_sequence(5000, avg_degree=10, seed=3)
        assert degs.max() > 5 * degs.mean()

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            gen.powerlaw_degree_sequence(100, 5, exponent=0.5)


class TestRmat:
    def test_shape(self):
        src, dst = gen.rmat_edges(8, 4, seed=0)
        assert len(src) == len(dst) == (1 << 8) * 4

    def test_ids_in_range(self):
        src, dst = gen.rmat_edges(7, 3, seed=1)
        n = 1 << 7
        assert src.max() < n and dst.max() < n

    def test_graph_is_symmetric(self):
        g = gen.rmat_graph(7, 4, seed=2)
        assert isinstance(g, CSRGraph)
        assert is_symmetric(g)

    def test_degree_skew(self):
        g = gen.rmat_graph(10, 8, seed=3)
        degs = g.out_degree()
        assert degs.max() > 4 * max(1.0, degs.mean())

    def test_invalid_quadrants(self):
        with pytest.raises(ValueError):
            gen.rmat_edges(5, 2, a=0.6, b=0.3, c=0.3)

    def test_deterministic(self):
        a = gen.rmat_edges(6, 2, seed=9)
        b = gen.rmat_edges(6, 2, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestPlantedPartition:
    def test_labels_shape_and_range(self):
        graph, labels = gen.planted_partition_graph(500, 5, 10, seed=0)
        assert len(labels) == 500
        assert labels.min() >= 0 and labels.max() < 5

    def test_intra_fraction_effect(self):
        """Higher intra_fraction must produce a larger share of intra-community edges."""
        def intra_share(frac):
            graph, labels = gen.planted_partition_graph(
                800, 8, 12, intra_fraction=frac, seed=1
            )
            src, dst = graph.edges()
            return np.mean(labels[src] == labels[dst])

        assert intra_share(0.9) > intra_share(0.3)

    def test_avg_degree_reasonable(self):
        graph, _ = gen.planted_partition_graph(1000, 5, 16, seed=2)
        avg = graph.num_edges / graph.num_nodes
        assert 6 <= avg <= 32

    def test_symmetric(self):
        graph, _ = gen.planted_partition_graph(300, 4, 8, seed=3)
        assert is_symmetric(graph)


class TestFeaturesAndSplits:
    def test_features_shape_dtype(self):
        labels = np.array([0, 1, 2, 0, 1])
        feats = gen.class_informative_features(labels, 16, seed=0)
        assert feats.shape == (5, 16)
        assert feats.dtype == np.float32

    def test_features_are_class_informative(self):
        """Same-class feature centroids must be closer than cross-class ones."""
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=600)
        feats = gen.class_informative_features(labels, 32, noise=0.5, seed=1)
        centroids = np.stack([feats[labels == c].mean(axis=0) for c in range(3)])
        within = np.mean([np.linalg.norm(feats[labels == c] - centroids[c], axis=1).mean() for c in range(3)])
        between = np.mean(
            [np.linalg.norm(centroids[i] - centroids[j]) for i in range(3) for j in range(i + 1, 3)]
        )
        assert between > 0.5 * within

    def test_split_masks_are_disjoint_and_cover(self):
        train, val, test = gen.train_val_test_split(1000, seed=0)
        assert not np.any(train & val)
        assert not np.any(train & test)
        assert not np.any(val & test)
        assert np.all(train | val | test)

    def test_split_fractions(self):
        train, val, test = gen.train_val_test_split(1000, 0.5, 0.25, seed=1)
        assert abs(train.sum() - 500) <= 1
        assert abs(val.sum() - 250) <= 1

    def test_split_invalid_fractions(self):
        with pytest.raises(ValueError):
            gen.train_val_test_split(100, 0.8, 0.5)

    def test_smooth_labels_increases_homophily(self, small_community_graph):
        graph, labels = small_community_graph
        rng = np.random.default_rng(0)
        noisy = labels.copy()
        flip = rng.random(len(labels)) < 0.5
        noisy[flip] = rng.integers(0, labels.max() + 1, size=int(flip.sum()))
        smoothed = gen.smooth_labels_by_propagation(graph, noisy, rounds=2, seed=0)
        src, dst = graph.edges()

        def homophily(lab):
            return float(np.mean(lab[src] == lab[dst]))

        assert homophily(smoothed) > homophily(noisy)
