"""Tests for the synthetic OGB-style dataset registry."""

import numpy as np
import pytest

from repro.graph.datasets import (
    DATASET_SPECS,
    available_datasets,
    load_dataset,
    make_custom_dataset,
)


class TestRegistry:
    def test_four_paper_datasets_registered(self):
        assert set(available_datasets()) >= {"arxiv", "products", "reddit", "papers"}

    def test_feature_dims_match_paper(self):
        # Table II feature dimensions: 128 / 100 / 602 / 128.
        assert DATASET_SPECS["arxiv"].feature_dim == 128
        assert DATASET_SPECS["products"].feature_dim == 100
        assert DATASET_SPECS["reddit"].feature_dim == 602
        assert DATASET_SPECS["papers"].feature_dim == 128

    def test_relative_scale_ordering(self):
        # papers > products > reddit > arxiv in node count, as in the paper.
        specs = DATASET_SPECS
        assert specs["papers"].base_num_nodes > specs["products"].base_num_nodes
        assert specs["products"].base_num_nodes > specs["reddit"].base_num_nodes
        assert specs["reddit"].base_num_nodes > specs["arxiv"].base_num_nodes

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            load_dataset("imaginary")


class TestLoadDataset:
    def test_basic_shapes(self, small_dataset):
        ds = small_dataset
        assert ds.features.shape == (ds.num_nodes, 128)
        assert len(ds.labels) == ds.num_nodes
        assert ds.labels.max() < ds.num_classes

    def test_masks_partition_nodes(self, small_dataset):
        ds = small_dataset
        combined = ds.train_mask.astype(int) + ds.val_mask.astype(int) + ds.test_mask.astype(int)
        assert np.all(combined == 1)

    def test_nids_accessors(self, small_dataset):
        ds = small_dataset
        assert len(ds.val_nids()) == ds.val_mask.sum()
        assert len(ds.test_nids()) == ds.test_mask.sum()

    def test_scale_changes_size(self):
        small = load_dataset("arxiv", scale=0.1, seed=0)
        large = load_dataset("arxiv", scale=0.5, seed=0)
        assert large.num_nodes > small.num_nodes

    def test_scale_minimum(self):
        ds = load_dataset("arxiv", scale=0.001, seed=0)
        assert ds.num_nodes >= 256

    def test_deterministic_given_seed(self):
        a = load_dataset("arxiv", scale=0.1, seed=42)
        b = load_dataset("arxiv", scale=0.1, seed=42)
        np.testing.assert_array_equal(a.graph.indices, b.graph.indices)
        np.testing.assert_allclose(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = load_dataset("arxiv", scale=0.1, seed=1)
        b = load_dataset("arxiv", scale=0.1, seed=2)
        assert not np.array_equal(a.labels, b.labels) or not np.allclose(a.features, b.features)

    def test_summary_keys(self, small_dataset):
        summary = small_dataset.summary()
        for key in ("num_nodes", "num_edges", "feature_dim", "num_classes", "avg_degree"):
            assert key in summary

    def test_planted_dataset_has_homophily(self, products_dataset):
        ds = products_dataset
        src, dst = ds.graph.edges()
        same = np.mean(ds.labels[src] == ds.labels[dst])
        # Far above the 1/num_classes chance rate.
        assert same > 3.0 / ds.num_classes

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_dataset("arxiv", scale=0.0)


class TestCustomDataset:
    def test_make_custom(self):
        ds = make_custom_dataset(
            num_nodes=512, avg_degree=8, feature_dim=32, num_classes=5, seed=0, name="tiny-test"
        )
        assert ds.num_nodes >= 256
        assert ds.feature_dim == 32
        assert ds.num_classes == 5

    def test_custom_does_not_pollute_registry(self):
        before = set(available_datasets())
        make_custom_dataset(300, 6, 16, 4, seed=0, name="ephemeral")
        after = set(available_datasets())
        assert before == after
