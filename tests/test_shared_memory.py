"""Tests for the zero-copy shared-memory exports behind the pool backend.

``CSRGraph.to_shared``/``from_shared`` and :mod:`repro.features.shared`
export graph, features, and KVStore payloads as ``.npy`` files that worker
processes re-open as read-only memmaps — same values, same sampler RNG
streams, writes refused.  These properties are what make the process-pool
backend's bit-identity claim possible, so they are pinned directly here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.kvstore import KVStore
from repro.features.shared import export_shared_dataset, load_shared_dataset
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.sampling.neighbor_sampler import NeighborSampler


@pytest.fixture(scope="module")
def audit_dataset():
    return load_dataset("arxiv", scale=0.1, seed=0)


class TestSharedCSR:
    def test_round_trip_equality(self, tiny_graph, tmp_path):
        handle = tiny_graph.to_shared(str(tmp_path))
        clone = CSRGraph.from_shared(handle)
        assert clone.num_nodes == tiny_graph.num_nodes
        assert clone.num_edges == tiny_graph.num_edges
        np.testing.assert_array_equal(clone.indptr, tiny_graph.indptr)
        np.testing.assert_array_equal(clone.indices, tiny_graph.indices)

    def test_shared_arrays_are_readonly(self, tiny_graph, tmp_path):
        # __post_init__'s asarray returns a zero-copy base-class view of the
        # memmap; the read-only flag survives the view, so writes still raise.
        clone = CSRGraph.from_shared(tiny_graph.to_shared(str(tmp_path)))
        assert not clone.indices.flags.writeable
        assert not clone.indptr.flags.writeable
        with pytest.raises(ValueError):
            clone.indices[0] = 99
        with pytest.raises(ValueError):
            clone.indptr[0] = 99

    def test_queries_match(self, tiny_graph, tmp_path):
        clone = CSRGraph.from_shared(tiny_graph.to_shared(str(tmp_path)))
        np.testing.assert_array_equal(clone.out_degree(), tiny_graph.out_degree())
        for node in range(tiny_graph.num_nodes):
            np.testing.assert_array_equal(
                clone.neighbors(node), tiny_graph.neighbors(node)
            )

    def test_sampler_bit_identical_over_memmap(self, tiny_graph, tmp_path):
        """Same seeds + same RNG stream over in-memory and memmapped CSR."""
        clone = CSRGraph.from_shared(tiny_graph.to_shared(str(tmp_path)))
        seeds = np.array([0, 3, 5], dtype=np.int64)
        a = NeighborSampler(tiny_graph, [2, 3], seed=11).sample(seeds)
        b = NeighborSampler(clone, [2, 3], seed=11).sample(seeds)
        np.testing.assert_array_equal(a.input_global, b.input_global)
        assert len(a.blocks) == len(b.blocks)
        for x, y in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(x.src_global, y.src_global)
            np.testing.assert_array_equal(x.edge_src, y.edge_src)
            np.testing.assert_array_equal(x.edge_dst, y.edge_dst)


class TestSharedKVStore:
    def test_from_shared_aliases_layout(self, tmp_path):
        rng = np.random.default_rng(0)
        ids = np.array([3, 9, 1, 7], dtype=np.int64)
        rows = rng.standard_normal((4, 5)).astype(np.float32)
        store = KVStore(ids, rows, part_id=2)
        sorted_ids, sorted_rows = store.shared_arrays()
        np.save(tmp_path / "ids.npy", sorted_ids)
        np.save(tmp_path / "rows.npy", sorted_rows)
        clone = KVStore.from_shared(
            np.load(tmp_path / "ids.npy", mmap_mode="r"),
            np.load(tmp_path / "rows.npy", mmap_mode="r"),
            part_id=2,
        )
        np.testing.assert_array_equal(clone.pull(ids), store.pull(ids))
        assert clone.part_id == 2

    def test_memmap_store_refuses_push(self, tmp_path):
        ids = np.arange(4, dtype=np.int64)
        rows = np.ones((4, 3), dtype=np.float32)
        np.save(tmp_path / "ids.npy", ids)
        np.save(tmp_path / "rows.npy", rows)
        clone = KVStore.from_shared(
            np.load(tmp_path / "ids.npy", mmap_mode="r"),
            np.load(tmp_path / "rows.npy", mmap_mode="r"),
        )
        with pytest.raises(ValueError):
            clone.push(np.array([1]), np.zeros((1, 3), dtype=np.float32))

    def test_from_shared_rejects_unsorted_ids(self):
        with pytest.raises(ValueError):
            KVStore.from_shared(
                np.array([3, 1, 2], dtype=np.int64),
                np.zeros((3, 2), dtype=np.float32),
            )


class TestSharedDataset:
    def test_export_load_round_trip(self, audit_dataset, tmp_path):
        config = ClusterConfig(num_machines=2, trainers_per_machine=2,
                               batch_size=64, fanouts=(5, 10), seed=7)
        cluster = SimCluster(audit_dataset, config)
        payloads = {pid: s.shared_arrays() for pid, s in cluster.servers.items()}
        handle = export_shared_dataset(
            audit_dataset, cluster.partition_result, payloads, str(tmp_path)
        )
        dataset, partition, server_rows = load_shared_dataset(handle)
        np.testing.assert_array_equal(dataset.features, audit_dataset.features)
        np.testing.assert_array_equal(dataset.labels, audit_dataset.labels)
        np.testing.assert_array_equal(dataset.train_mask, audit_dataset.train_mask)
        np.testing.assert_array_equal(
            partition.parts, cluster.partition_result.parts
        )
        assert partition.method == cluster.partition_result.method
        assert sorted(server_rows) == sorted(payloads)
        for pid, (ids, rows) in payloads.items():
            np.testing.assert_array_equal(server_rows[pid][0], ids)
            np.testing.assert_array_equal(server_rows[pid][1], rows)

    def test_loaded_arrays_are_readonly(self, audit_dataset, tmp_path):
        config = ClusterConfig(num_machines=2, trainers_per_machine=1,
                               batch_size=64, fanouts=(5,), seed=7)
        cluster = SimCluster(audit_dataset, config)
        payloads = {pid: s.shared_arrays() for pid, s in cluster.servers.items()}
        handle = export_shared_dataset(
            audit_dataset, cluster.partition_result, payloads, str(tmp_path)
        )
        dataset, _, _ = load_shared_dataset(handle)
        with pytest.raises(ValueError):
            dataset.features[0, 0] = 1.0

    def test_shared_cluster_matches_original_stores(self, audit_dataset, tmp_path):
        """A SimCluster rebuilt over the export serves identical feature rows."""
        config = ClusterConfig(num_machines=2, trainers_per_machine=2,
                               batch_size=64, fanouts=(5, 10), seed=7)
        cluster = SimCluster(audit_dataset, config)
        payloads = {pid: s.shared_arrays() for pid, s in cluster.servers.items()}
        handle = export_shared_dataset(
            audit_dataset, cluster.partition_result, payloads, str(tmp_path)
        )
        dataset, partition, server_rows = load_shared_dataset(handle)
        rebuilt = SimCluster(
            dataset, config, cost_model=cluster.cost_model,
            partition_result=partition, server_rows=server_rows,
        )
        for pid, store in cluster.servers.items():
            ids, _ = store.shared_arrays()
            probe = ids[:: max(1, len(ids) // 16)]
            np.testing.assert_array_equal(
                rebuilt.servers[pid].pull(probe), store.pull(probe)
            )
