"""Failure-injection and edge-case tests across module boundaries.

These tests exercise the unhappy paths a downstream user will hit first:
degenerate graphs, partitions with no halo nodes, trainers with no training
seeds, buffers larger than the halo set, and corrupted inputs to the
distributed substrate.
"""

import numpy as np
import pytest

from repro.core.config import PrefetchConfig
from repro.core.prefetcher import Prefetcher
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.cost_model import CostModel
from repro.distributed.kvstore import KVStore
from repro.distributed.rpc import RPCChannel
from repro.distributed.server import PartitionServer
from repro.graph.csr import CSRGraph
from repro.graph.datasets import GraphDataset, make_custom_dataset
from repro.graph.generators import class_informative_features, train_val_test_split
from repro.graph.halo import build_partitions
from repro.graph.partition import PartitionResult, metis_partition
from repro.sampling.neighbor_sampler import NeighborSampler
from repro.training.cluster_engine import ClusterEngine
from repro.training.config import TrainConfig


def _dataset_from_graph(graph, num_classes=4, feature_dim=8, seed=0) -> GraphDataset:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=graph.num_nodes)
    features = class_informative_features(labels, feature_dim, seed=seed)
    train, val, test = train_val_test_split(graph.num_nodes, seed=seed)
    return GraphDataset(
        name="synthetic",
        graph=graph,
        features=features,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        num_classes=num_classes,
    )


class TestDegenerateGraphs:
    def test_sampler_on_graph_with_isolated_nodes(self):
        # Nodes 4..9 have no edges at all; sampling from them must still work.
        graph = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], num_nodes=10, symmetrize=True)
        sampler = NeighborSampler(graph, [3, 3], seed=0)
        mb = sampler.sample(np.array([5, 6, 7]))
        assert mb.num_seeds == 3
        assert all(block.num_edges == 0 for block in mb.blocks)

    def test_training_on_disconnected_graph(self):
        # Two components; METIS should split them and training must still run.
        src = np.concatenate([np.arange(0, 49), np.arange(50, 99)])
        dst = np.concatenate([np.arange(1, 50), np.arange(51, 100)])
        graph = CSRGraph.from_edges(src, dst, num_nodes=100, symmetrize=True)
        dataset = _dataset_from_graph(graph)
        cluster = SimCluster(
            dataset,
            ClusterConfig(num_machines=2, trainers_per_machine=1, batch_size=16, fanouts=(2, 2), seed=0),
        )
        engine = ClusterEngine(cluster, TrainConfig(epochs=1, hidden_dim=8, seed=0))
        report = engine.run("baseline").report
        assert report.num_minibatches > 0

    def test_star_graph_partitioning(self):
        # A star graph defeats heavy-edge matching; the partitioner must still terminate.
        center = np.zeros(60, dtype=np.int64)
        leaves = np.arange(1, 61, dtype=np.int64)
        graph = CSRGraph.from_edges(center, leaves, num_nodes=61, symmetrize=True)
        result = metis_partition(graph, 2, seed=0)
        assert len(result.parts) == 61
        assert result.sizes().min() > 0


class TestNoHaloAndSmallBufferEdgeCases:
    def _two_clique_dataset(self):
        """Two cliques with no edges between them: partitions have zero halo nodes."""
        blocks = []
        for offset in (0, 20):
            nodes = np.arange(offset, offset + 20)
            src, dst = np.meshgrid(nodes, nodes)
            mask = src != dst
            blocks.append((src[mask], dst[mask]))
        src = np.concatenate([b[0] for b in blocks])
        dst = np.concatenate([b[1] for b in blocks])
        graph = CSRGraph.from_edges(src, dst, num_nodes=40)
        return _dataset_from_graph(graph)

    def test_prefetcher_with_zero_halo_nodes(self):
        dataset = self._two_clique_dataset()
        parts = PartitionResult(parts=(np.arange(40) >= 20).astype(np.int64), num_parts=2)
        partitions = build_partitions(dataset.graph, parts)
        assert partitions[0].num_halo == 0
        servers = {p.part_id: PartitionServer(p, dataset.features).kvstore for p in partitions}
        rpc = RPCChannel(servers, local_part=0, cost_model=CostModel.cpu())
        prefetcher = Prefetcher(partitions[0], PrefetchConfig(), rpc, dataset.num_nodes)
        report = prefetcher.initialize()
        assert report.buffer_capacity == 0
        outcome = prefetcher.process_minibatch(np.array([], dtype=np.int64), step=1)
        assert outcome.num_hits == 0 and outcome.num_misses == 0

    def test_training_with_zero_halo_nodes(self):
        dataset = self._two_clique_dataset()
        parts = PartitionResult(parts=(np.arange(40) >= 20).astype(np.int64), num_parts=2)
        cluster = SimCluster(
            dataset,
            ClusterConfig(num_machines=2, trainers_per_machine=1, batch_size=8, fanouts=(3,), seed=0),
            partition_result=parts,
        )
        engine = ClusterEngine(cluster, TrainConfig(epochs=1, hidden_dim=8, num_layers=1, seed=0))
        baseline = engine.run("baseline").report
        prefetch = engine.run(
            "prefetch", prefetch_config=PrefetchConfig(halo_fraction=0.5)
        ).report
        # With no remote nodes there is nothing to win; both pipelines must
        # still complete and fetch zero remote nodes.
        assert baseline.remote_nodes_fetched() == 0
        assert prefetch.remote_nodes_fetched() == 0

    def test_buffer_fraction_of_one_holds_every_halo_node(self, small_dataset, small_partitions):
        from repro.distributed.server import PartitionServer

        partitions = small_partitions
        servers = {p.part_id: PartitionServer(p, small_dataset.features).kvstore for p in partitions}
        rpc = RPCChannel(servers, local_part=0, cost_model=CostModel.cpu())
        prefetcher = Prefetcher(
            partitions[0], PrefetchConfig(halo_fraction=1.0), rpc, small_dataset.num_nodes
        )
        prefetcher.initialize()
        # Every sampled halo node must now be a hit.
        outcome = prefetcher.process_minibatch(partitions[0].halo_global[:50], step=1)
        assert outcome.num_misses == 0
        assert outcome.hit_rate == 1.0


class TestTrainerEdgeCases:
    def test_more_trainers_than_train_nodes(self):
        dataset = make_custom_dataset(300, 8, 8, 4, seed=1, name="tiny-edge")
        # Restrict the training set to a handful of nodes so some trainers get none.
        dataset.train_mask[:] = False
        dataset.train_mask[:3] = True
        cluster = SimCluster(
            dataset,
            ClusterConfig(num_machines=2, trainers_per_machine=2, batch_size=4, fanouts=(2,), seed=0),
        )
        engine = ClusterEngine(cluster, TrainConfig(epochs=1, hidden_dim=8, num_layers=1, seed=0))
        report = engine.run("baseline").report
        # Only the trainers that own training nodes contribute minibatches.
        assert 0 < report.num_minibatches <= 4

    def test_single_machine_single_trainer(self, small_dataset):
        cluster = SimCluster(
            small_dataset,
            ClusterConfig(num_machines=1, trainers_per_machine=1, batch_size=64, fanouts=(3, 3), seed=0),
        )
        engine = ClusterEngine(cluster, TrainConfig(epochs=1, hidden_dim=8, seed=0))
        baseline = engine.run("baseline").report
        # A single partition has no halo nodes at all, so no RPC traffic.
        assert baseline.remote_nodes_fetched() == 0
        assert baseline.component_breakdown["allreduce"] == 0.0

    def test_prefetch_with_single_partition_is_noop_but_valid(self, small_dataset):
        cluster = SimCluster(
            small_dataset,
            ClusterConfig(num_machines=1, trainers_per_machine=2, batch_size=64, fanouts=(3, 3), seed=0),
        )
        engine = ClusterEngine(cluster, TrainConfig(epochs=1, hidden_dim=8, seed=0))
        report = engine.run(
            "prefetch", prefetch_config=PrefetchConfig(halo_fraction=0.5)
        ).report
        assert report.hit_rate == 0.0
        assert report.remote_nodes_fetched() == 0


class TestCorruptedInputs:
    def test_kvstore_rejects_nan_free_contract(self):
        ids = np.arange(4)
        feats = np.arange(8, dtype=np.float32).reshape(4, 2)
        store = KVStore(ids, feats)
        with pytest.raises(KeyError):
            store.pull(np.array([99]))

    def test_rpc_channel_rejects_owner_length_mismatch(self):
        ids = np.arange(4)
        feats = np.zeros((4, 2), dtype=np.float32)
        channel = RPCChannel({0: KVStore(ids, feats)}, local_part=0)
        with pytest.raises(ValueError):
            channel.remote_pull(np.array([1, 2]), np.array([1]))

    def test_cluster_rejects_gpu_typo(self, small_dataset):
        with pytest.raises(ValueError):
            ClusterConfig(backend="cuda")

    def test_engine_rejects_unknown_arch(self):
        with pytest.raises(ValueError):
            TrainConfig(arch="transformer")

    def test_prefetch_config_rejects_bad_fraction_then_recovers(self):
        with pytest.raises(ValueError):
            PrefetchConfig(halo_fraction=-0.1)
        config = PrefetchConfig(halo_fraction=0.2)
        assert config.buffer_capacity(100) == 20
