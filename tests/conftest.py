"""Shared fixtures for the test suite.

Fixtures build deliberately small datasets and clusters so the whole suite
runs in seconds while still exercising the full distributed data path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.cost_model import CostModel
from repro.core.prefetcher import Prefetcher
from repro.features import TieredCacheSource
from repro.graph.csr import CSRGraph
from repro.graph.datasets import GraphDataset, load_dataset
from repro.graph.generators import planted_partition_graph
from repro.graph.halo import build_partitions
from repro.graph.partition import metis_partition
from repro.training.backends import ClusterRun
from repro.training.config import TrainConfig

# Example budgets of the property tests that do not pin their own: "default"
# is tier-1's, "deep" (`pytest --hypothesis-profile deep`) is the CI drift job's.
settings.register_profile("default", max_examples=12)
settings.register_profile("deep", max_examples=250)
settings.load_profile("default")


@pytest.fixture(scope="session")
def tiny_graph() -> CSRGraph:
    """A small deterministic graph used by structural unit tests."""
    src = np.array([0, 0, 1, 1, 2, 3, 3, 4, 5, 6, 6, 7], dtype=np.int64)
    dst = np.array([1, 2, 2, 3, 3, 4, 5, 5, 6, 7, 0, 1], dtype=np.int64)
    return CSRGraph.from_edges(src, dst, num_nodes=8, symmetrize=True, remove_self_loops=True)


@pytest.fixture(scope="session")
def small_community_graph():
    """A ~600-node planted-partition graph with labels (community ids)."""
    graph, labels = planted_partition_graph(
        600, num_communities=6, avg_degree=12, intra_fraction=0.8, seed=7
    )
    return graph, labels


@pytest.fixture(scope="session")
def small_dataset() -> GraphDataset:
    """A small arxiv-analog dataset (about 1k nodes) for integration tests."""
    return load_dataset("arxiv", scale=0.25, seed=3)


@pytest.fixture(scope="session")
def products_dataset() -> GraphDataset:
    """A scaled-down products analog (denser, more halo traffic)."""
    return load_dataset("products", scale=0.1, seed=5)


@pytest.fixture(scope="session")
def small_cluster(small_dataset) -> SimCluster:
    """2 machines x 2 trainers cluster over the small dataset (CPU backend)."""
    config = ClusterConfig(
        num_machines=2,
        trainers_per_machine=2,
        batch_size=128,
        fanouts=(5, 10),
        backend="cpu",
        seed=11,
    )
    return SimCluster(small_dataset, config)


@pytest.fixture()
def make_halo_source(small_cluster):
    """Factory ``make(kind, trainer, ...)``: one trainer's halo source, built directly.

    ``kind`` is ``"prefetcher"`` (Algorithms 1-2) or ``"tiered-cache"`` (the tier
    stack; the static cache under the default ``CacheConfig``) — what the
    ``prefetch`` and ``tiered-cache``/``static-cache`` builders construct.
    """

    def make(kind, trainer, prefetch_config=None, cache_config=None, shared_tier=None):
        config = prefetch_config or PrefetchConfig(halo_fraction=0.25, delta=8)
        if kind == "prefetcher":
            assert cache_config is None and shared_tier is None, "the buffer reads no cache"
            return Prefetcher(
                trainer.partition,
                config,
                trainer.rpc,
                num_global_nodes=small_cluster.dataset.num_nodes,
                seed=0,
            )
        assert kind == "tiered-cache", kind
        return TieredCacheSource(
            trainer.rpc,
            trainer.partition,
            config.buffer_capacity(trainer.partition.num_halo),
            cache_config=cache_config,
            shared_tier=shared_tier,
        )

    return make


@pytest.fixture(scope="session")
def small_partitions(small_dataset):
    """Partitions (METIS, 2 parts) of the small dataset."""
    result = metis_partition(small_dataset.graph, 2, seed=13)
    return build_partitions(small_dataset.graph, result)


@pytest.fixture()
def quick_train_config() -> TrainConfig:
    return TrainConfig(epochs=2, hidden_dim=32, learning_rate=5e-3, seed=0)


@pytest.fixture()
def trained_models(monkeypatch):
    """The model of every cluster run finished during the test, in run order.

    The engines return a report and keep no model, so a test that needs the
    trained parameters takes them from ``ClusterRun.finish``.
    """
    models = []
    finish = ClusterRun.finish

    def keep_model(run, *args, **kwargs):
        models.append(run.setup.model)
        return finish(run, *args, **kwargs)

    monkeypatch.setattr(ClusterRun, "finish", keep_model)
    return models


@pytest.fixture()
def quick_prefetch_config() -> PrefetchConfig:
    return PrefetchConfig(halo_fraction=0.25, gamma=0.995, delta=8)


@pytest.fixture(scope="session")
def cpu_cost_model() -> CostModel:
    return CostModel.cpu()


@pytest.fixture(scope="session")
def gpu_cost_model() -> CostModel:
    return CostModel.gpu()
