"""Graph substrate: CSR container, generators, datasets, partitioning, halos."""

from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    DATASET_SPECS,
    DatasetSpec,
    GraphDataset,
    available_datasets,
    load_dataset,
    make_custom_dataset,
)
from repro.graph.generators import (
    class_informative_features,
    planted_partition_graph,
    powerlaw_degree_sequence,
    rmat_edges,
    rmat_graph,
    train_val_test_split,
)
from repro.graph.halo import GraphPartition, build_partitions
from repro.graph.partition import (
    PartitionResult,
    balance,
    edge_cut,
    edge_cut_fraction,
    hash_partition,
    metis_partition,
    partition_graph,
    random_partition,
    skewed_partition,
)

__all__ = [
    "CSRGraph",
    "DATASET_SPECS",
    "DatasetSpec",
    "GraphDataset",
    "available_datasets",
    "load_dataset",
    "make_custom_dataset",
    "class_informative_features",
    "planted_partition_graph",
    "powerlaw_degree_sequence",
    "rmat_edges",
    "rmat_graph",
    "train_val_test_split",
    "GraphPartition",
    "build_partitions",
    "PartitionResult",
    "balance",
    "edge_cut",
    "edge_cut_fraction",
    "hash_partition",
    "metis_partition",
    "partition_graph",
    "random_partition",
    "skewed_partition",
]
