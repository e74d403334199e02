"""DistDGL-like distributed substrate: KVStore, RPC, servers, cluster, DDP."""

from repro.distributed.clock import SimClock, mean_breakdown, merge_breakdowns
from repro.distributed.cluster import ClusterConfig, SimCluster, TrainerContext
from repro.distributed.cost_model import BYTES_PER_FEATURE, CostModel
from repro.distributed.ddp import allreduce_gradients
from repro.distributed.kvstore import KVStore, KVStoreStats
from repro.distributed.rpc import RPCChannel, RPCStats, aggregate_rpc_stats
from repro.distributed.server import PartitionServer

__all__ = [
    "SimClock",
    "mean_breakdown",
    "merge_breakdowns",
    "ClusterConfig",
    "SimCluster",
    "TrainerContext",
    "BYTES_PER_FEATURE",
    "CostModel",
    "allreduce_gradients",
    "KVStore",
    "KVStoreStats",
    "RPCChannel",
    "RPCStats",
    "aggregate_rpc_stats",
    "PartitionServer",
]
