"""DistDGL-like distributed substrate: KVStore, RPC, cluster, DDP."""

from repro.distributed.clock import SimClock
from repro.distributed.cluster import ClusterConfig, SimCluster, TrainerContext
from repro.distributed.cost_model import BYTES_PER_FEATURE, CostModel
from repro.distributed.ddp import allreduce_gradients
from repro.distributed.kvstore import KVStore
from repro.distributed.rpc import RPCChannel, RPCStats, aggregate_rpc_stats

__all__ = [
    "SimClock",
    "ClusterConfig",
    "SimCluster",
    "TrainerContext",
    "BYTES_PER_FEATURE",
    "CostModel",
    "allreduce_gradients",
    "KVStore",
    "RPCChannel",
    "RPCStats",
    "aggregate_rpc_stats",
]
