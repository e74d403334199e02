"""Simulated cluster: machines, partition KVStores, and trainer contexts.

The paper's deployment is "one partition per machine, four trainers per
machine".  :class:`SimCluster` reproduces that topology in-process:

* the input graph is partitioned into ``num_machines`` partitions (METIS-like
  by default, matching DGL's partition API);
* each machine serves its partition's features from a
  :class:`~repro.distributed.kvstore.KVStore` (DistDGL's server process);
  trainers find a halo row's owner in their
  :class:`~repro.graph.halo.GraphPartition`'s halo table;
* each machine spawns ``trainers_per_machine`` :class:`TrainerContext` objects
  — each with its own share of the training seeds, its own data loader, its
  own RPC channel, and its own simulated clock.

The cluster object is consumed by both the baseline and the MassiveGNN
training loops, so the two pipelines see identical partitions, seeds, and
samplers (modulo sampler RNG streams, which are per-trainer in both cases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.distributed.clock import SimClock
from repro.distributed.cost_model import CongestedCostModel, CostModel
from repro.distributed.kvstore import KVStore
from repro.distributed.rpc import (
    RPC_CHANNELS,
    CoalescingWindow,
    RPCChannel,
    build_rpc_channel,
)
from repro.graph.datasets import GraphDataset
from repro.graph.halo import GraphPartition, build_partitions
from repro.graph.partition import PartitionResult, partition_graph
from repro.sampling.dataloader import DistDataLoader
from repro.sampling.seeds import SeedPartitioner
from repro.utils.rng import derive_seed
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.cache.config import CacheConfig
    from repro.cache.tier import CacheTier
    from repro.events.schedule import CongestionSpec


@dataclass
class ClusterConfig:
    """Topology and loader configuration for a simulated cluster.

    ``compute_multipliers`` makes the cluster heterogeneous: entry *m* is the
    relative compute slowdown of machine *m* (``1.0`` nominal, ``2.0`` means
    that machine's trainers compute twice as slowly — a straggler).  ``None``
    means a homogeneous cluster.

    ``rpc`` selects the RPC channel by
    :data:`repro.distributed.rpc.RPC_CHANNELS` key (``"per-call"`` default,
    ``"batched"`` for per-machine owner coalescing).

    ``congestion`` (a :class:`~repro.events.schedule.CongestionSpec`) makes
    the RPC fabric time-varying: every trainer's channel charges remote pulls
    through a :class:`~repro.distributed.cost_model.CongestedCostModel` that
    reads the trainer's simulated clock, so latency bursts hit whichever
    steps overlap them.  ``None`` (the default) keeps the static cost model.
    """

    num_machines: int = 2
    trainers_per_machine: int = 4
    batch_size: int = 2000
    fanouts: Sequence[int] = (10, 25)
    partition_method: str = "metis"
    backend: str = "cpu"
    seed: int = 0
    compute_multipliers: Optional[Sequence[float]] = None
    rpc: str = "per-call"
    # Hot-set drift (cache-stress scenarios): each epoch only a rotating
    # window of ``seed_active_fraction`` of a trainer's seeds is active,
    # advanced by ``seed_rotation`` of the seed set per epoch.  The defaults
    # (1.0 / 0.0) are the stationary full-set iteration every pre-existing
    # workload uses — bit-identical seed batches and RNG stream.
    seed_active_fraction: float = 1.0
    seed_rotation: float = 0.0
    # Time-varying RPC congestion (see repro.events.schedule.CongestionSpec);
    # None keeps the static preset cost model on every channel.
    congestion: Optional["CongestionSpec"] = None

    def __post_init__(self) -> None:
        check_positive(self.num_machines, "num_machines")
        check_positive(self.trainers_per_machine, "trainers_per_machine")
        check_positive(self.batch_size, "batch_size")
        if not 0.0 < self.seed_active_fraction <= 1.0:
            raise ValueError(
                f"seed_active_fraction must be in (0, 1], got {self.seed_active_fraction!r}"
            )
        if not 0.0 <= self.seed_rotation <= 1.0:
            raise ValueError(f"seed_rotation must be in [0, 1], got {self.seed_rotation!r}")
        if self.backend not in ("cpu", "gpu"):
            raise ValueError(f"backend must be 'cpu' or 'gpu', got {self.backend!r}")
        # Resolve the registry key eagerly so a typo fails at config time with
        # the registry's list-of-valid-names error, not mid-run.
        self.rpc = RPC_CHANNELS.resolve(self.rpc)
        if self.compute_multipliers is not None:
            multipliers = tuple(float(m) for m in self.compute_multipliers)
            if len(multipliers) != self.num_machines:
                raise ValueError(
                    f"compute_multipliers needs one entry per machine "
                    f"({self.num_machines}), got {len(multipliers)}"
                )
            for m in multipliers:
                check_positive(m, "compute_multipliers entry")
            self.compute_multipliers = multipliers

    @property
    def world_size(self) -> int:
        """Total number of trainer processes."""
        return self.num_machines * self.trainers_per_machine

    def compute_multiplier(self, machine: int) -> float:
        """Relative compute slowdown of *machine* (1.0 when homogeneous)."""
        if self.compute_multipliers is None:
            return 1.0
        return float(self.compute_multipliers[machine])


@dataclass
class TrainerContext:
    """Everything one simulated trainer process owns."""

    global_rank: int
    machine: int
    local_rank: int
    partition: GraphPartition
    dataloader: DistDataLoader
    rpc: RPCChannel
    clock: SimClock
    seeds_local: np.ndarray
    labels: np.ndarray

    @property
    def num_batches_per_epoch(self) -> int:
        return self.dataloader.num_batches_per_epoch


class SimCluster:
    """In-process simulation of a DistDGL deployment."""

    def __init__(
        self,
        dataset: GraphDataset,
        config: ClusterConfig,
        cost_model: Optional[CostModel] = None,
        partition_result: Optional[PartitionResult] = None,
    ):
        self.dataset = dataset
        self.config = config
        self.cost_model = cost_model or CostModel.preset(config.backend)
        self.cost_model.validate()

        if partition_result is None:
            partition_result = partition_graph(
                dataset.graph,
                config.num_machines,
                method=config.partition_method,
                seed=derive_seed(config.seed, 101),
            )
        if partition_result.num_parts != config.num_machines:
            raise ValueError(
                "partition_result has a different number of parts than num_machines"
            )
        self.partition_result = partition_result
        self.partitions: List[GraphPartition] = build_partitions(
            dataset.graph, partition_result
        )
        self.servers: Dict[int, KVStore] = {
            p.part_id: KVStore(p.owned_global, dataset.features[p.owned_global], p.part_id)
            for p in self.partitions
        }
        # The machine hosting each partition: itself, until an elastic drain
        # adopts the partition onto a surviving machine (migrate_partition).
        self.partition_hosts: List[int] = [p.part_id for p in self.partitions]

        # One coalescing window per machine when the batched channel is
        # selected: the machine's trainers share it, which is what lets their
        # same-step pulls merge (DistDGL's per-machine batched KV client).
        self._rpc_windows: List[Optional[CoalescingWindow]] = [
            CoalescingWindow() if config.rpc == "batched" else None
            for _ in range(config.num_machines)
        ]
        # Machine-shared cache tiers, created lazily per run when a two-tier
        # CacheConfig is in play (see shared_cache_tier); reset() drops them
        # so consecutive runs start cold like everything else.
        self._shared_cache_tiers: Dict[int, "CacheTier"] = {}
        self.trainers: List[TrainerContext] = self._spawn_trainers()
        # Pristine seed assignment, kept so reset() can undo elastic
        # re-splits (identity comparison keeps the non-elastic path free).
        self._original_seeds: List[np.ndarray] = [
            t.seeds_local for t in self.trainers
        ]

    # ------------------------------------------------------------------ #
    def _spawn_trainers(self) -> List[TrainerContext]:
        config = self.config
        trainers: List[TrainerContext] = []
        train_mask = self.dataset.train_mask
        for machine in range(config.num_machines):
            partition = self.partitions[machine]
            owned = partition.owned_global
            train_local = np.nonzero(train_mask[owned])[0].astype(np.int64)
            seed_partitioner = SeedPartitioner(
                train_local,
                config.trainers_per_machine,
                seed=derive_seed(config.seed, 211, machine),
            )
            for local_rank in range(config.trainers_per_machine):
                global_rank = machine * config.trainers_per_machine + local_rank
                seeds_local = seed_partitioner.trainer_seeds(local_rank)
                dataloader = DistDataLoader(
                    partition=partition,
                    seeds_local=seeds_local,
                    fanouts=config.fanouts,
                    batch_size=config.batch_size,
                    labels=self.dataset.labels,
                    seed=derive_seed(config.seed, 307, global_rank),
                    seed_active_fraction=config.seed_active_fraction,
                    seed_rotation=config.seed_rotation,
                )
                # The clock exists before the channel so a congested fabric
                # can read the trainer's simulated time at fetch time.
                clock = SimClock()
                channel_cost_model = self.cost_model
                if config.congestion is not None:
                    channel_cost_model = CongestedCostModel(
                        self.cost_model, config.congestion, clock
                    )
                rpc = build_rpc_channel(
                    config.rpc,
                    self.servers,
                    local_part=machine,
                    cost_model=channel_cost_model,
                    window=self._rpc_windows[machine],
                )
                trainers.append(
                    TrainerContext(
                        global_rank=global_rank,
                        machine=machine,
                        local_rank=local_rank,
                        partition=partition,
                        dataloader=dataloader,
                        rpc=rpc,
                        clock=clock,
                        seeds_local=seeds_local,
                        labels=self.dataset.labels,
                    )
                )
        return trainers

    # ------------------------------------------------------------------ #
    @property
    def world_size(self) -> int:
        return self.config.world_size

    def shared_cache_tier(
        self, machine: int, cache_config: Optional["CacheConfig"]
    ) -> Optional["CacheTier"]:
        """The machine's shared :class:`~repro.cache.tier.CacheTier` (lazily built).

        ``None`` unless *cache_config* has two tiers.  Every trainer on
        *machine* composes the same instance behind its hot tier; each trainer
        funds its own capacity contribution when its source is built, so the
        tier's capacity is the machine's total.  The tier starts empty at
        capacity 0 and is dropped by :meth:`reset`.
        """
        if cache_config is None or cache_config.tiers < 2:
            return None
        tier = self._shared_cache_tiers.get(machine)
        if tier is None:
            tier = cache_config.build_tier(
                "shared", 0, self.dataset.feature_dim, self.partitions[machine]
            )
            self._shared_cache_tiers[machine] = tier
        return tier

    # ------------------------------------------------------------------ #
    # Elastic membership: seed re-splits and partition adoption
    # ------------------------------------------------------------------ #
    def rebalance_seeds(
        self, machine: int, active_local_ranks: Sequence[int], salt: int
    ) -> Dict[int, int]:
        """Re-split *machine*'s training seeds across its active trainers.

        Re-runs the :class:`SeedPartitioner` over the machine's training
        nodes with only ``active_local_ranks`` as targets (salted so each
        rebalance draws a fresh deterministic split), mutates every affected
        trainer's loader in place, and returns ``{global_rank: seeds_gained}``
        — the number of seed rows newly assigned to each active trainer,
        which the engine charges as migration traffic.  Inactive trainers on
        the machine are stripped to an empty assignment.
        """
        config = self.config
        active = sorted(int(r) for r in active_local_ranks)
        if not active:
            raise ValueError(f"machine {machine} has no active trainers to rebalance")
        partition = self.partitions[machine]
        train_local = np.nonzero(self.dataset.train_mask[partition.owned_global])[0]
        train_local = train_local.astype(np.int64)
        seed_partitioner = SeedPartitioner(
            train_local,
            len(active),
            seed=derive_seed(config.seed, 211, machine, int(salt)),
        )
        gained: Dict[int, int] = {}
        empty = np.zeros(0, dtype=np.int64)
        for local_rank in range(config.trainers_per_machine):
            global_rank = machine * config.trainers_per_machine + local_rank
            trainer = self.trainers[global_rank]
            if local_rank in active:
                new_seeds = seed_partitioner.trainer_seeds(active.index(local_rank))
                gained[global_rank] = int(
                    np.setdiff1d(new_seeds, trainer.seeds_local).size
                )
                trainer.seeds_local = new_seeds
                trainer.dataloader.reassign_seeds(new_seeds)
            elif len(trainer.seeds_local):
                trainer.seeds_local = empty
                trainer.dataloader.reassign_seeds(empty)
        return gained

    def migrate_partition(self, part_id: int, new_host: int) -> int:
        """Adopt partition *part_id* onto *new_host*, returning bytes moved.

        Re-points ``partition_hosts[part_id]`` and returns the KVStore
        payload size; the partition's shared cache tier, if one exists, is
        invalidated (its rows are not shipped).  The caller charges the
        returned bytes through the cost model; a no-op move (already hosted
        there) returns 0.
        """
        new_host = int(new_host)
        if new_host < 0:
            raise ValueError(f"host machine must be >= 0, got {new_host}")
        if self.partition_hosts[part_id] == new_host:
            return 0
        tier = self._shared_cache_tiers.get(part_id)
        if tier is not None:
            tier.invalidate()
        self.partition_hosts[part_id] = new_host
        return int(self.servers[part_id].nbytes())

    def cost_model_for_machine(self, machine: int) -> CostModel:
        """Per-machine cost model honoring the config's compute multipliers.

        A slowdown of *s* divides the machine's compute throughput by *s*;
        with the default multiplier of 1.0 this is bit-identical to the shared
        cluster cost model (the differential tests rely on that).
        """
        slowdown = self.config.compute_multiplier(machine)
        return self.cost_model.scaled(compute_flops_per_s=1.0 / slowdown)

    def validate_seed_coverage(self) -> None:
        """Check every training seed is assigned to exactly one trainer.

        The two-level partitioning (graph partitions across machines, then
        :class:`SeedPartitioner` across a machine's trainers) must cover the
        dataset's training nodes exactly once — the invariant behind the
        paper's synchronous-DDP epoch semantics.  Raises ``ValueError`` on
        any gap or overlap.
        """
        assigned = []
        for trainer in self.trainers:
            if len(trainer.seeds_local):
                assigned.append(trainer.partition.owned_global[trainer.seeds_local])
        assigned_global = np.sort(
            np.concatenate(assigned) if assigned else np.zeros(0, dtype=np.int64)
        )
        if np.any(assigned_global[1:] == assigned_global[:-1]):
            raise ValueError("seed partitioning assigned some training node twice")
        expected = np.nonzero(self.dataset.train_mask)[0].astype(np.int64)
        if not np.array_equal(assigned_global, expected):
            raise ValueError(
                "seed partitioning does not cover the training set exactly "
                f"({len(assigned_global)} assigned vs {len(expected)} training nodes)"
            )

    def reset(self) -> None:
        """Reset clocks, RPC counters and loader steps (and undo any elastic
        seed re-splits / partition adoptions)."""
        for trainer, original in zip(self.trainers, self._original_seeds):
            trainer.clock.reset()
            trainer.rpc.reset_stats()
            trainer.dataloader.reset()
            if trainer.seeds_local is not original:
                trainer.seeds_local = original
                trainer.dataloader.reassign_seeds(original)
        self.partition_hosts = [p.part_id for p in self.partitions]
        for window in self._rpc_windows:
            if window is not None:
                window.deactivate()
        self._shared_cache_tiers.clear()

    def average_remote_nodes_per_trainer(self) -> float:
        """Table III's 'average number of remote nodes per trainer' statistic.

        Every trainer on a machine shares the machine's partition, so this is
        the mean halo count over partitions (each trainer observes that many
        candidate remote nodes).
        """
        halos = [p.num_halo for p in self.partitions]
        return float(np.mean(halos)) if halos else 0.0

    def minibatches_per_trainer(self) -> int:
        """Minibatches per trainer per epoch (constant batch size, Table III)."""
        counts = [t.num_batches_per_epoch for t in self.trainers]
        return int(np.ceil(np.mean(counts))) if counts else 0

    def summary(self) -> Dict[str, float]:
        return {
            "num_machines": float(self.config.num_machines),
            "world_size": float(self.world_size),
            "edge_cut_fraction": self.partition_result.stats.get("edge_cut_fraction", 0.0),
            "avg_remote_nodes_per_trainer": self.average_remote_nodes_per_trainer(),
            "minibatches_per_trainer": float(self.minibatches_per_trainer()),
        }
