"""Analytical cost model for the simulated cluster.

The paper's evaluation runs on NERSC Perlmutter (AMD EPYC 7763 CPU nodes and
A100 GPU nodes over Slingshot 11).  This environment is a single machine, so
execution *time* is simulated: every component of a training step — sampling,
local feature copy, remote RPC pulls, scoreboard maintenance, buffer lookup,
and the DDP forward/backward/update — is charged according to a
:class:`CostModel` whose constants are loosely calibrated to the hardware the
paper reports.

The absolute values do not matter for the reproduction; what matters is the
*relationships* the paper's analysis (Section IV-C) hinges on:

* GPU compute is ~20x faster than CPU compute, so ``t_DDP`` shrinks on the GPU
  backend and perfect overlap becomes harder (Fig. 9, Fig. 6 e–h);
* remote feature pulls pay a per-request latency plus a bandwidth term, so
  shaving remote nodes off the request reduces ``t_RPC`` roughly linearly
  (Fig. 11);
* local copies are an order of magnitude faster than network pulls, so hits in
  the prefetch buffer effectively remove their cost from the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.utils.validation import check_positive

BYTES_PER_FEATURE = 4  # float32


@dataclass(frozen=True)
class CostModel:
    """Per-component time constants (seconds, bytes/second, FLOP/s)."""

    backend: str = "cpu"
    # Network (RPC) path: per-request latency + payload over bandwidth.  The
    # effective per-node bandwidth is deliberately modest — DistDGL's RPC path
    # serializes feature tensors through Python, so the achievable goodput is
    # far below line rate.
    rpc_latency_s: float = 5.0e-4
    network_bandwidth_Bps: float = 1.0e9
    # Local memory copy from the co-located KVStore.
    copy_bandwidth_Bps: float = 2.0e10
    # Sampling cost per traversed/sampled edge.
    sample_cost_per_edge_s: float = 5.0e-8
    # Prefetch buffer membership lookup per candidate node.
    lookup_cost_per_node_s: float = 1.5e-8
    # Scoreboard (S_E decay + S_A update) per touched node.
    scoring_cost_per_node_s: float = 2.0e-8
    # Eviction round: per-buffer-slot assessment plus replacement bookkeeping.
    eviction_cost_per_node_s: float = 4.0e-8
    # Model compute (forward+backward+update) throughput.
    compute_flops_per_s: float = 2.5e10
    # Gradient allreduce: latency + 2*(N-1)/N * bytes / bandwidth (ring).
    allreduce_latency_s: float = 1.0e-4
    allreduce_bandwidth_Bps: float = 5.0e9

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #
    @classmethod
    def cpu(cls) -> "CostModel":
        """CPU training preset (PyTorch Gloo-style): slow compute, so DDP time
        dominates and minibatch preparation overlaps perfectly."""
        return cls(backend="cpu")

    @classmethod
    def gpu(cls) -> "CostModel":
        """GPU training preset (A100-style): ~5x faster effective minibatch
        compute (kernel-launch overheads keep small sampled minibatches far
        from peak FLOPs) and a faster allreduce fabric (NCCL).  The smaller
        DDP window shrinks the room available for overlapping minibatch
        preparation, which is why the paper's GPU gains trail its CPU gains."""
        return cls(
            backend="gpu",
            compute_flops_per_s=1.2e11,
            allreduce_latency_s=3.0e-5,
            allreduce_bandwidth_Bps=5.0e10,
        )

    @classmethod
    def preset(cls, backend: str) -> "CostModel":
        if backend == "cpu":
            return cls.cpu()
        if backend == "gpu":
            return cls.gpu()
        raise ValueError(f"unknown backend {backend!r}; expected 'cpu' or 'gpu'")

    def scaled(self, **multipliers: float) -> "CostModel":
        """Return a copy with selected fields multiplied (for sensitivity studies)."""
        updates: Dict[str, float] = {}
        for name, factor in multipliers.items():
            if not hasattr(self, name):
                raise AttributeError(f"CostModel has no field {name!r}")
            updates[name] = getattr(self, name) * factor
        return replace(self, **updates)

    # ------------------------------------------------------------------ #
    # Component times
    # ------------------------------------------------------------------ #
    def time_sampling(self, num_edges: int) -> float:
        """Neighbor sampling time for a minibatch with *num_edges* sampled edges."""
        return max(0, num_edges) * self.sample_cost_per_edge_s

    def _link_factors(self) -> Tuple[float, float]:
        """``(latency multiplier, bandwidth divisor)`` of the RPC link: an idle link."""
        return 1.0, 1.0

    def _wire_time(self, num_requests: int, payload_bytes: int) -> float:
        """Per-request latency plus payload over bandwidth, on the link as it is now.

        The one place the RPC cost is written: multiplying by an idle link's
        1.0 factors is exact, so uncongested times are the plain formula.
        """
        latency_mult, bandwidth_div = self._link_factors()
        return (
            num_requests * self.rpc_latency_s * latency_mult
            + payload_bytes * bandwidth_div / self.network_bandwidth_Bps
        )

    def time_rpc(self, num_nodes: int, feature_dim: int, num_requests: int = 1) -> float:
        """Remote pull of *num_nodes* feature rows split across *num_requests* RPCs."""
        if num_nodes <= 0:
            return 0.0
        return self._wire_time(max(1, num_requests), num_nodes * feature_dim * BYTES_PER_FEATURE)

    def time_rpc_batched(
        self, num_nodes: int, feature_dim: int, num_new_requests: int
    ) -> float:
        """Coalesced remote pull: latency only for newly opened wire requests.

        Rows riding an already-open per-owner request (or served from the
        step's coalescing window) pay bandwidth but no additional latency;
        a pull that moves nothing costs nothing.
        """
        payload = max(0, num_nodes) * feature_dim * BYTES_PER_FEATURE
        return self._wire_time(max(0, num_new_requests), payload)

    def time_copy(self, num_nodes: int, feature_dim: int) -> float:
        """Local copy of *num_nodes* feature rows from the co-located KVStore."""
        if num_nodes <= 0:
            return 0.0
        payload = num_nodes * feature_dim * BYTES_PER_FEATURE
        return payload / self.copy_bandwidth_Bps

    def time_lookup(self, num_nodes: int) -> float:
        """Prefetch-buffer membership test for *num_nodes* sampled halo nodes."""
        return max(0, num_nodes) * self.lookup_cost_per_node_s

    def time_scoring(self, num_nodes: int) -> float:
        """Scoreboard maintenance (decay + access increments) for *num_nodes*."""
        return max(0, num_nodes) * self.scoring_cost_per_node_s

    def time_eviction(self, buffer_size: int, num_replaced: int) -> float:
        """One eviction round over a buffer of *buffer_size* slots."""
        return (
            max(0, buffer_size) * self.eviction_cost_per_node_s
            + max(0, num_replaced) * self.eviction_cost_per_node_s
        )

    def time_compute(self, flops: float) -> float:
        """Forward + backward + parameter update time for *flops* floating ops."""
        return max(0.0, flops) / self.compute_flops_per_s

    def time_migration(self, num_bytes: int) -> float:
        """Bulk state movement (partition adoption, seed re-split, restore on
        recovery): one RPC latency plus the payload over network bandwidth."""
        if num_bytes <= 0:
            return 0.0
        return self._wire_time(1, num_bytes)

    def time_allreduce(self, num_params: int, world_size: int) -> float:
        """Ring-allreduce time for *num_params* float32 gradients across *world_size* trainers."""
        if world_size <= 1:
            return 0.0
        payload = num_params * BYTES_PER_FEATURE
        ring_factor = 2.0 * (world_size - 1) / world_size
        return self.allreduce_latency_s + ring_factor * payload / self.allreduce_bandwidth_Bps

    def validate(self) -> None:
        """Sanity-check that all constants are positive."""
        for name in (
            "rpc_latency_s",
            "network_bandwidth_Bps",
            "copy_bandwidth_Bps",
            "sample_cost_per_edge_s",
            "lookup_cost_per_node_s",
            "scoring_cost_per_node_s",
            "eviction_cost_per_node_s",
            "compute_flops_per_s",
            "allreduce_latency_s",
            "allreduce_bandwidth_Bps",
        ):
            check_positive(getattr(self, name), name)


class CongestedCostModel:
    """A time-varying view over a base :class:`CostModel` (congested RPC link).

    Runs the base model's RPC formulas with per-request latency multiplied
    and effective network bandwidth divided according to a
    :class:`~repro.events.schedule.CongestionSpec` evaluated at the owning
    trainer's **current simulated time** (read from its
    :class:`~repro.distributed.clock.SimClock` at call time).  Everything
    else — copy/compute/allreduce/migration times, the preset constants —
    delegates to the base model untouched, so only the remote-fetch path
    feels the bursts.

    Installed per trainer by :class:`~repro.distributed.cluster.SimCluster`
    when the :class:`~repro.distributed.cluster.ClusterConfig` carries a
    ``congestion`` spec; deterministic because simulated time is.
    """

    def __init__(self, base: CostModel, spec, clock):
        self.base = base
        self.spec = spec
        self.clock = clock

    def _link_factors(self) -> Tuple[float, float]:
        return self.spec.factors_at(self.clock.time)

    # The base model's RPC formulas, run with this view's link factors.
    _wire_time = CostModel._wire_time
    time_rpc = CostModel.time_rpc
    time_rpc_batched = CostModel.time_rpc_batched

    def __getattr__(self, name: str):
        # Fields and non-RPC component times come from the base model, so the
        # wrapper is a drop-in CostModel wherever channels/sources expect one.
        return getattr(self.base, name)
