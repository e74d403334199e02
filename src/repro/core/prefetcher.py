"""The MassiveGNN prefetcher (Algorithms 1 & 2 of the paper).

One :class:`Prefetcher` exists per trainer PE.  Its job during training is:

1. **Initialization** (``INITIALIZE_PREFETCHER``): select the top ``f_h``
   percent of the partition's halo nodes by degree, pull their features over
   RPC once, and place them in a fixed-capacity :class:`PrefetchBuffer`.
   Eviction scores ``S_E`` start at 1 for buffered nodes; access scores
   ``S_A`` start at −1 for buffered nodes and 0 for the remaining halo nodes.

2. **Per minibatch** (``PREFETCH_WITH_EVICTION``): split the sampled halo
   nodes into buffer *hits* (served locally, no RPC) and *misses* (fetched
   over RPC).  Unsampled buffer slots have their ``S_E`` decayed by γ; missed
   nodes have their ``S_A`` incremented.  Every Δ steps an eviction round
   replaces the slots whose ``S_E`` fell below α with the highest-``S_A``
   (degree tie-broken) missed nodes, swapping the scores of the evicted and
   replacement nodes as described in Section IV-B.

The prefetcher returns, for every step, both the assembled halo features and
the *operation counts* (lookups, score updates, nodes fetched, slots replaced)
that the training engine converts into simulated time via the cost model.
It is the halo :class:`~repro.features.source.FeatureSource` of the
``prefetch`` pipeline: :meth:`Prefetcher.fetch` runs one minibatch through
:meth:`Prefetcher.process_minibatch` and reports its counts as
:class:`~repro.features.source.FetchStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.buffer import PrefetchBuffer
from repro.core.config import PrefetchConfig
from repro.core.eviction import build_eviction_policy
from repro.core.metrics import HitRateTracker, PrefetchCounters
from repro.core.scoreboard import DenseAccessScoreboard, EvictionScores
from repro.distributed.rpc import RPCChannel
from repro.features.source import FetchStats
from repro.graph.halo import GraphPartition
from repro.utils.rng import SeedLike
from repro.utils.validation import check_1d_int_array


@dataclass
class PrefetchStepResult:
    """Per-minibatch outcome of ``PREFETCH_WITH_EVICTION``."""

    features: np.ndarray                 # rows aligned with the requested halo ids
    num_requested: int
    num_hits: int
    num_misses: int
    rpc_time_s: float                    # simulated time of this step's remote pulls
    remote_nodes_fetched: int            # misses + replacement fetches this step
    lookup_nodes: int                    # membership tests performed
    scoring_nodes: int                   # S_E decays + S_A increments performed
    eviction_round: bool = False
    nodes_evicted: int = 0
    nodes_replaced: int = 0
    buffer_capacity: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.num_hits + self.num_misses
        return self.num_hits / total if total else 0.0


class Prefetcher:
    """Continuous prefetch-and-eviction manager for one trainer.

    ``config.eviction_policy`` names the policy, built here with *seed* so
    every trainer owns its instance (and its RNG stream).  The buffer is the
    only cache on this path: every miss goes to the RPC channel.
    """

    name = "prefetch-buffer"

    def __init__(
        self,
        partition: GraphPartition,
        config: PrefetchConfig,
        rpc: RPCChannel,
        num_global_nodes: int,
        seed: SeedLike = None,
    ):
        self.partition = partition
        self.config = config
        self.rpc = rpc
        self.num_global_nodes = int(num_global_nodes)
        self.eviction_policy = build_eviction_policy(config.eviction_policy, seed=seed)
        # Degrees indexed by global id (needed for init and replacement ties).
        self._global_degrees = np.zeros(num_global_nodes, dtype=np.int64)
        self._global_degrees[partition.local_to_global] = partition.global_degrees

        self.buffer: Optional[PrefetchBuffer] = None
        self.eviction_scores: Optional[EvictionScores] = None
        self.access_scores = None
        self._last_hit_step: Optional[np.ndarray] = None
        self.tracker = HitRateTracker()
        self.counters = PrefetchCounters()
        self._initialized = False
        # Lifetime step counter of fetch(): one per minibatch, drives Δ.
        self._step = 0

    # ------------------------------------------------------------------ #
    # Initialization (Algorithm 1, INITIALIZE_PREFETCHER)
    # ------------------------------------------------------------------ #
    def initialize(self) -> Dict[str, float]:
        """Populate the buffer with the highest-degree halo nodes (one-time RPC).

        Returns Fig. 8's init report: what was prefetched, what it cost and
        the memory the buffer and scoreboards pin.
        """
        halo = self.partition.halo_global
        capacity = self.config.buffer_capacity(len(halo))
        self.access_scores = DenseAccessScoreboard(self.num_global_nodes, halo)
        self.eviction_scores = EvictionScores(capacity)
        self._last_hit_step = np.zeros(capacity, dtype=np.int64)
        self._initialized = True
        rpc_time, bytes_fetched = 0.0, 0
        if capacity == 0:
            self.buffer = PrefetchBuffer.empty(self.rpc.servers[self.rpc.local_part].feature_dim)
        else:
            order = np.argsort(-self._global_degrees[halo], kind="stable")
            selected = np.sort(halo[order[:capacity]])
            owners = self.partition.halo_owners_of(selected)
            rows, rpc_time, delta = self.rpc.remote_pull(selected, owners)
            bytes_fetched = delta.bytes_fetched
            self.buffer = PrefetchBuffer(selected, rows)
            # S_A = -1 for buffered nodes, 0 for the remaining halo nodes.
            self.access_scores.set(selected, np.full(capacity, -1.0))
            self.counters.remote_nodes_at_init = capacity
            self.counters.remote_nodes_fetched += capacity
        return {
            "num_prefetched": float(capacity),
            "buffer_capacity": float(capacity),
            "rpc_time_s": rpc_time,
            "bytes_fetched": float(bytes_fetched),
            "buffer_nbytes": float(self.buffer.nbytes()),
            "scoreboard_nbytes": float(self.scoreboard_nbytes()),
            "num_halo_nodes": float(len(halo)),
        }

    # ------------------------------------------------------------------ #
    # Per-minibatch processing (Algorithm 2)
    # ------------------------------------------------------------------ #
    def process_minibatch(self, halo_global_ids: np.ndarray, step: int) -> PrefetchStepResult:
        """Serve the sampled halo nodes of one minibatch.

        ``halo_global_ids`` are the remotely owned nodes the sampler returned
        for this minibatch (``V_p^{h|s}`` in Algorithm 2); the result's
        ``features`` rows align with the input order.
        """
        self._require_initialized()
        halo_global_ids = check_1d_int_array(halo_global_ids, "halo_global_ids")
        feature_dim = self.buffer.feature_dim
        features = np.zeros((len(halo_global_ids), feature_dim), dtype=np.float32)

        hit_mask, slots = self.buffer.lookup(halo_global_ids)
        hit_rows = np.nonzero(hit_mask)[0]
        miss_rows = np.nonzero(~hit_mask)[0]
        hits_ids = halo_global_ids[hit_rows]
        miss_ids = halo_global_ids[miss_rows]

        if len(hit_rows):
            features[hit_rows] = self.buffer.get_features(slots[hit_rows])
            self._last_hit_step[slots[hit_rows]] = step

        # Decay S_E of buffer slots whose nodes were not sampled this step.
        sampled_in_buffer = np.zeros(self.buffer.capacity, dtype=bool)
        if len(hit_rows):
            sampled_in_buffer[slots[hit_rows]] = True
        unused_mask = ~sampled_in_buffer
        self.eviction_scores.decay(unused_mask, self.config.gamma)

        scoring_nodes = int(unused_mask.sum())
        lookup_nodes = int(len(halo_global_ids)) + self.buffer.capacity
        rpc_time = 0.0
        remote_fetched = 0
        eviction_round = False
        nodes_evicted = 0
        nodes_replaced = 0

        eviction_round = (
            self.config.eviction_enabled
            and self.buffer.capacity > 0
            and step > 0
            and step % self.config.delta == 0
        )

        # Misses update S_A first in every step kind — on eviction steps this
        # happens before the eviction assessment, so fresh demand influences
        # the replacement choice.
        unique_miss, miss_counts = np.unique(miss_ids, return_counts=True)
        if len(unique_miss):
            self._increment_access(unique_miss, miss_counts)
            scoring_nodes += len(unique_miss)

        evict_slots = np.zeros(0, dtype=np.int64)
        replacement_ids = np.zeros(0, dtype=np.int64)
        if eviction_round:
            self.counters.eviction_rounds += 1
            evict_slots, replacement_ids = self._plan_eviction(step)
            nodes_evicted = len(evict_slots)
            nodes_replaced = len(replacement_ids)

        # One combined RPC serves both this step's misses and the eviction
        # round's replacement rows (union1d keeps the ids sorted and unique).
        fetch_ids = np.union1d(unique_miss, replacement_ids)
        if len(fetch_ids):
            rows, rpc_time = self._fetch_remote(fetch_ids)
            remote_fetched = len(fetch_ids)
            if len(miss_rows):
                features[miss_rows] = rows[np.searchsorted(fetch_ids, miss_ids)]
            if len(replacement_ids):
                repl_rows = rows[np.searchsorted(fetch_ids, replacement_ids)]
                self._apply_eviction(evict_slots, replacement_ids, repl_rows, step)
        self.counters.remote_nodes_for_misses += int(len(unique_miss))
        self.counters.remote_nodes_for_replacement += int(nodes_replaced)

        self.counters.remote_nodes_fetched += int(remote_fetched)
        self.counters.nodes_evicted += int(nodes_evicted)
        self.counters.halo_nodes_sampled += int(len(halo_global_ids))
        self.tracker.record(len(hit_rows), len(miss_rows), eviction=eviction_round)

        return PrefetchStepResult(
            features=features,
            num_requested=int(len(halo_global_ids)),
            num_hits=int(len(hit_rows)),
            num_misses=int(len(miss_rows)),
            rpc_time_s=rpc_time,
            remote_nodes_fetched=int(remote_fetched),
            lookup_nodes=lookup_nodes,
            scoring_nodes=scoring_nodes,
            eviction_round=eviction_round,
            nodes_evicted=int(nodes_evicted),
            nodes_replaced=int(nodes_replaced),
            buffer_capacity=self.buffer.capacity,
        )

    def fetch(self, global_ids: np.ndarray) -> Tuple[np.ndarray, FetchStats]:
        """FeatureSource protocol: one minibatch through Algorithm 2.

        Advances the lifetime step counter that drives Δ once per call.
        """
        result = self.process_minibatch(global_ids, step=self._step)
        self._step += 1
        stats = FetchStats(
            num_requested=result.num_requested,
            num_hits=result.num_hits,
            num_misses=result.num_misses,
            rpc_time_s=result.rpc_time_s,
            lookup_nodes=result.lookup_nodes,
            scoring_nodes=result.scoring_nodes,
            eviction_round=result.eviction_round,
            nodes_replaced=result.nodes_replaced,
            buffer_capacity=result.buffer_capacity,
        )
        return result.features, stats

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def hit_rate(self) -> float:
        return self.tracker.cumulative_hit_rate

    def buffer_nbytes(self) -> int:
        self._require_initialized()
        return self.buffer.nbytes()

    def scoreboard_nbytes(self) -> int:
        self._require_initialized()
        return int(self.access_scores.nbytes() + self.eviction_scores.nbytes())

    def nbytes(self) -> int:
        return self.buffer_nbytes() + self.scoreboard_nbytes()

    def summary(self) -> Dict[str, float]:
        self._require_initialized()
        out = {
            "hit_rate": self.hit_rate,
            "buffer_capacity": float(self.buffer.capacity),
            "buffer_nbytes": float(self.buffer.nbytes()),
            "scoreboard_nbytes": float(self.scoreboard_nbytes()),
        }
        out.update({k: float(v) for k, v in self.counters.as_dict().items()})
        return out

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _require_initialized(self) -> None:
        if not self._initialized:
            raise RuntimeError("Prefetcher.initialize() must be called before use")

    def _increment_access(self, unique_ids: np.ndarray, counts: np.ndarray) -> None:
        """Add the per-node miss counts to S_A (buffered nodes keep their -1)."""
        current = self.access_scores.get(unique_ids)
        self.access_scores.set(unique_ids, current + counts.astype(np.float64))

    def _fetch_remote(self, global_ids: np.ndarray) -> Tuple[np.ndarray, float]:
        """Pull *global_ids* from their owning partitions over RPC.

        Returns ``(rows, simulated_rpc_time)``.  Ownership resolution
        validates halo membership: a non-halo id raises ``KeyError`` naming
        the offending ids instead of routing to an arbitrary owner.
        """
        owners = self.partition.halo_owners_of(global_ids)
        rows, rpc_time, _ = self.rpc.remote_pull(global_ids, owners)
        return rows, rpc_time

    def _plan_eviction(self, step: int) -> Tuple[np.ndarray, np.ndarray]:
        """Choose eviction slots and replacement node ids (EVICT_AND_REPLACE)."""
        evict_slots = self.eviction_policy.select(
            self.eviction_scores, self.config.effective_alpha, self._last_hit_step, step
        )
        if len(evict_slots) == 0:
            return evict_slots, np.zeros(0, dtype=np.int64)
        replacements = self.access_scores.top_candidates(
            len(evict_slots), exclude=self.buffer.node_ids, degrees=self._global_degrees
        )
        # Only keep replacements with positive demand (S_A > 0): replacing an
        # unused slot with a never-missed node would be pure overhead.
        if len(replacements):
            scores = self.access_scores.get(replacements)
            replacements = replacements[scores > 0]
        # The number of replacements must equal the number of evictions to keep
        # the buffer size constant; trim evictions if not enough candidates.
        count = min(len(evict_slots), len(replacements))
        return evict_slots[:count], replacements[:count]

    def _apply_eviction(
        self,
        evict_slots: np.ndarray,
        replacement_ids: np.ndarray,
        replacement_rows: np.ndarray,
        step: int,
    ) -> None:
        """Swap evicted nodes for replacements, exchanging their scores."""
        if len(evict_slots) == 0:
            return
        evicted_ids = self.buffer.node_ids[evict_slots]
        evicted_se = self.eviction_scores.get(evict_slots)
        replacement_sa = self.access_scores.get(replacement_ids)

        self.buffer.replace(evict_slots, replacement_ids, replacement_rows)
        # Swap scores (Section IV-B): the evicted nodes' S_A becomes their last
        # S_E; the replacements' S_E becomes their last S_A (clamped to at least
        # the initial S_E of 1 so fresh slots are not immediately evicted again).
        self.access_scores.set(evicted_ids, evicted_se)
        new_se = np.maximum(replacement_sa, 1.0)
        self.eviction_scores.set(evict_slots, new_se)
        self.access_scores.set(replacement_ids, np.full(len(replacement_ids), -1.0))
        self._last_hit_step[evict_slots] = step
