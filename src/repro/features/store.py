"""The :class:`FeatureStore`: route minibatch node ids to composed sources.

A feature store owns two :class:`~repro.features.source.FeatureSource`\\ s —
one for the rows the trainer's partition owns (served as memory copies) and
one for halo rows (served by whatever data path the pipeline is configured
with: plain RPC, the MassiveGNN prefetch buffer, a static cache, ...).  Its
job per minibatch is the DGL ``DistTensor``-shaped contract: *here are the
input nodes, give me one aligned feature matrix and tell me what it cost*,
with per-source accounting aggregated into a
:class:`~repro.features.source.FetchResult`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.features.source import FeatureSource, FetchResult, FetchStats
from repro.graph.halo import GraphPartition
from repro.sampling.neighbor_sampler import split_local_halo
from repro.utils.validation import check_1d_int_array, sorted_lookup

LOCAL_ROLE = "local"
HALO_ROLE = "halo"


class FeatureStore:
    """Route a minibatch's input nodes to local vs. halo feature sources."""

    def __init__(
        self,
        partition: GraphPartition,
        local_source: FeatureSource,
        halo_source: FeatureSource,
    ):
        self.partition = partition
        self.local_source = local_source
        self.halo_source = halo_source

    # ------------------------------------------------------------------ #
    @property
    def sources(self) -> Dict[str, FeatureSource]:
        """Role -> source mapping (roles are ``"local"`` and ``"halo"``)."""
        return {LOCAL_ROLE: self.local_source, HALO_ROLE: self.halo_source}

    @property
    def feature_dim(self) -> int:
        return self.local_source.feature_dim  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    def initialize(self) -> Optional[Dict[str, float]]:
        """One-time population of sources that need it (e.g. prefetch buffers).

        Returns the halo source's init report (Fig. 8) or ``None`` when the
        composed sources need no initialization.
        """
        report: Optional[Dict[str, float]] = None
        for source in (self.local_source, self.halo_source):
            init = getattr(source, "initialize", None)
            if init is not None:
                out = init()
                if out is not None:
                    report = out
        return report

    def fetch_minibatch(self, minibatch) -> Tuple[np.ndarray, FetchResult]:
        """Assemble the input feature matrix for one sampled minibatch.

        ``minibatch`` needs ``input_local``, ``input_global`` and
        ``num_input_nodes`` (a :class:`~repro.sampling.block.MiniBatch`).  Rows
        of the returned matrix align with the minibatch's input-node order.
        """
        local_ids, halo_ids, local_rows, halo_rows = split_local_halo(self.partition, minibatch)

        features = np.zeros((minibatch.num_input_nodes, self.feature_dim), dtype=np.float32)
        rows, local_stats = self.local_source.fetch(local_ids)
        features[local_rows] = rows
        rows, halo_stats = self.halo_source.fetch(halo_ids)
        features[halo_rows] = rows

        return features, FetchResult(per_source={LOCAL_ROLE: local_stats, HALO_ROLE: halo_stats})

    def fetch(self, global_ids: np.ndarray) -> Tuple[np.ndarray, FetchStats]:
        """Protocol-compatible fetch: route arbitrary global ids by ownership.

        Every id must be a node this partition knows about (owned or halo);
        any other id raises ``KeyError`` here, naming the offending ids — the
        same guard :meth:`~repro.graph.halo.GraphPartition.halo_owners_of`
        applies to halos.
        """
        global_ids = check_1d_int_array(global_ids, "global_ids")
        known = self.partition.contains(global_ids)
        if len(global_ids) and not np.all(known):
            missing = global_ids[~known][:5]
            raise KeyError(
                f"nodes {missing.tolist()} are neither owned by nor halo "
                f"neighbors of partition {self.partition.part_id}; refusing to "
                f"guess an owner for them"
            )
        # Ownership, not structural presence: halo nodes are *contained* in the
        # partition's local graph but their features live on other machines.
        _, is_local = sorted_lookup(self.partition.owned_global, global_ids)
        local_rows = np.nonzero(is_local)[0]
        halo_rows = np.nonzero(~is_local)[0]
        features = np.zeros((len(global_ids), self.feature_dim), dtype=np.float32)
        rows, local_stats = self.local_source.fetch(global_ids[local_rows])
        features[local_rows] = rows
        rows, halo_stats = self.halo_source.fetch(global_ids[halo_rows])
        features[halo_rows] = rows
        return features, local_stats.merge(halo_stats)

    def end_epoch(self) -> None:
        """Epoch boundary: forward to sources that adapt between epochs.

        The tiered cache's adaptive capacity controller re-splits tier
        budgets here; sources without an ``end_epoch`` hook are skipped, so
        the call is free for the classic data paths.
        """
        for source in self.sources.values():
            hook = getattr(source, "end_epoch", None)
            if hook is not None:
                hook()

    # ------------------------------------------------------------------ #
    # Telemetry pass-throughs (engine and benchmarks read these).
    # ------------------------------------------------------------------ #
    @property
    def tracker(self):
        """The halo source's hit-rate tracker, if it keeps one."""
        return getattr(self.halo_source, "tracker", None)

    @property
    def hit_rate(self) -> Optional[float]:
        tracker = self.tracker
        return tracker.cumulative_hit_rate if tracker is not None else None

    def nbytes(self) -> int:
        """Trainer-side memory pinned by the composed sources."""
        return int(sum(source.nbytes() for source in self.sources.values()))

    def summary(self) -> Dict[str, float]:
        """Flat per-source counter dump (keys prefixed with the source role)."""
        out: Dict[str, float] = {"nbytes": float(self.nbytes())}
        for role, source in self.sources.items():
            for key, value in source.summary().items():
                out[f"{role}.{key}"] = float(value)
        return out

    def cache_summary(self) -> Dict[str, float]:
        """Per-tier cache counters of the composed sources (empty when tier-less).

        Keys are ``{role}.tier.{tier}.{counter}``; the cluster engine threads
        them into :class:`~repro.training.cluster_engine.TrainerRunStats` so
        tier hit rates and eviction churn surface in cluster reports without
        touching the tier-less report schema the golden fixtures pin.
        """
        out: Dict[str, float] = {}
        for role, source in self.sources.items():
            tier_summary = getattr(source, "tier_summary", None)
            if tier_summary is None:
                continue
            for key, value in tier_summary().items():
                out[f"{role}.{key}"] = float(value)
        return out


# Summary keys that describe a level (rate/capacity/resident bytes) rather
# than a count; cluster aggregation averages these instead of summing.
_LEVEL_KEYS = (
    "hit_rate",
    "buffer_capacity",
    "nbytes",
    "buffer_nbytes",
    "scoreboard_nbytes",
    "server_nbytes",
)


def merge_store_summaries(summaries: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Aggregate per-trainer :meth:`FeatureStore.summary` dicts cluster-wide.

    Counter-like keys (calls, rows served, remote nodes fetched) are summed;
    level-like keys (hit rates, capacities, resident bytes) are averaged, so
    the result reads as "the cluster's totals plus the mean per-trainer state".
    Machine-**shared** cache-tier keys (``*.tier.shared.*``) are averaged
    wholesale: the tier is one object reported identically by every trainer
    on its machine, so summing would multiply its cumulative counters by
    ``trainers_per_machine`` — the mean instead reads as "the per-machine
    shared-tier state".
    """
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for summary in summaries:
        for key, value in summary.items():
            totals[key] = totals.get(key, 0.0) + float(value)
            counts[key] = counts.get(key, 0) + 1
    merged: Dict[str, float] = {}
    for key, value in totals.items():
        if key.rsplit(".", 1)[-1] in _LEVEL_KEYS or ".tier.shared." in key:
            merged[key] = value / counts[key]
        else:
            merged[key] = value
    return merged
