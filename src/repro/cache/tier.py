"""One tier of the feature cache: a bounded id -> feature-row store.

A :class:`CacheTier` is the building block of the tiered cache stack: a
fixed-capacity (but resizable) mapping from global node id to feature row,
with a pluggable admission policy deciding what may enter and a pluggable
eviction policy deciding what leaves when the tier is full.

Storage mirrors :class:`~repro.core.buffer.PrefetchBuffer`'s sorted-index
idiom — resident ids are kept sorted so membership tests are a single
``np.searchsorted`` — but unlike the prefetch buffer a tier's capacity can
change at runtime (the adaptive controller re-splits tier budgets between
epochs) and each resident carries recency/frequency/reference metadata for
the LRU/LFU/CLOCK policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.policies import (
    build_admission_policy,
    build_cache_eviction_policy,
)
from repro.cache.scoring import (
    DistanceLookup,
    PrefetchScorer,
    ScoreRecord,
    active_decision_log,
    build_scorer,
)
from repro.utils.validation import check_1d_int_array

DegreeLookup = Callable[[np.ndarray], np.ndarray]


@dataclass
class TierStats:
    """Cumulative counters for one tier (mergeable into FetchStats)."""

    lookups: int = 0          # rows tested for membership
    hits: int = 0             # rows served from this tier
    misses: int = 0           # rows that fell through to the next level
    admissions: int = 0       # rows inserted after a miss fetch
    rejections: int = 0       # candidate rows the admission policy turned away
    evictions: int = 0        # resident rows displaced (including resize shrinks)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "lookups": float(self.lookups),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "admissions": float(self.admissions),
            "rejections": float(self.rejections),
            "evictions": float(self.evictions),
            "hit_rate": self.hit_rate,
        }

    def snapshot(self) -> "TierStats":
        return TierStats(**{k: getattr(self, k) for k in
                            ("lookups", "hits", "misses", "admissions",
                             "rejections", "evictions")})

    def since(self, earlier: "TierStats") -> "TierStats":
        """Counter deltas relative to an *earlier* snapshot (interval stats)."""
        return TierStats(
            lookups=self.lookups - earlier.lookups,
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            admissions=self.admissions - earlier.admissions,
            rejections=self.rejections - earlier.rejections,
            evictions=self.evictions - earlier.evictions,
        )


class CacheTier:
    """A bounded, policy-governed feature cache level.

    Parameters
    ----------
    name:
        Role label (``"hot"``, ``"shared"``); prefixes the tier's counters in
        fetch stats and summaries.
    capacity:
        Maximum resident rows.  Zero is legal: every lookup misses and every
        admission is rejected (the degenerate tier the edge-case tests pin).
    feature_dim:
        Width of the cached rows.
    admission / eviction:
        Registry names (see :mod:`repro.cache.policies`).
    degree_of:
        Optional global-id -> degree lookup used by the degree-aware policies;
        tiers without one fall back to zero degrees.
    scorer:
        Registry name (see :data:`repro.cache.scoring.SCORERS`) of the scorer
        built when either policy is score-based; ignored otherwise.
    distance_of:
        Optional global-id -> halo-distance lookup for the scorer's
        halo-distance feature (1-hop halo rows report 1).
    record_decisions:
        Record every scored admit/reject/evict decision as a
        :class:`~repro.cache.scoring.ScoreRecord` in :attr:`ledger`.  Forced
        on while a :func:`~repro.cache.scoring.capture_decisions` session is
        active (the ``repro explain`` replay path).  Recording never changes
        a decision.
    """

    def __init__(
        self,
        name: str,
        capacity: int,
        feature_dim: int,
        admission: str = "always",
        eviction: str = "lru",
        degree_of: Optional[DegreeLookup] = None,
        scorer: str = "decayed",
        distance_of: Optional[DistanceLookup] = None,
        record_decisions: bool = False,
    ):
        if capacity < 0:
            raise ValueError(f"tier capacity must be >= 0, got {capacity}")
        self.name = str(name)
        self.capacity = int(capacity)
        self.feature_dim = int(feature_dim)
        self.admission = build_admission_policy(admission)
        self.eviction = build_cache_eviction_policy(eviction)
        self.degree_of = degree_of
        self.stats = TierStats()
        self.clock_hand = 0  # persistent CLOCK sweep position
        self.last_step = 0   # latest step seen by lookup/admit (policies read it)

        self.scorer: Optional[PrefetchScorer] = None
        self.ledger: List[ScoreRecord] = []
        self.record_decisions = bool(record_decisions)
        if (getattr(self.admission, "requires_scorer", False)
                or getattr(self.eviction, "requires_scorer", False)):
            online = bool(getattr(self.admission, "online", False)
                          or getattr(self.eviction, "online", False))
            self.scorer = build_scorer(scorer, online=online, distance_of=distance_of)
            self.scorer.bind_degree_lookup(degree_of)
            log = active_decision_log()
            if log is not None:
                log.register(self)
                self.record_decisions = True

        self._ids = np.zeros(0, dtype=np.int64)
        self._rows = np.zeros((0, self.feature_dim), dtype=np.float32)
        self._last_access = np.zeros(0, dtype=np.int64)
        self._freq = np.zeros(0, dtype=np.int64)
        self._ref = np.zeros(0, dtype=bool)
        self._degrees = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Introspection (policies read these views)
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return int(len(self._ids))

    @property
    def resident_ids(self) -> np.ndarray:
        return self._ids.copy()

    @property
    def resident_last_access(self) -> np.ndarray:
        return self._last_access

    @property
    def resident_freq(self) -> np.ndarray:
        return self._freq

    @property
    def resident_ref(self) -> np.ndarray:
        return self._ref

    @property
    def resident_degrees(self) -> np.ndarray:
        return self._degrees

    def nbytes(self) -> int:
        scorer_bytes = self.scorer.nbytes() if self.scorer is not None else 0
        return int(
            self._rows.nbytes + self._ids.nbytes + self._last_access.nbytes
            + self._freq.nbytes + self._ref.nbytes + self._degrees.nbytes
            + scorer_bytes
        )

    # ------------------------------------------------------------------ #
    # Scored-decision ledger
    # ------------------------------------------------------------------ #
    @property
    def recording(self) -> bool:
        """True when scored decisions are being appended to :attr:`ledger`."""
        return self.scorer is not None and self.record_decisions

    def record_decision(self, record: "ScoreRecord") -> None:
        """Append one decision to the ledger (no-op unless recording)."""
        if self.recording:
            self.ledger.append(record)

    def record_decisions_batch(
        self,
        step: int,
        candidate_ids: np.ndarray,
        admit_mask: np.ndarray,
        scores: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        threshold: float,
        mode: str,
        admit_reason: str,
        reject_reason: str,
    ) -> None:
        """Ledger one admission round's per-candidate admit/reject outcomes."""
        if not self.recording:
            return
        for i, node_id in enumerate(candidate_ids):
            admitted = bool(admit_mask[i])
            self.ledger.append(ScoreRecord(
                step=int(step), node_id=int(node_id),
                action="admit" if admitted else "reject", tier=self.name,
                score=float(scores[i]), lower_bound=float(lower[i]),
                upper_bound=float(upper[i]), threshold=float(threshold),
                mode=mode, reason=admit_reason if admitted else reject_reason,
            ))

    def end_epoch(self) -> None:
        """Epoch boundary: let a scored tier's online learner update weights."""
        if self.scorer is not None:
            self.scorer.end_epoch()

    def summary(self) -> Dict[str, float]:
        out = self.stats.as_dict()
        out["capacity"] = float(self.capacity)
        out["resident"] = float(self.size)
        out["nbytes"] = float(self.nbytes())
        return out

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def lookup(self, global_ids: np.ndarray, step: int) -> Tuple[np.ndarray, np.ndarray]:
        """Membership test + hit service.

        Returns ``(hit_mask, rows)`` where ``rows`` holds the feature rows of
        the hits, aligned with ``global_ids[hit_mask]``.  Hits refresh the
        recency/frequency/reference metadata the eviction policies read.
        """
        global_ids = check_1d_int_array(global_ids, "global_ids")
        self.stats.lookups += int(len(global_ids))
        self.last_step = max(self.last_step, int(step))
        if self.size == 0 or len(global_ids) == 0:
            self.stats.misses += int(len(global_ids))
            if self.scorer is not None and len(global_ids):
                self.scorer.observe(global_ids, step,
                                    np.zeros(len(global_ids), dtype=bool))
            return (
                np.zeros(len(global_ids), dtype=bool),
                np.zeros((0, self.feature_dim), dtype=np.float32),
            )
        idx = np.minimum(np.searchsorted(self._ids, global_ids), self.size - 1)
        hit_mask = self._ids[idx] == global_ids
        hit_idx = idx[hit_mask]
        self.stats.hits += int(hit_mask.sum())
        self.stats.misses += int((~hit_mask).sum())
        if len(hit_idx):
            self._last_access[hit_idx] = step
            np.add.at(self._freq, hit_idx, 1)
            self._ref[hit_idx] = True
        if self.scorer is not None:
            # The request stream (hits AND misses) is the scorer's signal: a
            # not-yet-resident node must be able to build a score worth
            # admitting before it ever hits.
            self.scorer.observe(global_ids, step, hit_mask)
        # Advanced indexing already materializes a fresh array; no copy needed.
        return hit_mask, self._rows[hit_idx]

    def contains(self, global_ids: np.ndarray) -> np.ndarray:
        """Boolean membership mask (no metadata updates, no stats)."""
        global_ids = check_1d_int_array(global_ids, "global_ids")
        if self.size == 0 or len(global_ids) == 0:
            return np.zeros(len(global_ids), dtype=bool)
        idx = np.minimum(np.searchsorted(self._ids, global_ids), self.size - 1)
        return self._ids[idx] == global_ids

    # ------------------------------------------------------------------ #
    # Population
    # ------------------------------------------------------------------ #
    def seed(self, global_ids: np.ndarray, rows: np.ndarray, step: int = 0) -> None:
        """Initial population, bypassing the admission policy.

        Used for the one-time degree-ranked preload; *global_ids* must be
        unique and fit the capacity.
        """
        global_ids = check_1d_int_array(global_ids, "global_ids")
        if len(global_ids) > self.capacity:
            raise ValueError(
                f"seeding {len(global_ids)} rows into a capacity-{self.capacity} tier"
            )
        if len(np.unique(global_ids)) != len(global_ids):
            raise ValueError("seeded ids must be unique")
        order = np.argsort(global_ids, kind="stable")
        self._ids = global_ids[order].copy()
        self._rows = np.asarray(rows, dtype=np.float32)[order].copy()
        self._last_access = np.full(self.size, step, dtype=np.int64)
        self._freq = np.zeros(self.size, dtype=np.int64)
        self._ref = np.ones(self.size, dtype=bool)
        self._degrees = self._degrees_for(self._ids)

    def admit(self, global_ids: np.ndarray, rows: np.ndarray, step: int) -> int:
        """Offer fetched rows to the tier; returns how many were inserted.

        The admission policy filters the candidates, then the eviction policy
        makes room for whatever does not fit.  Candidates it cannot place
        (policy returned fewer victims than needed, e.g. ``none``) are
        dropped, counted as rejections.
        """
        global_ids = check_1d_int_array(global_ids, "global_ids")
        if len(global_ids) == 0:
            return 0
        self.last_step = max(self.last_step, int(step))
        rows = np.asarray(rows, dtype=np.float32)
        # Sort and deduplicate the offer.  Promotions arrive in request order:
        # a repeated id would take two slots, and two unsorted ids landing in
        # the same gap would leave the resident ids out of order, after which
        # membership tests miss rows that are resident.
        global_ids, first = np.unique(global_ids, return_index=True)
        rows = rows[first]
        fresh = ~self.contains(global_ids)
        global_ids, rows = global_ids[fresh], rows[fresh]
        if len(global_ids) == 0 or self.capacity == 0:
            self.stats.rejections += int(len(global_ids))
            return 0

        degrees = self._degrees_for(global_ids)
        mask = self.admission.admit(self, global_ids, degrees)
        self.stats.rejections += int((~mask).sum())
        admitted, rows, degrees = global_ids[mask], rows[mask], degrees[mask]
        if len(admitted) == 0:
            return 0

        overflow = self.size + len(admitted) - self.capacity
        if overflow > 0:
            victims = self.eviction.select(self, overflow)
            if len(victims):
                self._remove(victims)
                self.stats.evictions += int(len(victims))
            room = self.capacity - self.size
            if room < len(admitted):
                # Not enough victims (e.g. the 'none' policy): keep the
                # highest-degree candidates, reject the rest.
                keep = np.sort(np.argsort(-degrees, kind="stable")[:room])
                self.stats.rejections += int(len(admitted) - len(keep))
                admitted, rows, degrees = admitted[keep], rows[keep], degrees[keep]
        if len(admitted) == 0:
            return 0
        self._insert(admitted, rows, degrees, step)
        self.stats.admissions += int(len(admitted))
        return int(len(admitted))

    def invalidate(self) -> int:
        """Drop every resident row (elastic partition migration, cold policy).

        Returns the number of rows dropped; they are counted as evictions so
        the ledger reconciles.  Capacity, policies, and the scorer survive —
        only the resident set goes cold.
        """
        dropped = self.size
        self._ids = np.zeros(0, dtype=np.int64)
        self._rows = np.zeros((0, self.feature_dim), dtype=np.float32)
        self._last_access = np.zeros(0, dtype=np.int64)
        self._freq = np.zeros(0, dtype=np.int64)
        self._ref = np.zeros(0, dtype=bool)
        self._degrees = np.zeros(0, dtype=np.int64)
        self.clock_hand = 0
        self.stats.evictions += dropped
        return dropped

    def snapshot(self) -> Dict[str, object]:
        """Checkpointable tier contents: resident arrays, counters, capacity."""
        return {
            "capacity": self.capacity,
            "clock_hand": self.clock_hand,
            "last_step": self.last_step,
            "ids": self._ids.copy(),
            "rows": self._rows.copy(),
            "last_access": self._last_access.copy(),
            "freq": self._freq.copy(),
            "ref": self._ref.copy(),
            "degrees": self._degrees.copy(),
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Rewind the tier to a :meth:`snapshot` (bit-exact resident set)."""
        self.capacity = int(state["capacity"])
        self.clock_hand = int(state["clock_hand"])
        self.last_step = int(state["last_step"])
        self._ids = state["ids"].copy()
        self._rows = state["rows"].copy()
        self._last_access = state["last_access"].copy()
        self._freq = state["freq"].copy()
        self._ref = state["ref"].copy()
        self._degrees = state["degrees"].copy()
        self.stats = state["stats"].snapshot()

    def resize(self, new_capacity: int, step: int = 0) -> int:
        """Change capacity; shrinking evicts overflow via the eviction policy.

        Returns the number of rows evicted.  When the eviction policy refuses
        to pick victims (``none``), the lowest-degree residents are dropped —
        a resize must always succeed or the controller's budget accounting
        breaks.
        """
        new_capacity = int(new_capacity)
        if new_capacity < 0:
            raise ValueError(f"tier capacity must be >= 0, got {new_capacity}")
        evicted = 0
        if self.size > new_capacity:
            overflow = self.size - new_capacity
            victims = self.eviction.select(self, overflow)
            if len(victims) < overflow:
                remaining = np.setdiff1d(
                    np.arange(self.size, dtype=np.int64), victims, assume_unique=False
                )
                order = np.argsort(self._degrees[remaining], kind="stable")
                extra = remaining[order[: overflow - len(victims)]]
                victims = np.concatenate([victims, extra])
            self._remove(np.unique(victims)[:overflow] if len(victims) > overflow
                         else np.unique(victims))
            evicted = overflow
            self.stats.evictions += overflow
        self.capacity = new_capacity
        return evicted

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _degrees_for(self, global_ids: np.ndarray) -> np.ndarray:
        if self.degree_of is None:
            return np.zeros(len(global_ids), dtype=np.int64)
        return np.asarray(self.degree_of(global_ids), dtype=np.int64)

    def _remove(self, indices: np.ndarray) -> None:
        self._ids = np.delete(self._ids, indices)
        self._rows = np.delete(self._rows, indices, axis=0)
        self._last_access = np.delete(self._last_access, indices)
        self._freq = np.delete(self._freq, indices)
        self._ref = np.delete(self._ref, indices)
        self._degrees = np.delete(self._degrees, indices)
        if self.size:
            self.clock_hand %= self.size
        else:
            self.clock_hand = 0

    def _insert(self, global_ids: np.ndarray, rows: np.ndarray,
                degrees: np.ndarray, step: int) -> None:
        at = np.searchsorted(self._ids, global_ids)
        self._ids = np.insert(self._ids, at, global_ids)
        self._rows = np.insert(self._rows, at, rows, axis=0)
        self._last_access = np.insert(self._last_access, at, step)
        self._freq = np.insert(self._freq, at, 0)
        self._ref = np.insert(self._ref, at, True)
        self._degrees = np.insert(self._degrees, at, degrees)
