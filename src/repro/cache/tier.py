"""One tier of the feature cache: a bounded id -> feature-row store.

A :class:`CacheTier` is the building block of the tiered cache stack: a
fixed-capacity (but resizable) mapping from global node id to feature row,
with a pluggable admission policy deciding what may enter and a pluggable
eviction policy deciding what leaves when the tier is full.

Storage is a fixed-slot store, the layout of
:class:`~repro.core.buffer.PrefetchBuffer` (Algorithm 2 writes replacements
into the slots the evicted rows vacated): the feature matrix is allocated
once at ``capacity x feature_dim`` and a row never moves after it is written.
Residents are described by one ``(5, size)`` int64 **index** — id, slot,
last access, frequency, reference bit — whose columns are kept in ascending
id order, so membership is a single ``searchsorted`` + ``take`` and an
admission that evicts is one rebuild of that index, never of the rows.  When
a full tier trades rows one for one, the entering ids and their fresh
metadata are written straight into the victims' columns, and one stable
argsort of the id row (sorted but for those columns) and one ``take`` restore
id order; nothing is concatenated.  Degrees are not stored: a node's degree
is a fixed function of its id, so :meth:`CacheTier.degrees` looks them up
through ``degree_of`` only where a degree-aware policy or fallback asks.
Unlike the prefetch buffer a tier's capacity can change at runtime (the
adaptive controller re-splits tier budgets between epochs); :meth:`resize`
is the one place that re-packs the rows into a fresh allocation.

Ids are validated where they enter the cache
(:meth:`TieredFeatureCache.fetch <repro.cache.stack.TieredFeatureCache.fetch>`,
the prefetcher's minibatch entry, :meth:`CacheTier.seed`);
:meth:`~CacheTier.lookup`, :meth:`~CacheTier.contains` and
:meth:`~CacheTier.admit` require a 1-D int64 array and do not re-scan it.
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
)
from repro.utils.validation import check_1d_int_array, sorted_lookup

DegreeLookup = Callable[[np.ndarray], np.ndarray]

# Rows of the resident index; its columns are the residents in ascending id order.
_ID, _SLOT, _LAST_ACCESS, _FREQ, _REF = range(5)
# Sort key given to an evicted column: past every live id, so it sorts off the end.
_EVICTED = np.iinfo(np.int64).max


def _columns(ids, last_access, freq, ref) -> np.ndarray:
    """Index columns for *ids*; the slot row is filled in when rows are placed."""
    columns = np.empty((5, len(ids)), dtype=np.int64)
    columns[_ID], columns[_SLOT], columns[_LAST_ACCESS] = ids, 0, last_access
    columns[_FREQ], columns[_REF] = freq, ref
    return columns


@dataclass
class TierStats:
    """Cumulative counters for one tier, read into cluster reports via ``cache_summary()``."""

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
        Optional global-id -> degree lookup, called through :meth:`degrees`
        only by the degree-aware policies and fallbacks; tiers without one
        fall back to zero degrees.
    distance_of:
        Optional global-id -> halo-distance lookup for the
        :class:`~repro.cache.scoring.PrefetchScorer` built when either policy
        is score-based (1-hop halo rows report 1).

    A scored tier built while a :func:`~repro.cache.scoring.capture_decisions`
    session is active (the ``repro explain`` replay path) records every
    admit/reject/evict decision as a
    :class:`~repro.cache.scoring.ScoreRecord` in :attr:`ledger`.  Recording
    never changes a decision.
    """

    def __init__(
        self,
        name: str,
        capacity: int,
        feature_dim: int,
        admission: str = "always",
        eviction: str = "lru",
        degree_of: Optional[DegreeLookup] = None,
        distance_of: Optional[DistanceLookup] = None,
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
        self.record_decisions = False
        if (getattr(self.admission, "requires_scorer", False)
                or getattr(self.eviction, "requires_scorer", False)):
            self.scorer = PrefetchScorer(distance_of=distance_of, degree_of=degree_of)
            log = active_decision_log()
            if log is not None:
                log.register(self)
                self.record_decisions = True

        self._load()

    # ------------------------------------------------------------------ #
    # Introspection (policies read these views: one entry per resident, in
    # ascending id order; each is a row of the index, valid until the next
    # admit/resize/invalidate rebuilds it — a view held across a
    # one-for-one admit sees the entering rows written over the victims'.
    # resident_degrees is looked up afresh on every read)
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
        return self.degrees(self._ids)

    def degrees(self, global_ids: np.ndarray) -> np.ndarray:
        """Int64 degree of each id through ``degree_of`` (zeros without one)."""
        if self.degree_of is None:
            return np.zeros(len(global_ids), dtype=np.int64)
        return np.asarray(self.degree_of(global_ids), dtype=np.int64)

    def nbytes(self) -> int:
        """Resident bytes, not the slot allocation:
        per row the features, four int64 fields and the one-byte reference bit."""
        scorer_bytes = self.scorer.nbytes() if self.scorer is not None else 0
        return int(self.size * (self._rows.itemsize * self.feature_dim + 33) + scorer_bytes)

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
        *global_ids* must be a 1-D int64 array (see the module docstring).
        """
        requested = len(global_ids)
        self.stats.lookups += requested
        self.last_step = max(self.last_step, int(step))
        if self.size == 0 or requested == 0:
            self.stats.misses += requested
            if self.scorer is not None and requested:
                self.scorer.observe(global_ids, step)
            return (
                np.zeros(requested, dtype=bool),
                np.zeros((0, self.feature_dim), dtype=np.float32),
            )
        idx, hit_mask = sorted_lookup(self._ids, global_ids)
        hit_idx = idx[hit_mask]
        self.stats.hits += len(hit_idx)
        self.stats.misses += requested - len(hit_idx)
        if len(hit_idx):
            self._last_access[hit_idx] = step
            np.add.at(self._freq, hit_idx, 1)
            self._ref[hit_idx] = 1
        if self.scorer is not None:
            # The request stream (hits AND misses) is the scorer's signal: a
            # not-yet-resident node must be able to build a score worth
            # admitting before it ever hits.
            self.scorer.observe(global_ids, step)
        # take already materializes a fresh array; no copy needed.
        return hit_mask, self._rows.take(self._slots.take(hit_idx), axis=0)

    def contains(self, global_ids: np.ndarray) -> np.ndarray:
        """Boolean membership mask of a 1-D int64 array (no metadata updates, no stats)."""
        return sorted_lookup(self._ids, global_ids)[1]

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
        self._load(_columns(global_ids[order], step, 0, 1),
                   np.asarray(rows, dtype=np.float32)[order])

    def admit(self, global_ids: np.ndarray, rows: np.ndarray, step: int) -> int:
        """Offer fetched rows to the tier; returns how many were inserted.

        The admission policy filters the candidates, then the eviction policy
        makes room for whatever does not fit.  Candidates it cannot place
        (policy returned fewer victims than needed, e.g. ``none``) are
        dropped, counted as rejections.  *global_ids* must be a 1-D int64
        array (see the module docstring); it may be unsorted and repeat ids.
        """
        if len(global_ids) == 0:
            return 0
        self.last_step = max(self.last_step, int(step))
        rows = np.asarray(rows, dtype=np.float32)
        # Sort and deduplicate the offer unless it already is (miss fetches
        # are).  Promotions arrive in request order: a repeated id would take
        # two slots, and unsorted ids would leave the index out of id order,
        # after which membership tests miss rows that are resident.
        if not (global_ids[1:] > global_ids[:-1]).all():
            global_ids, first = np.unique(global_ids, return_index=True)
            rows = rows[first]
        size, capacity = len(self._ids), self.capacity
        fresh = ~self.contains(global_ids)
        if not fresh.all():  # miss fetches offer no resident: nothing to filter
            global_ids, rows = global_ids[fresh], rows[fresh]
        if len(global_ids) == 0 or capacity == 0:
            self.stats.rejections += len(global_ids)
            return 0

        admitted = global_ids
        mask = self.admission.admit(self, admitted)
        if not mask.all():  # 'always' admits everything: nothing to filter
            self.stats.rejections += int((~mask).sum())
            admitted, rows = admitted[mask], rows[mask]
            if len(admitted) == 0:
                return 0

        victims = np.zeros(0, dtype=np.int64)
        overflow = size + len(admitted) - capacity
        if overflow > 0:
            victims = self.eviction.select(self, overflow)
            self.stats.evictions += len(victims)
            room = capacity - size + len(victims)
            if room < len(admitted):
                # Not enough victims (e.g. the 'none' policy): keep the
                # highest-degree candidates, reject the rest.
                keep = np.sort(np.argsort(-self.degrees(admitted), kind="stable")[:room])
                self.stats.rejections += len(admitted) - len(keep)
                admitted, rows = admitted[keep], rows[keep]
        if len(admitted) or len(victims):
            self._splice(victims, admitted, rows, step)
        self.stats.admissions += len(admitted)
        return len(admitted)

    def invalidate(self) -> int:
        """Drop every resident row (elastic partition migration, cold policy).

        Returns the number of rows dropped; they are counted as evictions so
        the ledger reconciles.  Capacity, policies, and the scorer survive —
        only the resident set goes cold.
        """
        dropped = self.size
        self._load()
        self.clock_hand = 0
        self.stats.evictions += dropped
        return dropped

    def resize(self, new_capacity: int, step: int = 0) -> int:
        """Change capacity; shrinking evicts overflow via the eviction policy.

        Returns the number of rows evicted.  When the eviction policy refuses
        to pick victims (``none``), the lowest-degree residents are dropped —
        a resize must always succeed or the controller's budget accounting
        breaks.  A changed capacity re-packs the surviving rows into a fresh
        ``new_capacity``-row allocation: the only time resident rows move.
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
                order = np.argsort(self.degrees(self._ids[remaining]), kind="stable")
                extra = remaining[order[: overflow - len(victims)]]
                victims = np.concatenate([victims, extra])
            self._splice(np.unique(victims)[:overflow],
                         self._ids[:0], self._rows[:0], step)  # nothing enters
            evicted = overflow
            self.stats.evictions += overflow
        if new_capacity != self.capacity:
            self.capacity = new_capacity
            self._load(self._index, self._rows[self._slots])
        return evicted

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _load(self, index: Optional[np.ndarray] = None, rows=0.0) -> None:
        """Replace the whole store: *index* columns (ascending id) and their
        *rows*, packed into slots ``0..size-1`` of a fresh capacity-row matrix.
        Without arguments the store is left empty."""
        if index is None:
            index = _columns((), 0, 0, 0)
        size = index.shape[1]
        self._rows = np.zeros((self.capacity, self.feature_dim), dtype=np.float32)
        self._rows[:size] = rows
        index[_SLOT] = np.arange(size)
        self._free = np.arange(size, self.capacity, dtype=np.int64)
        self._set_index(index)

    def _set_index(self, index: np.ndarray) -> None:
        self._index = index
        self._ids, self._slots, self._last_access, self._freq, self._ref = index

    def _splice(self, victims: np.ndarray, ids: np.ndarray, rows, step: int) -> None:
        """Evict the residents at index positions *victims* and admit *ids*
        (any id order, stamped *step*) with their *rows*, in one index rebuild.

        Entering rows overwrite the victims' slots first and then draw on the
        free list; slots left over go back to it.  No other row is touched.
        Equal counts write the entering ids and their fresh metadata straight
        into the victims' columns; otherwise the entering columns are appended
        and the victims sorted off the end.
        """
        index, size, entering = self._index, len(self._ids), len(ids)
        if len(victims):  # the hand wraps over the survivors, before anything enters
            survivors = size - len(victims)
            self.clock_hand = self.clock_hand % survivors if survivors else 0
        if len(victims) == entering:
            self._rows[index[_SLOT, victims]] = rows
            index[_ID, victims] = ids
            index[_LAST_ACCESS:, victims] = ((step,), (0,), (1,))  # stamp, freq, ref bit
            order = index[_ID].argsort(kind="stable")
        else:
            pool = np.concatenate([index[_SLOT, victims], self._free])
            slots, self._free = pool[:entering], pool[entering:]
            self._rows[slots] = rows
            index = np.concatenate([index, _columns(ids, step, 0, 1)], axis=1)
            index[_SLOT, size:] = slots
            key = index[_ID].copy()
            key[victims] = _EVICTED
            order = key.argsort(kind="stable")[:size + entering - len(victims)]
        self._set_index(index.take(order, axis=1))
