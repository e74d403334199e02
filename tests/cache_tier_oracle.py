"""Reference implementations the cache property tests compare against.

:class:`OracleCacheTier` is the tier's storage as it was before the fixed-slot
store: six parallel arrays in ascending id order — the feature matrix among
them — rebuilt with ``np.insert``/``np.delete`` on every admission and
eviction.  It is slow and obviously right, which is what an oracle is for.
It still stores each resident's degree, looked up once on entry, and serves
``resident_degrees`` from that array; the real
tier's five-row index holds no degrees and looks them up on every read, so
the property test holds the on-demand lookup to the stored column.  Only
storage is overridden (its ``admit`` asks the admission policy
``admit(tier, candidate_ids)``, as the real tier does); construction, the
decision ledger and the scorer plumbing are inherited from
:class:`~repro.cache.tier.CacheTier`.

:class:`LoopClockEviction` is the CLOCK sweep written as the loop the policy's
docstring describes, one hand position per iteration.  :class:`SortLRUEviction`
is least-recently-used as one stable argsort of every resident's stamp, the
form ``LRUEviction`` had before it selected partially.
"""

from __future__ import annotations

import numpy as np

from repro.cache.tier import CacheTier
from repro.utils.validation import check_1d_int_array


class SortLRUEviction:
    """Whole-tier stable argsort of the last-access stamps (oracle for ``LRUEviction``)."""

    name = "lru"

    def select(self, tier, num_victims: int) -> np.ndarray:
        order = np.argsort(tier.resident_last_access, kind="stable")
        return order[:max(num_victims, 0)].astype(np.int64)


class LoopClockEviction:
    """Second-chance sweep, one row per iteration (oracle for ``ClockEviction``)."""

    name = "clock"

    def select(self, tier, num_victims: int) -> np.ndarray:
        size = tier.size
        if size == 0 or num_victims <= 0:
            return np.zeros(0, dtype=np.int64)
        num_victims = min(num_victims, size)
        ref = tier.resident_ref
        victims: set = set()
        hand = tier.clock_hand % size
        for _ in range(2 * size):
            if len(victims) == num_victims:
                break
            if ref[hand]:
                ref[hand] = False
            else:
                victims.add(hand)
            hand = (hand + 1) % size
        tier.clock_hand = hand
        return np.asarray(sorted(victims), dtype=np.int64)


class OracleCacheTier(CacheTier):
    """``CacheTier`` over six reallocated parallel arrays (the pre-slot-store layout)."""

    def _load(self) -> None:  # called by CacheTier.__init__: start empty
        self._ids = np.zeros(0, dtype=np.int64)
        self._rows = np.zeros((0, self.feature_dim), dtype=np.float32)
        self._last_access = np.zeros(0, dtype=np.int64)
        self._freq = np.zeros(0, dtype=np.int64)
        self._ref = np.zeros(0, dtype=bool)
        self._degrees = np.zeros(0, dtype=np.int64)

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

    def lookup(self, global_ids, step):
        global_ids = check_1d_int_array(global_ids, "global_ids")
        self.stats.lookups += int(len(global_ids))
        self.last_step = max(self.last_step, int(step))
        if self.size == 0 or len(global_ids) == 0:
            self.stats.misses += int(len(global_ids))
            if self.scorer is not None and len(global_ids):
                self.scorer.observe(global_ids, step)
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
            self.scorer.observe(global_ids, step)
        return hit_mask, self._rows[hit_idx]

    def contains(self, global_ids):
        global_ids = check_1d_int_array(global_ids, "global_ids")
        if self.size == 0 or len(global_ids) == 0:
            return np.zeros(len(global_ids), dtype=bool)
        idx = np.minimum(np.searchsorted(self._ids, global_ids), self.size - 1)
        return self._ids[idx] == global_ids

    def seed(self, global_ids, rows, step: int = 0) -> None:
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
        self._degrees = self.degrees(self._ids)

    def admit(self, global_ids, rows, step) -> int:
        global_ids = check_1d_int_array(global_ids, "global_ids")
        if len(global_ids) == 0:
            return 0
        self.last_step = max(self.last_step, int(step))
        rows = np.asarray(rows, dtype=np.float32)
        global_ids, first = np.unique(global_ids, return_index=True)
        rows = rows[first]
        fresh = ~self.contains(global_ids)
        global_ids, rows = global_ids[fresh], rows[fresh]
        if len(global_ids) == 0 or self.capacity == 0:
            self.stats.rejections += int(len(global_ids))
            return 0

        degrees = self.degrees(global_ids)
        mask = self.admission.admit(self, global_ids)
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
                keep = np.sort(np.argsort(-degrees, kind="stable")[:room])
                self.stats.rejections += int(len(admitted) - len(keep))
                admitted, rows, degrees = admitted[keep], rows[keep], degrees[keep]
        if len(admitted) == 0:
            return 0
        self._insert(admitted, rows, degrees, step)
        self.stats.admissions += int(len(admitted))
        return int(len(admitted))

    def invalidate(self) -> int:
        dropped = self.size
        self._load()
        self.clock_hand = 0
        self.stats.evictions += dropped
        return dropped

    def resize(self, new_capacity: int, step: int = 0) -> int:
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

    def _remove(self, indices) -> None:
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

    def _insert(self, global_ids, rows, degrees, step) -> None:
        at = np.searchsorted(self._ids, global_ids)
        self._ids = np.insert(self._ids, at, global_ids)
        self._rows = np.insert(self._rows, at, rows, axis=0)
        self._last_access = np.insert(self._last_access, at, step)
        self._freq = np.insert(self._freq, at, 0)
        self._ref = np.insert(self._ref, at, True)
        self._degrees = np.insert(self._degrees, at, degrees)
