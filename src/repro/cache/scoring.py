"""Score-based cache admission/eviction with confidence bounds.

The static tier policies (``static-degree``, ``degree-weighted``) decide from
one frozen feature — degree rank — which the hot-set-drift workloads show is a
weak predictor of a moving working set.  This module replaces the frozen
heuristic with a debuggable scoring layer:

* :class:`PrefetchScorer` maintains **decayed per-node access statistics**
  (recency, frequency, degree, halo distance; no external deps) and computes
  a per-node score in ``[0, 1]`` together with **lower/upper confidence
  bounds** — a UCB-style width that shrinks as a node accumulates decayed
  observations and regrows as they decay away.
* :class:`ScoredAdmission` admits a candidate when its *upper* bound clears
  the resident-score threshold (a low quantile of the resident scores):
  rows that plausibly are hot may displace a resident.
* :class:`ScoredEviction` evicts the residents with the **lowest upper
  bound** — optimism in the face of uncertainty: a row we know little about
  keeps its slot over a row we are confident is cold.

Every admit/reject/evict decision can be recorded as a :class:`ScoreRecord`
(score, bounds, threshold, mode, reason) in the owning tier's ledger; the
``repro explain`` CLI replays a run inside :func:`capture_decisions` and
prints the ledger entries for any node id.  Recording is pure observation —
decisions are identical whether or not the ledger is enabled — and the ledger
itself is bit-identical across same-seed replays.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.utils.validation import sorted_lookup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.tier import CacheTier

# The decayed scorer's constants (see PrefetchScorer).
DECAY = 0.95                               # per-step decay of recency and counts
CONFIDENCE = 0.01                          # UCB width coefficient
DEGREE_SCALE = 16.0                        # degree at which the hub bonus is 0.5
THRESHOLD_QUANTILE = 0.3                   # resident quantile a candidate must clear
WEIGHTS = np.asarray((0.1, 0.1, 0.75, 0.05))  # recency, frequency, degree, halo distance,
WEIGHTS = WEIGHTS / WEIGHTS.sum()             # normalized to sum 1

DistanceLookup = Callable[[np.ndarray], np.ndarray]


# --------------------------------------------------------------------------- #
# Decision records + capture
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScoreRecord:
    """One scored admission/eviction decision for one node.

    ``action`` is ``"admit"``, ``"reject"``, or ``"evict"``; ``threshold`` is
    the resident-score threshold the bound was compared against (``nan`` when
    no comparison happened, e.g. free capacity); ``reason`` is a
    short human-readable clause the ``repro explain`` CLI prints verbatim.
    """

    step: int
    node_id: int
    action: str
    tier: str
    score: float
    lower_bound: float
    upper_bound: float
    threshold: float
    mode: str
    reason: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "step": self.step,
            "node_id": self.node_id,
            "action": self.action,
            "tier": self.tier,
            "score": self.score,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "threshold": self.threshold,
            "mode": self.mode,
            "reason": self.reason,
        }


class DecisionLog:
    """All scored tiers constructed while a capture session is active.

    ``repro explain`` opens a session with :func:`capture_decisions`, replays
    the run, and reads every registered tier's ledger afterwards.  Tiers are
    listed in construction order, which is deterministic (trainers are built
    in rank order), so the (tier_index, record) stream is replay-stable.
    """

    def __init__(self) -> None:
        self.tiers: List["CacheTier"] = []

    def register(self, tier: "CacheTier") -> None:
        self.tiers.append(tier)

    def all_records(self) -> List[Tuple[int, ScoreRecord]]:
        """Every recorded decision as ``(tier_index, record)``, replay order."""
        out: List[Tuple[int, ScoreRecord]] = []
        for index, tier in enumerate(self.tiers):
            for record in tier.ledger:
                out.append((index, record))
        return out

    def records_for(self, node_id: int) -> List[Tuple[int, ScoreRecord]]:
        """The decisions that involved *node_id*, in replay order."""
        return [(i, r) for i, r in self.all_records() if r.node_id == int(node_id)]

    def decision_counts(self) -> Dict[int, int]:
        """``{node_id: number of recorded decisions}`` across all tiers."""
        counts: Dict[int, int] = {}
        for _, record in self.all_records():
            counts[record.node_id] = counts.get(record.node_id, 0) + 1
        return counts


_ACTIVE_LOG: Optional[DecisionLog] = None


def active_decision_log() -> Optional[DecisionLog]:
    """The capture session in effect, if any (tiers self-register into it)."""
    return _ACTIVE_LOG


@contextmanager
def capture_decisions() -> Iterator[DecisionLog]:
    """Context manager: record scored decisions of every tier built inside.

    While active, every :class:`~repro.cache.tier.CacheTier` constructed with
    a scored policy registers itself and enables its ledger — the one way to
    turn the ledger on, and the seam ``repro explain`` uses to observe a
    replay without altering its decisions.
    """
    global _ACTIVE_LOG
    if _ACTIVE_LOG is not None:
        raise RuntimeError("capture_decisions() sessions do not nest")
    log = DecisionLog()
    _ACTIVE_LOG = log
    try:
        yield log
    finally:
        _ACTIVE_LOG = None


# --------------------------------------------------------------------------- #
# The scorer
# --------------------------------------------------------------------------- #
class PrefetchScorer:
    """Per-node scores with confidence bounds from decayed access statistics.

    For node *i* at step *t* the scorer derives four features in ``[0, 1]``:

    * ``recency``  — ``DECAY ** (t - last_access_i)`` (1 when just accessed);
    * ``frequency`` — ``c_i / (c_i + 1)`` where ``c_i`` is the decayed access
      count (``c_i <- c_i * DECAY**dt + occurrences`` on access);
    * ``degree`` — ``deg_i / (deg_i + DEGREE_SCALE)`` (saturating hub bonus)
      from the optional degree lookup (0 without one);
    * ``halo_distance`` — ``1 / distance_i`` from the optional distance
      lookup (1-hop halo rows score 1.0; farther or unknown rows less).

    ``score = WEIGHTS . features``; the fixed weights sum to 1, so the score
    lives in ``[0, 1]``.  The confidence width is UCB-style,
    ``CONFIDENCE * sqrt(log(t + 2) / (c_i + 1))``: tight for nodes with many
    recent (decayed) observations, wide for cold or long-unseen nodes.
    ``lower = max(0, score - width)`` and ``upper = min(1, score + width)``,
    so ``lower <= score <= upper`` always.

    The constants lean on degree (the paper's Fig. 10 signal) with recency and
    frequency as adaptive tiebreaks, and keep the confidence width small so
    decisions are score-driven rather than exploration-driven — the setting
    where the scored policy beats both pure degree heuristics on the
    ``hot-set-drift``/``cache-churn`` benchmarks instead of degenerating into
    LRU (wide bounds make every cold node look admissible and every
    well-observed resident look evictable).
    """

    def __init__(self, distance_of: Optional[DistanceLookup] = None,
                 degree_of: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.distance_of = distance_of
        self.degree_of = degree_of

        self._ids = np.zeros(0, dtype=np.int64)        # sorted
        self._count = np.zeros(0, dtype=np.float64)    # decayed access count
        self._last_step = np.zeros(0, dtype=np.int64)
        self._step = 0                                 # latest observed step

    # ------------------------------------------------------------------ #
    def decayed_count(self, global_ids: np.ndarray, step: Optional[int] = None) -> np.ndarray:
        """The decayed access count of each id as of *step* (0 for unseen ids)."""
        step = self._step if step is None else int(step)
        idx, known = sorted_lookup(self._ids, np.asarray(global_ids, dtype=np.int64))
        out = np.zeros(len(idx), dtype=np.float64)
        if known.any():
            dt = np.maximum(0, step - self._last_step[idx[known]])
            out[known] = self._count[idx[known]] * DECAY ** dt
        return out

    # ------------------------------------------------------------------ #
    def observe(self, global_ids: np.ndarray, step: int) -> None:
        """Fold one lookup's access stream into the decayed statistics.

        Called by the owning tier on every :meth:`~repro.cache.tier.CacheTier.
        lookup`.  Statistics update from the request stream itself — misses
        are observations too, which is what lets a not-yet-resident node
        build up a score worth admitting.
        """
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if len(global_ids) == 0:
            return
        step = int(step)
        self._step = max(self._step, step)
        unique, occurrences = np.unique(global_ids, return_counts=True)
        idx, known = sorted_lookup(self._ids, unique)
        if not known.all():
            self._grow(unique[~known])
            idx, known = sorted_lookup(self._ids, unique)
        dt = np.maximum(0, step - self._last_step[idx])
        self._count[idx] = self._count[idx] * DECAY ** dt + occurrences
        self._last_step[idx] = step

    def score(self, global_ids: np.ndarray,
              step: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(score, lower_bound, upper_bound)`` arrays for *global_ids*."""
        global_ids = np.asarray(global_ids, dtype=np.int64)
        step = self._step if step is None else int(step)
        features = self._features(global_ids, step)
        scores = features @ WEIGHTS
        counts = self.decayed_count(global_ids, step)
        width = CONFIDENCE * np.sqrt(math.log(step + 2) / (counts + 1.0))
        lower = np.maximum(0.0, scores - width)
        upper = np.minimum(1.0, scores + width)
        return scores, lower, upper

    def resident_threshold(self, resident_ids: np.ndarray,
                           step: Optional[int] = None) -> float:
        """The resident-score admission threshold (a low resident quantile).

        Candidates must score at least the ``THRESHOLD_QUANTILE`` (0.3)
        quantile of the residents' scores to displace a resident; an empty
        tier has nothing to defend and thresholds at 0.
        """
        if len(resident_ids) == 0:
            return 0.0
        scores, _, _ = self.score(resident_ids, step)
        return float(np.quantile(scores, THRESHOLD_QUANTILE))

    def nbytes(self) -> int:
        return int(self._ids.nbytes + self._count.nbytes + self._last_step.nbytes)

    # ------------------------------------------------------------------ #
    def _grow(self, new_ids: np.ndarray) -> None:
        at = np.searchsorted(self._ids, new_ids)
        self._ids = np.insert(self._ids, at, new_ids)
        self._count = np.insert(self._count, at, 0.0)
        self._last_step = np.insert(self._last_step, at, self._step)

    def _features(self, global_ids: np.ndarray, step: int) -> np.ndarray:
        """The ``(n, 4)`` feature matrix, one column per ``WEIGHTS`` entry."""
        n = len(global_ids)
        idx, known = sorted_lookup(self._ids, global_ids)
        recency = np.zeros(n, dtype=np.float64)
        if known.any():
            dt = np.maximum(0, step - self._last_step[idx[known]])
            recency[known] = DECAY ** dt
        counts = self.decayed_count(global_ids, step)
        frequency = counts / (counts + 1.0)
        degree = np.zeros(n, dtype=np.float64)
        if self.degree_of is not None and n:
            deg = np.asarray(self.degree_of(global_ids), dtype=np.float64)
            degree = deg / (deg + DEGREE_SCALE)
        distance = np.ones(n, dtype=np.float64)
        if self.distance_of is not None and n:
            dist = np.maximum(1.0, np.asarray(self.distance_of(global_ids), dtype=np.float64))
            distance = 1.0 / dist
        return np.column_stack([recency, frequency, degree, distance])


# --------------------------------------------------------------------------- #
# Scored policies (registered in repro.cache.policies)
# --------------------------------------------------------------------------- #
class ScoredAdmission:
    """Admit when the candidate's upper confidence bound clears the resident threshold.

    Comparing the **upper** bound admits rows that plausibly are hot (the
    ledger names this bound ``conservative``).  Free capacity short-circuits
    the comparison: empty slots cost nothing to fill, and when the offer
    overflows them they go to the best-scoring candidates the bound turned
    away.
    """

    name = "scored"
    requires_scorer = True

    def admit(self, tier: "CacheTier", candidate_ids: np.ndarray) -> np.ndarray:
        scorer = tier.scorer
        assert scorer is not None, "scored admission requires a tier scorer"
        step = tier.last_step
        scores, lower, upper = scorer.score(candidate_ids, step)
        free = tier.capacity - tier.size

        if free >= len(candidate_ids):
            mask = np.ones(len(candidate_ids), dtype=bool)
            tier.record_decisions_batch(
                step, candidate_ids, mask, scores, lower, upper,
                threshold=math.nan, mode="conservative",
                admit_reason="free capacity covers the whole offer",
                reject_reason="",
            )
            return mask

        threshold = scorer.resident_threshold(tier.resident_ids, step)
        mask = upper >= threshold
        if free > 0 and not mask.all():
            # Free slots go to the best-scoring leftovers.
            rejected = np.flatnonzero(~mask)
            order = np.lexsort((rejected, -scores[rejected]))
            mask[rejected[order[:free]]] = True
        tier.record_decisions_batch(
            step, candidate_ids, mask, scores, lower, upper,
            threshold=threshold, mode="conservative",
            admit_reason="upper bound clears the resident-score threshold",
            reject_reason="upper bound below the resident-score threshold",
        )
        return mask


class ScoredEviction:
    """Evict the residents with the lowest upper confidence bound.

    Keeping the row whose upper bound is higher is the optimistic choice: a
    cold-looking row with wide bounds may just be under-observed, while a
    cold-looking row with tight bounds is genuinely cold.  Ties break by
    resident order for determinism.
    """

    name = "scored"
    requires_scorer = True

    def select(self, tier: "CacheTier", num_victims: int) -> np.ndarray:
        size = tier.size
        if size == 0 or num_victims <= 0:
            return np.zeros(0, dtype=np.int64)
        scorer = tier.scorer
        assert scorer is not None, "scored eviction requires a tier scorer"
        step = tier.last_step
        resident = tier.resident_ids
        scores, lower, upper = scorer.score(resident, step)
        order = np.lexsort((np.arange(size), upper))
        victims = order[:min(num_victims, size)].astype(np.int64)
        if tier.recording:
            for v in victims:
                tier.record_decision(ScoreRecord(
                    step=int(step), node_id=int(resident[v]), action="evict",
                    tier=tier.name, score=float(scores[v]),
                    lower_bound=float(lower[v]), upper_bound=float(upper[v]),
                    threshold=math.nan, mode="evict-lowest-upper-bound",
                    reason="lowest upper bound among residents",
                ))
        return victims
