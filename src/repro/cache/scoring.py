"""Score-based cache admission/eviction with confidence bounds.

The static tier policies (``static-degree``, ``degree-weighted``) decide from
one frozen feature — degree rank — which the hot-set-drift workloads show is a
weak predictor of a moving working set.  This module replaces the frozen
heuristic with a learned, debuggable scoring layer:

* :class:`PrefetchScorer` maintains **decayed per-node access statistics**
  (recency, frequency, degree, halo distance; no external deps) and computes
  a per-node score in ``[0, 1]`` together with **lower/upper confidence
  bounds** — a UCB-style width that shrinks as a node accumulates decayed
  observations and regrows as they decay away.
* :class:`ScoredAdmission` admits a candidate when its bound clears the
  resident-score threshold (a low quantile of the resident scores), under one
  of three modes: ``strict`` compares the candidate's *lower* bound (admit
  only on strong evidence), ``conservative`` its *upper* bound (admit on
  plausible evidence), and ``bypass`` admits everything.  By construction
  ``strict`` admits a subset of ``conservative`` admits a subset of
  ``bypass`` — the monotonicity property the tests pin.
* :class:`ScoredEviction` evicts the residents with the **lowest upper
  bound** — optimism in the face of uncertainty: a row we know little about
  keeps its slot over a row we are confident is cold.
* The **online-learned variant** (``scored-online``) re-weights the scorer's
  features at every epoch boundary from the interval's observed hit/miss
  feature averages, shifting weight toward whichever features discriminated
  hits from misses in the last interval.

Every admit/reject/evict decision can be recorded as a :class:`ScoreRecord`
(score, bounds, threshold, mode, reason) in the owning tier's ledger; the
``repro explain`` CLI replays a run inside :func:`capture_decisions` and
prints the ledger entries for any node id.  Recording is pure observation —
decisions are identical whether or not the ledger is enabled — and the ledger
itself is bit-identical across same-seed replays.

Custom scorers register in :data:`SCORERS` (see docs/EXTENDING.md) and are
selected per-tier via :class:`~repro.cache.config.CacheConfig`'s ``scorer``
field.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.utils.registry import Registry
from repro.utils.validation import sorted_lookup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.tier import CacheTier

FEATURE_NAMES = ("recency", "frequency", "degree", "halo_distance")

DistanceLookup = Callable[[np.ndarray], np.ndarray]


# --------------------------------------------------------------------------- #
# Decision records + capture
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScoreRecord:
    """One scored admission/eviction decision for one node.

    ``action`` is ``"admit"``, ``"reject"``, or ``"evict"``; ``threshold`` is
    the resident-score threshold the bound was compared against (``nan`` when
    no comparison happened, e.g. free capacity or ``bypass``); ``reason`` is a
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

    def as_tuple(self) -> Tuple:
        """Canonical tuple for bit-identical ledger comparison in tests."""
        return (
            self.step, self.node_id, self.action, self.tier, self.score,
            self.lower_bound, self.upper_bound, self.threshold, self.mode,
            self.reason,
        )


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
    a scored policy registers itself and enables its ledger, regardless of the
    config's ``record_decisions`` flag — the seam ``repro explain`` uses to
    observe a replay without altering its decisions.
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

    * ``recency``  — ``decay ** (t - last_access_i)`` (1 when just accessed);
    * ``frequency`` — ``c_i / (c_i + 1)`` where ``c_i`` is the decayed access
      count (``c_i <- c_i * decay**dt + occurrences`` on access);
    * ``degree`` — ``deg_i / (deg_i + degree_scale)`` (saturating hub bonus);
    * ``halo_distance`` — ``1 / distance_i`` from the optional distance
      lookup (1-hop halo rows score 1.0; farther or unknown rows less).

    ``score = w . features`` with weights normalized to sum 1, so the score
    lives in ``[0, 1]``.  The confidence width is UCB-style,
    ``confidence * sqrt(log(t + 2) / (c_i + 1))``: tight for nodes with many
    recent (decayed) observations, wide for cold or long-unseen nodes.
    ``lower = max(0, score - width)`` and ``upper = min(1, score + width)``,
    so ``lower <= score <= upper`` always.

    With ``online=True``, :meth:`end_epoch` nudges the weights toward the
    features that discriminated interval hits from interval misses — a
    deterministic, dependency-free learned variant.

    The defaults lean on degree (the paper's Fig. 10 signal) with recency and
    frequency as adaptive tiebreaks, and keep the confidence width small so
    decisions are score-driven rather than exploration-driven — the setting
    where the scored policy beats both pure degree heuristics on the
    ``hot-set-drift``/``cache-churn`` benchmarks instead of degenerating into
    LRU (wide bounds make every cold node look admissible and every
    well-observed resident look evictable).
    """

    name = "decayed"

    def __init__(
        self,
        decay: float = 0.95,
        confidence: float = 0.01,
        weights: Tuple[float, float, float, float] = (0.1, 0.1, 0.75, 0.05),
        degree_scale: float = 16.0,
        threshold_quantile: float = 0.3,
        learning_rate: float = 0.3,
        online: bool = False,
        distance_of: Optional[DistanceLookup] = None,
    ):
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        if confidence < 0.0:
            raise ValueError(f"confidence must be >= 0, got {confidence}")
        if len(weights) != len(FEATURE_NAMES):
            raise ValueError(f"need {len(FEATURE_NAMES)} feature weights, got {len(weights)}")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("weights must be non-negative with a positive sum")
        if not 0.0 <= threshold_quantile <= 1.0:
            raise ValueError(f"threshold_quantile must be in [0, 1], got {threshold_quantile}")
        if not 0.0 <= learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in [0, 1], got {learning_rate}")
        self.decay = float(decay)
        self.confidence = float(confidence)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.weights /= self.weights.sum()
        self.degree_scale = float(degree_scale)
        self.threshold_quantile = float(threshold_quantile)
        self.learning_rate = float(learning_rate)
        self.online = bool(online)
        self.distance_of = distance_of
        self.epochs_learned = 0

        self._ids = np.zeros(0, dtype=np.int64)        # sorted
        self._count = np.zeros(0, dtype=np.float64)    # decayed access count
        self._last_step = np.zeros(0, dtype=np.int64)
        self._step = 0                                 # latest observed step
        # Online-learning accumulators: per-feature sums over the interval.
        self._hit_feature_sum = np.zeros(len(FEATURE_NAMES), dtype=np.float64)
        self._miss_feature_sum = np.zeros(len(FEATURE_NAMES), dtype=np.float64)
        self._hit_obs = 0
        self._miss_obs = 0

    # ------------------------------------------------------------------ #
    def decayed_count(self, global_ids: np.ndarray, step: Optional[int] = None) -> np.ndarray:
        """The decayed access count of each id as of *step* (0 for unseen ids)."""
        step = self._step if step is None else int(step)
        idx, known = sorted_lookup(self._ids, np.asarray(global_ids, dtype=np.int64))
        out = np.zeros(len(idx), dtype=np.float64)
        if known.any():
            dt = np.maximum(0, step - self._last_step[idx[known]])
            out[known] = self._count[idx[known]] * self.decay ** dt
        return out

    # ------------------------------------------------------------------ #
    def observe(self, global_ids: np.ndarray, step: int, hit_mask: np.ndarray) -> None:
        """Fold one lookup's access stream into the decayed statistics.

        Called by the owning tier on every :meth:`~repro.cache.tier.CacheTier.
        lookup`; *hit_mask* marks which requested rows the tier served (the
        online learner's supervision signal).  Statistics update from the
        request stream itself — misses are observations too, which is what
        lets a not-yet-resident node build up a score worth admitting.
        """
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if len(global_ids) == 0:
            return
        step = int(step)
        self._step = max(self._step, step)
        if self.online:
            # Feature snapshot BEFORE the update: the decision-relevant view.
            features = self._features(global_ids, step)
            hits = np.asarray(hit_mask, dtype=bool)
            self._hit_feature_sum += features[hits].sum(axis=0)
            self._miss_feature_sum += features[~hits].sum(axis=0)
            self._hit_obs += int(hits.sum())
            self._miss_obs += int((~hits).sum())

        unique, occurrences = np.unique(global_ids, return_counts=True)
        idx, known = sorted_lookup(self._ids, unique)
        if not known.all():
            self._grow(unique[~known])
            idx, known = sorted_lookup(self._ids, unique)
        dt = np.maximum(0, step - self._last_step[idx])
        self._count[idx] = self._count[idx] * self.decay ** dt + occurrences
        self._last_step[idx] = step

    def score(self, global_ids: np.ndarray,
              step: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(score, lower_bound, upper_bound)`` arrays for *global_ids*."""
        global_ids = np.asarray(global_ids, dtype=np.int64)
        step = self._step if step is None else int(step)
        features = self._features(global_ids, step)
        scores = features @ self.weights
        counts = self.decayed_count(global_ids, step)
        width = self.confidence * np.sqrt(math.log(step + 2) / (counts + 1.0))
        lower = np.maximum(0.0, scores - width)
        upper = np.minimum(1.0, scores + width)
        return scores, lower, upper

    def resident_threshold(self, resident_ids: np.ndarray,
                           step: Optional[int] = None) -> float:
        """The resident-score admission threshold (a low resident quantile).

        Candidates must look at least as promising as the tier's weakest
        decile to displace a resident; an empty tier has nothing to defend
        and thresholds at 0.
        """
        if len(resident_ids) == 0:
            return 0.0
        scores, _, _ = self.score(resident_ids, step)
        return float(np.quantile(scores, self.threshold_quantile))

    # ------------------------------------------------------------------ #
    def end_epoch(self) -> Optional[np.ndarray]:
        """Online weight update from the interval's hit/miss feature averages.

        Shifts weight toward features whose interval mean was higher among
        hits than among misses (the features that *predicted* residency being
        worthwhile), then renormalizes.  Returns the new weights, or ``None``
        when learning is off or the interval carried no traffic — which also
        makes the hook idempotent when several trainers share one scorer
        through a machine-shared tier (the first caller consumes the
        interval, later callers see it empty).
        """
        had_traffic = (self._hit_obs + self._miss_obs) > 0
        if not had_traffic:
            return None
        hit_mean = (self._hit_feature_sum / self._hit_obs
                    if self._hit_obs else np.zeros(len(FEATURE_NAMES)))
        miss_mean = (self._miss_feature_sum / self._miss_obs
                     if self._miss_obs else np.zeros(len(FEATURE_NAMES)))
        self._hit_feature_sum[:] = 0.0
        self._miss_feature_sum[:] = 0.0
        self._hit_obs = 0
        self._miss_obs = 0
        if not self.online:
            return None
        # Positive part of the discrimination, floored so no weight dies.
        advantage = np.maximum(hit_mean - miss_mean, 0.0) + 1e-3
        target = advantage / advantage.sum()
        self.weights = (1.0 - self.learning_rate) * self.weights + self.learning_rate * target
        self.weights /= self.weights.sum()
        self.epochs_learned += 1
        return self.weights.copy()

    def nbytes(self) -> int:
        return int(self._ids.nbytes + self._count.nbytes + self._last_step.nbytes)

    # ------------------------------------------------------------------ #
    def _grow(self, new_ids: np.ndarray) -> None:
        at = np.searchsorted(self._ids, new_ids)
        self._ids = np.insert(self._ids, at, new_ids)
        self._count = np.insert(self._count, at, 0.0)
        self._last_step = np.insert(self._last_step, at, self._step)

    def _features(self, global_ids: np.ndarray, step: int) -> np.ndarray:
        """The ``(n, 4)`` feature matrix (columns follow FEATURE_NAMES)."""
        n = len(global_ids)
        idx, known = sorted_lookup(self._ids, global_ids)
        recency = np.zeros(n, dtype=np.float64)
        if known.any():
            dt = np.maximum(0, step - self._last_step[idx[known]])
            recency[known] = self.decay ** dt
        counts = self.decayed_count(global_ids, step)
        frequency = counts / (counts + 1.0)
        degree = np.zeros(n, dtype=np.float64)
        if self._degree_of is not None and n:
            deg = np.asarray(self._degree_of(global_ids), dtype=np.float64)
            degree = deg / (deg + self.degree_scale)
        distance = np.ones(n, dtype=np.float64)
        if self.distance_of is not None and n:
            dist = np.maximum(1.0, np.asarray(self.distance_of(global_ids), dtype=np.float64))
            distance = 1.0 / dist
        return np.column_stack([recency, frequency, degree, distance])

    # The degree lookup is bound by the owning tier at construction so one
    # scorer definition serves tiers over different partitions.
    _degree_of: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def bind_degree_lookup(self, degree_of: Optional[Callable[[np.ndarray], np.ndarray]]) -> None:
        """Attach the owning tier's global-id -> degree lookup."""
        self._degree_of = degree_of


SCORERS = Registry("cache scorer")
SCORERS.register("decayed", PrefetchScorer, aliases=("default", "ucb"))


def build_scorer(name: str, **kwargs) -> PrefetchScorer:
    """Build a registered scorer by name (see :data:`SCORERS`)."""
    return SCORERS.build(name, **kwargs)


# --------------------------------------------------------------------------- #
# Scored policies (registered in repro.cache.policies)
# --------------------------------------------------------------------------- #
ADMISSION_MODES = ("strict", "conservative", "bypass")


class ScoredAdmission:
    """Admit when the candidate's confidence bound clears the resident threshold.

    ``strict`` compares the candidate's **lower** bound against the threshold
    (admit only rows we are confident are hot), ``conservative`` its **upper**
    bound (admit rows that merely might be hot), ``bypass`` admits everything.
    Since ``lower <= upper``, every ``strict`` admit is a ``conservative``
    admit and every ``conservative`` admit is a ``bypass`` admit.  Free
    capacity short-circuits the comparison: empty slots cost nothing to fill.
    """

    requires_scorer = True

    def __init__(self, mode: str = "conservative", online: bool = False):
        if mode not in ADMISSION_MODES:
            raise ValueError(f"mode must be one of {ADMISSION_MODES}, got {mode!r}")
        self.mode = mode
        self.online = bool(online)
        self.name = "scored-online" if online else "scored"

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
                threshold=math.nan, mode=self.mode,
                admit_reason="free capacity covers the whole offer",
                reject_reason="",
            )
            return mask

        threshold = scorer.resident_threshold(tier.resident_ids, step)
        if self.mode == "bypass":
            mask = np.ones(len(candidate_ids), dtype=bool)
            reason = "bypass mode admits every candidate"
        elif self.mode == "strict":
            mask = lower >= threshold
            reason = "lower bound clears the resident-score threshold"
        else:  # conservative
            mask = upper >= threshold
            reason = "upper bound clears the resident-score threshold"
        if free > 0 and not mask.all():
            # Mode-independent: free slots go to the best-scoring leftovers,
            # so strict/conservative/bypass admit sets stay nested.
            rejected = np.flatnonzero(~mask)
            order = np.lexsort((rejected, -scores[rejected]))
            mask[rejected[order[:free]]] = True
        bound = "lower" if self.mode == "strict" else "upper"
        tier.record_decisions_batch(
            step, candidate_ids, mask, scores, lower, upper,
            threshold=threshold, mode=self.mode,
            admit_reason=reason,
            reject_reason=f"{bound} bound below the resident-score threshold",
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
