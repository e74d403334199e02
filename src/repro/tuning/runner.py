"""The tune loop: evaluate candidates, rank them, freeze the report.

:class:`TuneRunner` drives one sweep: a strategy orders the candidates of a
:class:`~repro.tuning.space.SearchSpace`, each candidate is applied to the
base scenario with
:func:`~repro.scenarios.knobs.apply_axis_overrides`, materialized and run at the
shared seed, and scored by the objective.  The baseline (the unmodified
scenario at the same seed) is run first so every candidate carries a signed
improvement.  Candidates whose configuration is rejected by the config layer
or whose report lacks the objective's surface are recorded as ``invalid``
with the error text, not silently dropped.

Determinism: simulated runs are seed-deterministic, candidate order is fixed
by (strategy, seed), and ranking ties break on the canonical JSON of the
override dict — so the same (scenario, space, objective, strategy, budget,
seed) always yields a byte-identical :meth:`TuneReport.canonical_json`.
``parallelism > 1`` fans candidates out over a process pool;
``executor.map`` preserves candidate order, so parallel and serial runs
produce identical reports.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.scenarios.knobs import apply_axis_overrides
from repro.scenarios.registry import SCENARIOS, ClusterScenario
from repro.tuning.objectives import OBJECTIVES, Objective
from repro.tuning.space import SEARCH_STRATEGIES, SearchSpace, default_search_space

_GENERATED_BY = "repro.tuning"


def _canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _overrides_key(overrides: Mapping[str, object]) -> str:
    return json.dumps(dict(overrides), sort_keys=True)


def _evaluate(payload: Tuple[ClusterScenario, Dict[str, object], str, int]):
    """Run one candidate and score it (module-level so process pools pickle it).

    Returns ``(score, None)`` on success or ``(None, error_text)`` when the
    candidate is rejected by config validation or the objective cannot read
    its surface from the produced report.
    """
    scenario, overrides, objective_name, seed = payload
    objective: Objective = OBJECTIVES.build(objective_name)
    try:
        candidate = apply_axis_overrides(scenario, overrides)
        report = candidate.materialize(seed=seed).run()
        return float(objective.score(report)), None
    except ValueError as exc:
        return None, str(exc)


@dataclass(frozen=True)
class CandidateResult:
    """One evaluated candidate: its overrides, score, and rank.

    ``overrides`` is a tuple of ``(axis, value)`` pairs in the space's axis
    order (hashable, so the result pickles and compares by value).  ``rank``
    is 1-based over the ``ok`` candidates; invalid candidates carry
    ``rank=0``, ``score=None`` and the error text.
    """

    rank: int
    overrides: Tuple[Tuple[str, object], ...]
    score: Optional[float]
    improvement_percent: Optional[float]
    status: str = "ok"           # "ok" | "invalid"
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON form of this candidate row."""
        return {
            "rank": self.rank,
            "overrides": dict(self.overrides),
            "score": self.score,
            "improvement_percent": self.improvement_percent,
            "status": self.status,
            "error": self.error,
        }


@dataclass(frozen=True)
class TuneReport:
    """The frozen outcome of one sweep: provenance, baseline, ranked table.

    ``evaluated`` preserves strategy order (it is how tests distinguish the
    seed-independent grid walk from a seed-keyed random permutation);
    ``candidates`` is ranked best-first.  ``spec_hash`` digests the canonical
    sweep spec so a preset can point back at the exact sweep that produced
    it.  :meth:`canonical_json` is the byte-stable serialization the
    differential tests compare.
    """

    scenario: str
    objective: str
    direction: str
    strategy: str
    budget: Optional[int]
    seed: int
    scale: Optional[float]
    epochs: Optional[int]
    space: Tuple[Tuple[str, Tuple[object, ...]], ...]
    baseline_score: Optional[float]
    evaluated: Tuple[Tuple[Tuple[str, object], ...], ...]
    candidates: Tuple[CandidateResult, ...]
    spec_hash: str
    generated_by: str = _GENERATED_BY

    @property
    def best(self) -> Optional[CandidateResult]:
        """The top-ranked valid candidate, or None when every candidate failed."""
        for candidate in self.candidates:
            if candidate.status == "ok":
                return candidate
        return None

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON form (ranked table plus full sweep provenance)."""
        return {
            "scenario": self.scenario,
            "objective": self.objective,
            "direction": self.direction,
            "strategy": self.strategy,
            "budget": self.budget,
            "seed": self.seed,
            "scale": self.scale,
            "epochs": self.epochs,
            "space": [[name, list(values)] for name, values in self.space],
            "baseline_score": self.baseline_score,
            "evaluated": [dict(overrides) for overrides in self.evaluated],
            "candidates": [c.as_dict() for c in self.candidates],
            "spec_hash": self.spec_hash,
            "generated_by": self.generated_by,
        }

    def canonical_json(self) -> str:
        """Byte-stable serialization — what the differential tests compare."""
        return _canonical(self.as_dict())

    def summary(self) -> str:
        """Human-readable ranked table for the CLI."""
        objective = OBJECTIVES.build(self.objective)
        lines = [
            f"tune {self.scenario} · objective {self.objective} "
            f"({self.direction}) · strategy {self.strategy} · seed {self.seed}",
            f"  baseline: {self.baseline_score}",
        ]
        for candidate in self.candidates:
            label = ", ".join(f"{k}={v}" for k, v in candidate.overrides)
            if candidate.status != "ok":
                lines.append(f"  --  {label}  [invalid: {candidate.error}]")
                continue
            gain = (f"{candidate.improvement_percent:+.2f}%"
                    if candidate.improvement_percent is not None else "n/a")
            lines.append(
                f"  #{candidate.rank}  {label}  "
                f"score={candidate.score:.6g} {objective.units}  ({gain})"
            )
        return "\n".join(lines)


def _spec_hash(spec: Dict[str, object]) -> str:
    return hashlib.sha256(_canonical(spec).encode()).hexdigest()[:12]


@dataclass
class TuneRunner:
    """Configure and run one sweep over a scenario's knob surface.

    ``scenario`` is a registered name or a :class:`ClusterScenario`;
    ``scale``/``epochs`` shrink the evaluation workload (applied to the
    baseline and every candidate alike, so improvements compare like with
    like).  ``parallelism > 1`` evaluates candidates across a process pool;
    results are order-preserving and bit-identical to the serial run.
    """

    scenario: Union[str, ClusterScenario]
    objective: Optional[str] = None
    space: Optional[SearchSpace] = None
    strategy: str = "grid"
    budget: Optional[int] = None
    seed: int = 0
    scale: Optional[float] = None
    epochs: Optional[int] = None
    parallelism: int = 1
    _base: ClusterScenario = field(init=False, repr=False)
    _objective: Objective = field(init=False, repr=False)

    def __post_init__(self):
        base = (self.scenario if isinstance(self.scenario, ClusterScenario)
                else SCENARIOS.build(self.scenario))
        base = base.with_overrides(scale=self.scale, epochs=self.epochs)
        if self.objective is None:
            from repro.tuning.objectives import default_objective

            self.objective = default_objective(base)
        self.objective = OBJECTIVES.resolve(self.objective)
        self.strategy = SEARCH_STRATEGIES.resolve(self.strategy)
        if self.space is None:
            self.space = default_search_space(base)
        if self.budget is not None and int(self.budget) < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_objective", OBJECTIVES.build(self.objective))

    # ------------------------------------------------------------------ #
    def _baseline_score(self) -> Optional[float]:
        try:
            report = self._base.materialize(seed=self.seed).run()
            return float(self._objective.score(report))
        except ValueError:
            return None

    def run(self) -> TuneReport:
        """Evaluate every candidate and return the ranked, frozen report."""
        strategy = SEARCH_STRATEGIES.build(self.strategy)
        candidates = strategy.candidates(self.space, budget=self.budget,
                                         seed=self.seed)
        baseline = self._baseline_score()
        payloads = [(self._base, overrides, self.objective, self.seed)
                    for overrides in candidates]
        if self.parallelism > 1 and len(payloads) > 1:
            with ProcessPoolExecutor(max_workers=self.parallelism) as pool:
                outcomes = list(pool.map(_evaluate, payloads))
        else:
            outcomes = [_evaluate(p) for p in payloads]

        axis_order = {name: i for i, name in enumerate(self.space.names())}
        rows: List[Tuple[Dict[str, object], Optional[float], Optional[str]]] = [
            (overrides, score, error)
            for overrides, (score, error) in zip(candidates, outcomes)
        ]
        ok = [r for r in rows if r[1] is not None]
        invalid = [r for r in rows if r[1] is None]
        ok.sort(key=lambda r: (self._objective.sort_key(r[1]),
                               _overrides_key(r[0])))

        def freeze(overrides: Dict[str, object]) -> Tuple[Tuple[str, object], ...]:
            ordered = sorted(overrides, key=lambda n: axis_order[n])
            return tuple((name, overrides[name]) for name in ordered)

        ranked: List[CandidateResult] = []
        for rank, (overrides, score, _) in enumerate(ok, start=1):
            gain = (self._objective.improvement_percent(score, baseline)
                    if baseline is not None else None)
            ranked.append(CandidateResult(
                rank=rank, overrides=freeze(overrides), score=score,
                improvement_percent=gain,
            ))
        for overrides, _, error in invalid:
            ranked.append(CandidateResult(
                rank=0, overrides=freeze(overrides), score=None,
                improvement_percent=None, status="invalid", error=error,
            ))

        spec = {
            "scenario": self._base.name,
            "objective": self.objective,
            "strategy": self.strategy,
            "budget": self.budget,
            "seed": self.seed,
            "scale": self.scale,
            "epochs": self.epochs,
            "space": [[name, list(values)] for name, values in self.space.axes],
        }
        return TuneReport(
            scenario=self._base.name,
            objective=self.objective,
            direction=self._objective.direction,
            strategy=self.strategy,
            budget=self.budget,
            seed=self.seed,
            scale=self.scale,
            epochs=self.epochs,
            space=self.space.axes,
            baseline_score=baseline,
            evaluated=tuple(freeze(o) for o in candidates),
            candidates=tuple(ranked),
            spec_hash=_spec_hash(spec),
        )
