"""Presets: frozen, provenance-carrying winners of a tune sweep.

A :class:`Preset` is the committed artifact of ``repro tune --emit-preset``:
the scenario name, the winning axis overrides, and the sweep provenance
(objective, scores, seed, strategy, budget, spec hash) needed to re-derive
it.  Files live under ``presets/<name>.json`` in canonical JSON, so a
re-emitted preset from the same sweep is byte-identical to the committed one.

Loading validates with the same eagerness as the rest of the config layer:
unknown top-level fields are rejected with the valid-field list (the
``with_overrides`` contract), scenario/objective/strategy names resolve
through their registries, and every override is checked by its
:class:`~repro.scenarios.knobs.AxisSpec` — a hand-edited preset fails at load,
not mid-run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.scenarios.knobs import apply_axis_overrides, validate_overrides

_GENERATED_BY = "repro tune"


def default_presets_dir() -> Path:
    """The repository's committed ``presets/`` directory."""
    return Path(__file__).resolve().parents[3] / "presets"


@dataclass(frozen=True)
class Preset:
    """A named, frozen axis-override bundle with full sweep provenance.

    ``overrides`` is stored as a name-sorted tuple of ``(axis, value)`` pairs
    — hashable (so the preset pickles and compares by value) and canonical
    (so the JSON form is order-stable).  Construction validates the scenario,
    objective, and strategy names against their registries and each override
    against its axis spec.
    """

    name: str
    scenario: str
    overrides: Tuple[Tuple[str, object], ...]
    objective: str
    score: Optional[float] = None
    baseline_score: Optional[float] = None
    improvement_percent: Optional[float] = None
    seed: int = 0
    strategy: str = "grid"
    budget: Optional[int] = None
    spec_hash: str = ""
    description: str = ""
    created_by: str = _GENERATED_BY

    def __post_init__(self):
        from repro.scenarios.registry import SCENARIOS
        from repro.tuning.objectives import OBJECTIVES
        from repro.tuning.space import SEARCH_STRATEGIES

        object.__setattr__(self, "scenario", SCENARIOS.resolve(self.scenario))
        object.__setattr__(self, "objective", OBJECTIVES.resolve(self.objective))
        object.__setattr__(self, "strategy",
                           SEARCH_STRATEGIES.resolve(self.strategy))
        canonical = validate_overrides(dict(self.overrides))
        object.__setattr__(
            self, "overrides",
            tuple((name, canonical[name]) for name in sorted(canonical)),
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Preset":
        """Build from a JSON payload, rejecting unknown fields by name."""
        valid = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(payload) - valid)
        if unknown:
            raise ValueError(
                f"unknown preset fields {unknown}; valid fields: {sorted(valid)}"
            )
        payload = dict(payload)
        overrides = payload.get("overrides", {})
        if isinstance(overrides, dict):
            payload["overrides"] = tuple(sorted(overrides.items()))
        else:
            payload["overrides"] = tuple((k, v) for k, v in overrides)
        return cls(**payload)

    @classmethod
    def from_tune(cls, report, name: str, description: str = "") -> "Preset":
        """Freeze the winner of a :class:`~repro.tuning.runner.TuneReport`."""
        best = report.best
        if best is None:
            raise ValueError(
                f"tune report for {report.scenario!r} has no valid candidate "
                f"to freeze as a preset"
            )
        return cls(
            name=name,
            scenario=report.scenario,
            overrides=tuple(sorted(best.overrides)),
            objective=report.objective,
            score=best.score,
            baseline_score=report.baseline_score,
            improvement_percent=best.improvement_percent,
            seed=report.seed,
            strategy=report.strategy,
            budget=report.budget,
            spec_hash=report.spec_hash,
            description=description,
        )

    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON form (overrides as a plain mapping)."""
        return {
            "name": self.name,
            "scenario": self.scenario,
            "overrides": dict(self.overrides),
            "objective": self.objective,
            "score": self.score,
            "baseline_score": self.baseline_score,
            "improvement_percent": self.improvement_percent,
            "seed": self.seed,
            "strategy": self.strategy,
            "budget": self.budget,
            "spec_hash": self.spec_hash,
            "description": self.description,
            "created_by": self.created_by,
        }

    def to_json(self) -> str:
        """Byte-stable file contents — what ``--emit-preset`` writes."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, presets_dir: Optional[Union[str, Path]] = None) -> Path:
        """Write ``<presets_dir>/<name>.json`` and return the path."""
        directory = Path(presets_dir) if presets_dir else default_presets_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.json"
        path.write_text(self.to_json())
        return path

    def apply(self):
        """The preset's scenario with its overrides applied."""
        from repro.scenarios.registry import SCENARIOS

        return apply_axis_overrides(SCENARIOS.build(self.scenario),
                                    dict(self.overrides))


def available_presets(presets_dir: Optional[Union[str, Path]] = None) -> List[str]:
    """Sorted names of the preset files under *presets_dir*."""
    directory = Path(presets_dir) if presets_dir else default_presets_dir()
    if not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.glob("*.json"))


def load_preset(name_or_path: Union[str, Path],
                presets_dir: Optional[Union[str, Path]] = None) -> Preset:
    """Load a preset by committed name or explicit ``.json`` path.

    Unknown names raise ``ValueError`` listing the available presets — the
    registry error contract, applied to files.
    """
    candidate = Path(name_or_path)
    if candidate.suffix == ".json" or candidate.is_file():
        path = candidate
    else:
        directory = Path(presets_dir) if presets_dir else default_presets_dir()
        path = directory / f"{name_or_path}.json"
        if not path.is_file():
            valid = ", ".join(available_presets(directory)) or "(none)"
            raise ValueError(
                f"unknown preset {name_or_path!r}; available presets: {valid}"
            )
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read preset file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"preset file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"preset file {path} must contain a JSON object")
    return Preset.from_dict(payload)
