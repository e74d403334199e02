"""Named tuning axes, the :class:`SearchSpace`, and candidate strategies.

Every axis addresses one scenario knob — either a top-level
:class:`~repro.scenarios.registry.ClusterScenario` field (``rpc``,
``engine``, ``staleness``, ...) or a dotted sub-config field
(``cache.eviction``, ``prefetch.halo_fraction``, ``serving.rate_rps``).
Axis names and values are validated *eagerly* at space construction: a
registry-valued axis resolves every value through the owning registry
(:data:`~repro.distributed.rpc.RPC_CHANNELS`,
:data:`~repro.cache.policies.ADMISSION_POLICIES`, ...), so a typo fails
before any candidate runs — the same error contract those registries give
the CLI.

:data:`SEARCH_STRATEGIES` orders the candidates: ``grid`` walks the exact
cartesian product in axis order (seed-independent), ``random`` is a seeded
permutation of that grid — with a budget at least the space size it still
covers every grid point, just in a seed-dependent order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.policies import ADMISSION_POLICIES, CACHE_EVICTION_POLICIES
from repro.cache.scoring import SCORERS
from repro.core.config import PrefetchConfig
from repro.core.eviction import EVICTION_POLICIES
from repro.distributed.rpc import RPC_CHANNELS
from repro.events.sync import SYNC_POLICIES
from repro.serving.arrivals import ARRIVALS
from repro.training.engines import ENGINES
from repro.utils.registry import Registry
from repro.utils.rng import derive_seed

#: RNG salt for the random search strategy (disjoint from engine/worker salts).
_STRATEGY_SALT = 911


# --------------------------------------------------------------------------- #
# Axes
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AxisSpec:
    """One tunable knob: where it lands and how its values are validated.

    ``target`` selects the config the value is applied to (``scenario`` for a
    top-level :class:`ClusterScenario` field, or one of the nested configs:
    ``cache``/``prefetch``/``serving``); ``field`` is the dataclass field name
    there.  ``kind`` drives value validation: ``registry`` values resolve
    through ``registry`` (canonicalizing aliases), numeric kinds type-check.
    """

    name: str
    kind: str                       # "registry" | "int" | "float" | "bool"
    target: str                     # "scenario" | "cache" | "prefetch" | "serving"
    field: str
    registry: Optional[Registry] = None

    def validate_value(self, value):
        """Canonicalized *value*, or ``ValueError`` naming the axis and choices."""
        if self.kind == "registry":
            if not isinstance(value, str):
                raise ValueError(
                    f"axis {self.name!r} takes {self.registry.kind} names, "
                    f"got {value!r}"
                )
            return self.registry.resolve(value)
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise ValueError(f"axis {self.name!r} takes booleans, got {value!r}")
            return value
        if self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"axis {self.name!r} takes integers, got {value!r}")
            return int(value)
        if self.kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"axis {self.name!r} takes numbers, got {value!r}")
            return float(value)
        raise AssertionError(f"unhandled axis kind {self.kind!r}")  # pragma: no cover

    def parse(self, text: str):
        """Parse a CLI-provided string into this axis's value type."""
        if self.kind == "registry":
            return self.validate_value(text)
        if self.kind == "bool":
            lowered = text.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"axis {self.name!r} takes true/false, got {text!r}")
        try:
            return self.validate_value(
                int(text) if self.kind == "int" else float(text)
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"axis {self.name!r} takes {self.kind} values, got {text!r}"
            ) from exc


def _axes() -> Dict[str, AxisSpec]:
    scenario = [
        AxisSpec("rpc", "registry", "scenario", "rpc", RPC_CHANNELS),
        AxisSpec("engine", "registry", "scenario", "engine", ENGINES),
        AxisSpec("sync", "registry", "scenario", "sync", SYNC_POLICIES),
        AxisSpec("staleness", "int", "scenario", "staleness"),
        AxisSpec("sync_period", "int", "scenario", "sync_period"),
        AxisSpec("batch_size", "int", "scenario", "batch_size"),
        AxisSpec("epochs", "int", "scenario", "epochs"),
        AxisSpec("num_machines", "int", "scenario", "num_machines"),
        AxisSpec("trainers_per_machine", "int", "scenario", "trainers_per_machine"),
        AxisSpec("pipeline", "str", "scenario", "pipeline"),
    ]
    cache = [
        AxisSpec("cache.tiers", "int", "cache", "tiers"),
        AxisSpec("cache.admission", "registry", "cache", "admission",
                 ADMISSION_POLICIES),
        AxisSpec("cache.eviction", "registry", "cache", "eviction",
                 CACHE_EVICTION_POLICIES),
        AxisSpec("cache.shared_admission", "registry", "cache", "shared_admission",
                 ADMISSION_POLICIES),
        AxisSpec("cache.shared_eviction", "registry", "cache", "shared_eviction",
                 CACHE_EVICTION_POLICIES),
        AxisSpec("cache.scorer", "registry", "cache", "scorer", SCORERS),
        AxisSpec("cache.adaptive", "bool", "cache", "adaptive"),
        AxisSpec("cache.hot_fraction", "float", "cache", "hot_fraction"),
    ]
    prefetch = [
        AxisSpec("prefetch.halo_fraction", "float", "prefetch", "halo_fraction"),
        AxisSpec("prefetch.gamma", "float", "prefetch", "gamma"),
        AxisSpec("prefetch.delta", "int", "prefetch", "delta"),
        AxisSpec("prefetch.eviction_policy", "registry", "prefetch",
                 "eviction_policy", EVICTION_POLICIES),
    ]
    serving = [
        AxisSpec("serving.arrival", "registry", "serving", "arrival", ARRIVALS),
        AxisSpec("serving.rate_rps", "float", "serving", "rate_rps"),
        AxisSpec("serving.num_requests", "int", "serving", "num_requests"),
        AxisSpec("serving.slo_ms", "float", "serving", "slo_ms"),
        AxisSpec("serving.zipf_alpha", "float", "serving", "zipf_alpha"),
    ]
    return {spec.name: spec for spec in scenario + cache + prefetch + serving}


#: Every tunable axis, by name.  The fixed enumeration (rather than arbitrary
#: scenario fields) is what makes eager validation possible: each axis knows
#: its owning registry or numeric type, so bad names *and* bad values fail at
#: space construction, before any candidate run.
AXES: Dict[str, AxisSpec] = _axes()

# "pipeline" is registry-valued but PIPELINES lives above this module's
# import layer only at runtime; resolve it lazily to the same error contract.
def _validate_pipeline(value):
    from repro.training.pipelines import PIPELINES

    if not isinstance(value, str):
        raise ValueError(f"axis 'pipeline' takes pipeline names, got {value!r}")
    return PIPELINES.resolve(value)


def _resolve_axis(name: str) -> AxisSpec:
    if name == "sampler":
        raise ValueError(
            "tuning axis 'sampler' was removed; 'vectorized' is the only neighbor sampler"
        )
    if not isinstance(name, str) or name not in AXES:
        valid = ", ".join(sorted(AXES))
        raise ValueError(f"unknown tuning axis {name!r}; valid axes: {valid}")
    return AXES[name]


def parse_axis_values(name: str, text: str) -> Tuple[str, Tuple[object, ...]]:
    """Parse a CLI ``--axis name=v1,v2`` value list with axis-aware typing.

    Returns ``(canonical_axis_name, values)``; unknown axes and unparsable
    values raise ``ValueError`` with the same diagnostics as space
    construction.
    """
    spec = _resolve_axis(name)
    values: List[object] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if spec.kind == "str":
            values.append(_validate_pipeline(token))
        else:
            values.append(spec.parse(token))
    if not values:
        raise ValueError(f"axis {name!r} has no values (expected name=v1[,v2...])")
    return spec.name, tuple(values)


def validate_overrides(overrides: Mapping[str, object]) -> Dict[str, object]:
    """Canonicalize an ``{axis: value}`` mapping, rejecting unknown axes.

    The single validation path shared by :class:`SearchSpace` construction and
    :class:`~repro.tuning.presets.Preset` loading, so a hand-edited preset
    file fails with the same diagnostics as a bad ``--axis`` flag.
    """
    canonical: Dict[str, object] = {}
    for name, value in overrides.items():
        spec = _resolve_axis(name)
        if spec.kind == "str":  # the lazily validated "pipeline" axis
            canonical[name] = _validate_pipeline(value)
        else:
            canonical[name] = spec.validate_value(value)
    return canonical


# --------------------------------------------------------------------------- #
# Search space
# --------------------------------------------------------------------------- #
class SearchSpace:
    """An ordered set of named axes, each with a finite value list.

    Axis order is the grid order: ``grid()`` walks the cartesian product with
    the *last* axis varying fastest (``itertools.product`` semantics), which
    is deterministic and seed-independent.  Construction validates axis names
    against :data:`AXES` and every value against the axis's registry or type;
    duplicate values in one axis are rejected (they would produce duplicate
    grid points).
    """

    def __init__(self, axes: Mapping[str, Sequence]):
        if not axes:
            raise ValueError("a search space needs at least one axis")
        resolved: List[Tuple[str, Tuple[object, ...]]] = []
        for name, values in axes.items():
            spec = _resolve_axis(name)
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            if spec.kind == "str":
                canonical = tuple(_validate_pipeline(v) for v in values)
            else:
                canonical = tuple(spec.validate_value(v) for v in values)
            if len(set(canonical)) != len(canonical):
                raise ValueError(
                    f"axis {name!r} has duplicate values after canonicalization: "
                    f"{list(canonical)}"
                )
            resolved.append((name, canonical))
        self.axes: Tuple[Tuple[str, Tuple[object, ...]], ...] = tuple(resolved)

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of grid points (product of the axis value counts)."""
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size

    def names(self) -> List[str]:
        """Axis names, in grid (declaration) order."""
        return [name for name, _ in self.axes]

    def grid(self) -> List[Dict[str, object]]:
        """Every axis combination, in deterministic grid order."""
        names = [name for name, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        return [dict(zip(names, combo)) for combo in itertools.product(*value_lists)]

    def as_dict(self) -> List[List[object]]:
        """JSON form: ``[[axis, [values...]], ...]`` preserving grid order."""
        return [[name, list(values)] for name, values in self.axes]

    def describe(self) -> str:
        """Compact one-line label (CLI headers and bench logs)."""
        parts = [f"{name}={{{', '.join(str(v) for v in values)}}}"
                 for name, values in self.axes]
        return " x ".join(parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, SearchSpace) and self.axes == other.axes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SearchSpace({self.describe()})"


def default_search_space(scenario) -> SearchSpace:
    """The out-of-the-box space for a scenario's execution kind.

    Training scenarios sweep the execution/sync/RPC seams (the knobs that move
    critical path); serving scenarios sweep capacity and hot-tier eviction
    (the knobs that move the latency tail).  Both are deliberately small —
    ``repro tune --axis`` overrides them for anything bespoke.
    """
    if ENGINES.resolve(scenario.engine) == "serving":
        return SearchSpace({
            "trainers_per_machine": (2, 3),
            "cache.eviction": ("lru", "clock"),
        })
    return SearchSpace({
        "engine": ("async",),
        "sync": ("allreduce-barrier", "bounded-staleness"),
        "staleness": (1, 2),
        "rpc": ("per-call", "batched"),
    })


# --------------------------------------------------------------------------- #
# Applying axis overrides to a scenario
# --------------------------------------------------------------------------- #
def apply_axis_overrides(scenario, overrides: Mapping[str, object]):
    """A new :class:`ClusterScenario` with the axis values applied.

    Top-level axes route through ``scenario.with_overrides`` (unknown-field
    rejection included); dotted axes rebuild the nested config
    (:class:`CacheConfig` / :class:`PrefetchConfig` / :class:`ServingSpec`)
    with each config's own eager validation.  ``cache.*`` axes on a scenario
    with no cache config also select the ``tiered-cache`` pipeline — the same
    auto-selection ``repro run --cache-tiers`` performs — so the tuned tiers
    are actually in the data path.
    """
    overrides = validate_overrides(overrides)
    grouped: Dict[str, Dict[str, object]] = {}
    for name, value in overrides.items():
        spec = AXES[name]
        grouped.setdefault(spec.target, {})[spec.field] = value

    fields: Dict[str, object] = dict(grouped.get("scenario", {}))
    if "cache" in grouped:
        base = scenario.cache_config
        if base is None:
            base = CacheConfig()
            fields.setdefault("pipeline", "tiered-cache")
        fields["cache_config"] = replace(base, **grouped["cache"])
    if "prefetch" in grouped:
        base = scenario.prefetch_config or PrefetchConfig()
        fields["prefetch_config"] = replace(base, **grouped["prefetch"])
    if "serving" in grouped:
        if scenario.serving is None:
            raise ValueError(
                f"serving.* axes require a serving scenario, but "
                f"{scenario.name!r} has no ServingSpec"
            )
        fields["serving"] = replace(scenario.serving, **grouped["serving"])
    return scenario.with_overrides(**fields) if fields else scenario


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
SEARCH_STRATEGIES = Registry("search strategy")


@SEARCH_STRATEGIES.register("grid", aliases=("exhaustive",))
class GridStrategy:
    """Exhaustive sweep: the grid in deterministic axis order, budget-truncated."""

    name = "grid"

    def candidates(self, space: SearchSpace, budget: Optional[int] = None,
                   seed: int = 0) -> List[Dict[str, object]]:
        """The first *budget* grid points (all of them when budget is None)."""
        points = space.grid()
        return points if budget is None else points[: max(0, int(budget))]


@SEARCH_STRATEGIES.register("random", aliases=("seeded-random", "shuffle"))
class RandomStrategy:
    """Seeded sampling without replacement: a permutation of the grid.

    With ``budget >= space.size`` every grid point is still visited (the
    permutation is exhaustive), so a generous random budget never silently
    skips configurations — only the visit order depends on the seed.
    """

    name = "random"

    def candidates(self, space: SearchSpace, budget: Optional[int] = None,
                   seed: int = 0) -> List[Dict[str, object]]:
        """A seed-keyed permutation of the grid, budget-truncated."""
        points = space.grid()
        rng = np.random.default_rng(derive_seed(seed, _STRATEGY_SALT))
        order = rng.permutation(len(points))
        shuffled = [points[i] for i in order]
        return shuffled if budget is None else shuffled[: max(0, int(budget))]
