"""The :class:`SearchSpace` over scenario knobs, and candidate strategies.

Every axis is a knob of :data:`repro.scenarios.knobs.AXES` — the one
override language the CLI, presets and ``ClusterScenario.with_overrides``
speak: a top-level field (``rpc``, ``engine``, ``staleness``, ...) or a
dotted sub-config field (``cache.eviction``, ``prefetch.halo_fraction``,
``serving.rate_rps``).  Axis names and values are validated *eagerly* at
space construction, so a typo fails before any candidate runs.

:data:`SEARCH_STRATEGIES` orders the candidates: ``grid`` walks the exact
cartesian product in axis order (seed-independent), ``random`` is a seeded
permutation of that grid — with a budget at least the space size it still
covers every grid point, just in a seed-dependent order.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.scenarios.knobs import axis_spec, parse_axis_values
from repro.training.engines import ENGINES
from repro.utils.registry import Registry
from repro.utils.rng import derive_seed

#: RNG salt for the random search strategy (disjoint from engine/worker salts).
_STRATEGY_SALT = 911


# --------------------------------------------------------------------------- #
# Search space
# --------------------------------------------------------------------------- #
class SearchSpace:
    """An ordered set of named axes, each with a finite value list.

    Axis order is the grid order: ``grid()`` walks the cartesian product with
    the *last* axis varying fastest (``itertools.product`` semantics), which
    is deterministic and seed-independent.  Construction validates axis names
    against :data:`~repro.scenarios.knobs.AXES` and every value against the
    axis's registry or type; duplicate values in one axis are rejected (they
    would produce duplicate grid points).
    """

    def __init__(self, axes: Mapping[str, Sequence]):
        if not axes:
            raise ValueError("a search space needs at least one axis")
        resolved: List[Tuple[str, Tuple[object, ...]]] = []
        for name, values in axes.items():
            spec = axis_spec(name)
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            canonical = tuple(spec.validate_value(v) for v in values)
            if len(set(canonical)) != len(canonical):
                raise ValueError(
                    f"axis {name!r} has duplicate values after canonicalization: "
                    f"{list(canonical)}"
                )
            resolved.append((name, canonical))
        self.axes: Tuple[Tuple[str, Tuple[object, ...]], ...] = tuple(resolved)

    @classmethod
    def parse(cls, items: Sequence[str]) -> "SearchSpace":
        """A space from ``NAME=V1[,V2...]`` strings (``repro tune --axis``)."""
        axes: Dict[str, Tuple[object, ...]] = {}
        for item in items:
            name, sep, values = item.partition("=")
            if not sep:
                raise ValueError(f"--axis expects NAME=V1[,V2...], got {item!r}")
            canonical, parsed = parse_axis_values(name.strip(), values)
            if canonical in axes:
                raise ValueError(f"axis {canonical!r} given more than once")
            axes[canonical] = parsed
        return cls(axes)

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
