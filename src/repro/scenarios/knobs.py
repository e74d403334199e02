"""The one override language for a :class:`~repro.scenarios.registry.ClusterScenario`.

Every knob a caller can turn is an *axis*: a top-level scenario field
(``rpc``, ``engine``, ``staleness``, ``scale``, ...) or a dotted field of a
nested config (``cache.eviction``, ``prefetch.gamma``, ``serving.rate_rps``).
``ClusterScenario.with_overrides``, presets, the tuner's search spaces and
the ``repro`` CLI's flag table all spell a knob by its axis name and set it
through :func:`apply_overrides`, so each override rule is written once, here:

(a) ``cache.*`` on a scenario without a cache recipe selects the
    ``tiered-cache`` pipeline, unless the same call names a pipeline;
(b) an explicit ``cache.eviction`` over a ``static-degree`` admission the
    caller did not choose (a fresh :class:`CacheConfig`'s default) opens
    admission to ``always`` — static-degree admits nothing at runtime, so
    the chosen eviction would never run;
(c) a sync knob (``sync``/``staleness``/``sync_period``) without ``engine``
    selects the event-driven ``async`` engine;
(d) :func:`reject_inert` refuses a knob the resolved scenario never reads
    (run for names typed on the command line; a tuner grid is a cartesian
    product, so it skips this rule);
(e) the removed ``sampler`` knob accepts only ``'vectorized'`` (a no-op) and
    rejects anything else with one message.

Axis values are validated *eagerly*: a registry-valued axis resolves through
its owning registry, so a typo fails before anything runs with that
registry's list-of-valid-names error.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cache.config import CacheConfig
from repro.cache.policies import ADMISSION_POLICIES, CACHE_EVICTION_POLICIES
from repro.core.config import PrefetchConfig
from repro.core.eviction import EVICTION_POLICIES
from repro.distributed.rpc import RPC_CHANNELS
from repro.events.sync import SYNC_POLICIES
from repro.graph.datasets import available_datasets
from repro.serving.arrivals import ARRIVALS
from repro.training.engines import ENGINES
from repro.training.pipelines import PIPELINES, _refuse_unread_cache_config
from repro.utils.registry import Registry


class _Unset:
    """Singleton marker: 'explicitly clear this field to None' in overrides.

    ``with_overrides`` ignores ``None`` (so CLI flags pass through
    unconditionally), which historically made it impossible to *clear* an
    optional field like ``failures`` from a base scenario.  Passing ``UNSET``
    maps the field to ``None`` explicitly.  The singleton survives pickling
    (``__new__`` returns the module instance) so identity checks stay valid.
    """

    _instance = None

    def __new__(cls) -> "_Unset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSET"


UNSET = _Unset()

_SAMPLER_REMOVED = "the 'sampler' knob was removed; 'vectorized' is the only neighbor sampler"


# --------------------------------------------------------------------------- #
# Axes
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AxisSpec:
    """One knob: where it lands and how its values are validated.

    ``target`` selects the config the value is applied to (``scenario`` for a
    top-level :class:`ClusterScenario` field, or one of the nested configs:
    ``cache``/``prefetch``/``serving``); ``field`` is the dataclass field name
    there.  ``kind`` drives value validation: ``registry`` values resolve
    through ``registry`` (canonicalizing aliases), ``choice`` values must be
    one of ``options``, numeric kinds type-check and ``ints`` is a tuple of
    integers (each one checked by its consumer).
    """

    name: str
    kind: str   # "registry" | "choice" | "int" | "float" | "bool" | "ints"
    target: str  # "scenario" | "cache" | "prefetch" | "serving"
    field: str
    registry: Optional[Registry] = None
    options: Tuple[str, ...] = ()

    @property
    def choices(self) -> List[str]:
        """The names a ``registry``/``choice`` axis accepts (canonical only)."""
        return self.registry.names() if self.registry is not None else list(self.options)

    def validate_value(self, value):
        """Canonicalized *value*, or ``ValueError`` naming the axis and choices."""
        if self.kind == "registry":
            if not isinstance(value, str):
                raise ValueError(
                    f"axis {self.name!r} takes {self.registry.kind} names, got {value!r}"
                )
            return self.registry.resolve(value)
        if self.kind == "choice":
            if value not in self.options:
                raise ValueError(
                    f"axis {self.name!r} takes one of {', '.join(self.options)}, got {value!r}"
                )
            return value
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise ValueError(f"axis {self.name!r} takes booleans, got {value!r}")
            return value
        if self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"axis {self.name!r} takes integers, got {value!r}")
            return int(value)
        if self.kind == "float":
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"axis {self.name!r} takes numbers, got {value!r}")
            return float(value)
        if self.kind == "ints":
            if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
                raise ValueError(f"axis {self.name!r} takes a sequence, got {value!r}")
            return tuple(value)
        raise AssertionError(f"unhandled axis kind {self.kind!r}")  # pragma: no cover

    def parse(self, text: str):
        """Parse a CLI-provided string into this axis's value type."""
        if self.kind in ("registry", "choice"):
            return self.validate_value(text)
        if self.kind == "bool":
            lowered = text.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"axis {self.name!r} takes true/false, got {text!r}")
        try:
            if self.kind == "ints":  # space-separated: "fanouts=5 10,10 25"
                return self.validate_value(int(t) for t in text.split())
            return self.validate_value(int(text) if self.kind == "int" else float(text))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"axis {self.name!r} takes {self.kind} values, got {text!r}"
            ) from exc


def _axes() -> Dict[str, AxisSpec]:
    scenario = [
        AxisSpec("dataset", "choice", "scenario", "dataset",
                 options=tuple(available_datasets())),
        AxisSpec("scale", "float", "scenario", "scale"),
        AxisSpec("fanouts", "ints", "scenario", "fanouts"),
        AxisSpec("backend", "choice", "scenario", "backend", options=("cpu", "gpu")),
        AxisSpec("rpc", "registry", "scenario", "rpc", RPC_CHANNELS),
        AxisSpec("engine", "registry", "scenario", "engine", ENGINES),
        AxisSpec("sync", "registry", "scenario", "sync", SYNC_POLICIES),
        AxisSpec("staleness", "int", "scenario", "staleness"),
        AxisSpec("sync_period", "int", "scenario", "sync_period"),
        AxisSpec("batch_size", "int", "scenario", "batch_size"),
        AxisSpec("epochs", "int", "scenario", "epochs"),
        AxisSpec("num_machines", "int", "scenario", "num_machines"),
        AxisSpec("trainers_per_machine", "int", "scenario", "trainers_per_machine"),
        AxisSpec("pipeline", "registry", "scenario", "pipeline", PIPELINES),
    ]
    cache = [
        AxisSpec("cache.tiers", "int", "cache", "tiers"),
        AxisSpec("cache.admission", "registry", "cache", "admission", ADMISSION_POLICIES),
        AxisSpec("cache.eviction", "registry", "cache", "eviction", CACHE_EVICTION_POLICIES),
        AxisSpec("cache.shared_admission", "registry", "cache", "shared_admission",
                 ADMISSION_POLICIES),
        AxisSpec("cache.shared_eviction", "registry", "cache", "shared_eviction",
                 CACHE_EVICTION_POLICIES),
        AxisSpec("cache.adaptive", "bool", "cache", "adaptive"),
        AxisSpec("cache.hot_fraction", "float", "cache", "hot_fraction"),
    ]
    prefetch = [
        AxisSpec("prefetch.halo_fraction", "float", "prefetch", "halo_fraction"),
        AxisSpec("prefetch.gamma", "float", "prefetch", "gamma"),
        AxisSpec("prefetch.delta", "int", "prefetch", "delta"),
        AxisSpec("prefetch.eviction_policy", "registry", "prefetch", "eviction_policy",
                 EVICTION_POLICIES),
        AxisSpec("prefetch.eviction_enabled", "bool", "prefetch", "eviction_enabled"),
    ]
    serving = [
        AxisSpec("serving.arrival", "registry", "serving", "arrival", ARRIVALS),
        AxisSpec("serving.rate_rps", "float", "serving", "rate_rps"),
        AxisSpec("serving.num_requests", "int", "serving", "num_requests"),
        AxisSpec("serving.slo_ms", "float", "serving", "slo_ms"),
        AxisSpec("serving.zipf_alpha", "float", "serving", "zipf_alpha"),
    ]
    return {spec.name: spec for spec in scenario + cache + prefetch + serving}


#: Every knob, by axis name.  The fixed enumeration (rather than arbitrary
#: scenario fields) is what makes eager validation possible: each axis knows
#: its owning registry or value type, so bad names *and* bad values fail
#: before any run.
AXES: Dict[str, AxisSpec] = _axes()

#: The sync knobs of rule (c).
_SYNC_KNOBS = ("sync", "staleness", "sync_period")


def axis_spec(name: str) -> AxisSpec:
    """The :class:`AxisSpec` named *name*; ``ValueError`` listing the valid axes."""
    if name == "sampler":
        raise ValueError(_SAMPLER_REMOVED)
    if not isinstance(name, str) or name not in AXES:
        valid = ", ".join(sorted(AXES))
        raise ValueError(f"unknown tuning axis {name!r}; valid axes: {valid}")
    return AXES[name]


def _is_removed_no_op(name: str, value) -> bool:
    """Rule (e): True for ``sampler='vectorized'``; any other sampler raises."""
    if name != "sampler":
        return False
    if value != "vectorized":
        raise ValueError(_SAMPLER_REMOVED)
    return True


def parse_axis_values(name: str, text: str) -> Tuple[str, Tuple[object, ...]]:
    """Parse a CLI ``--axis name=v1,v2`` value list with axis-aware typing.

    Returns ``(canonical_axis_name, values)``; unknown axes and unparsable
    values raise ``ValueError`` with the same diagnostics as validation.
    """
    spec = axis_spec(name)
    values = tuple(spec.parse(token.strip()) for token in text.split(",") if token.strip())
    if not values:
        raise ValueError(f"axis {name!r} has no values (expected name=v1[,v2...])")
    return spec.name, values


def validate_overrides(overrides: Mapping[str, object]) -> Dict[str, object]:
    """Canonicalize an ``{axis: value}`` mapping, rejecting unknown axes.

    The validation path of presets and the tuner, so a hand-edited preset
    file fails with the same diagnostics as a bad ``--axis`` flag.
    """
    return {
        name: axis_spec(name).validate_value(value)
        for name, value in overrides.items()
        if not _is_removed_no_op(name, value)
    }


def apply_axis_overrides(scenario, overrides: Mapping[str, object]):
    """*scenario* with the ``{axis: value}`` overrides of a preset or tuner candidate."""
    return scenario.with_overrides(**validate_overrides(overrides))


# --------------------------------------------------------------------------- #
# Applying overrides: rules (a)-(c) and (e)
# --------------------------------------------------------------------------- #
def apply_overrides(scenario, overrides: Mapping[str, object]):
    """A copy of *scenario* with *overrides* applied (``ClusterScenario.with_overrides``).

    Names are axis names or top-level scenario fields; ``None`` values are
    ignored and :data:`UNSET` clears a field to ``None``.  Whole nested
    configs (``cache_config=``, ``serving=``, ...) land first and dotted
    axes then edit them, so ``cache_config=CacheConfig(...)`` and
    ``cache.eviction=`` compose in one call.  Resizing ``num_machines`` keeps
    ``compute_multipliers`` aligned, also when both arrive together, so the
    scenario -> preset -> CLI layering composes associatively.
    """
    valid = set(scenario.__dataclass_fields__)
    unknown = sorted(n for n in overrides if n not in valid and n not in AXES and n != "sampler")
    if unknown:
        raise ValueError(f"unknown scenario field(s) {unknown}; valid fields: {sorted(valid)}")

    fields: Dict[str, object] = {}
    nested: Dict[str, Dict[str, object]] = {}
    for name, value in overrides.items():
        if value is None or _is_removed_no_op(name, value):
            continue
        spec = AXES.get(name)
        if spec is None:
            fields[name] = None if value is UNSET else value
        elif spec.target == "scenario":
            fields[name] = spec.validate_value(value)
        else:
            nested.setdefault(spec.target, {})[spec.field] = spec.validate_value(value)

    def base(key: str):
        return fields[key] if key in fields else getattr(scenario, key)

    if "cache" in nested:
        cache, config = nested["cache"], base("cache_config")
        if config is None:  # rule (a)
            config = CacheConfig()
            fields.setdefault("pipeline", "tiered-cache")
        if (cache.get("eviction", "none") != "none" and "admission" not in cache
                and config.admission == "static-degree"):  # rule (b)
            cache["admission"] = "always"
        fields["cache_config"] = replace(config, **cache)
    if "prefetch" in nested:
        fields["prefetch_config"] = replace(
            base("prefetch_config") or PrefetchConfig(), **nested["prefetch"]
        )
    if "serving" in nested:
        if base("serving") is None:
            raise ValueError(
                f"serving.* axes require a serving scenario, but {scenario.name!r} "
                f"has no ServingSpec"
            )
        fields["serving"] = replace(base("serving"), **nested["serving"])
    if "engine" not in fields and any(k in fields for k in _SYNC_KNOBS):  # rule (c)
        fields["engine"] = "async"
    if "num_machines" in fields:
        fields["compute_multipliers"] = _resize(
            fields["num_machines"], base("compute_multipliers")
        )
    return replace(scenario, **fields)


def _resize(num_machines: int, multipliers) -> Optional[Tuple[float, ...]]:
    if multipliers is None:
        return None
    current = tuple(multipliers)
    if len(current) >= num_machines:
        return current[:num_machines]
    return current + (1.0,) * (num_machines - len(current))


# --------------------------------------------------------------------------- #
# Rule (d): a knob the resolved scenario never reads
# --------------------------------------------------------------------------- #
def reject_inert(scenario, names: Iterable[str], spell: Callable[[str], str] = str) -> None:
    """Raise ``ValueError`` if a knob in *names* has no effect on *scenario*.

    *scenario* is the resolved one (overrides applied); *names* are the axes
    the caller set, and ``spell(axis)`` is how the caller typed an axis
    (the ``repro`` CLI passes its flag names).  A staleness or sync period
    the effective sync policy does not read, a prefetch knob on a pipeline
    that takes no ``PrefetchConfig``, a cache knob on one that takes no
    ``CacheConfig``, and a prefetch eviction policy next to
    ``eviction_enabled=False`` would each be silently inert; they are
    rejected — before the scenario is materialized — instead of letting the
    caller believe they measured them.
    """
    names = set(names)
    sync = SYNC_POLICIES.resolve(scenario.sync)
    for knob, policy in (("staleness", "bounded-staleness"), ("sync_period", "local-sgd")):
        if knob in names and sync != policy:
            raise ValueError(
                f"{spell(knob)} only applies to the {policy!r} sync policy "
                f"(effective policy: {sync!r}); pass {spell('sync')} {policy}"
            )
    prefetch = [n for n, spec in AXES.items() if n in names and spec.target == "prefetch"]
    pipeline = PIPELINES.resolve(scenario.pipeline)
    if prefetch and not PIPELINES.get(pipeline).reads_prefetch_config:
        raise ValueError(
            f"{spell(prefetch[0])} has no effect on the {pipeline!r} pipeline (it "
            f"takes no PrefetchConfig); pick another {spell('pipeline')}, or --mode "
            f"both to compare"
        )
    if any(n.startswith("cache.") for n in names):
        _refuse_unread_cache_config(pipeline)
    if {"prefetch.eviction_policy", "prefetch.eviction_enabled"} <= names and (
        not scenario.prefetch_config.eviction_enabled
    ):
        raise ValueError(
            f"{spell('prefetch.eviction_policy')} {scenario.prefetch_config.eviction_policy} "
            f"has no effect with {spell('prefetch.eviction_enabled')} (the policy is never "
            f"consulted); drop one of them"
        )
