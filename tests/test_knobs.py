"""The override rules of ``repro.scenarios.knobs``, each written once.

``ClusterScenario.with_overrides``, presets, the tuner and the CLI flag table
all set a knob by its axis name through ``apply_overrides``; these tests pin
the rules on that one function (the CLI-facing misuse rows live in
``tests/test_trace_cli.py``).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.scenarios import SCENARIOS, UNSET
from repro.scenarios.knobs import AXES, apply_axis_overrides, reject_inert

UNIFORM = SCENARIOS.build("uniform")


def test_every_axis_names_a_field_of_its_target():
    targets = {
        "scenario": UNIFORM,
        "cache": CacheConfig(),
        "prefetch": PrefetchConfig(),
        "serving": SCENARIOS.build("steady-poisson").serving,
    }
    for name, spec in AXES.items():
        assert spec.field in targets[spec.target].__dataclass_fields__, name
        assert name == (spec.field if spec.target == "scenario" else f"{spec.target}.{spec.field}")


def test_dotted_names_edit_nested_configs():
    scenario = UNIFORM.with_overrides(**{"prefetch.gamma": 0.9, "prefetch.delta": 4})
    assert scenario.prefetch_config == replace(UNIFORM.prefetch_config, gamma=0.9, delta=4)
    serving = SCENARIOS.build("steady-poisson")
    assert serving.with_overrides(**{"serving.rate_rps": 900}).serving == replace(
        serving.serving, rate_rps=900.0
    )


def test_whole_config_lands_before_its_dotted_fields():
    scenario = UNIFORM.with_overrides(
        cache_config=CacheConfig(hot_fraction=0.25),
        **{"cache.tiers": 2, "cache.admission": "scored"},
    )
    assert scenario.cache_config == CacheConfig(tiers=2, admission="scored", hot_fraction=0.25)
    # The object came with the call, so no pipeline is auto-selected.
    assert scenario.pipeline == UNIFORM.pipeline


def test_cache_knob_selects_tiered_cache_unless_a_pipeline_is_given():
    assert UNIFORM.with_overrides(**{"cache.tiers": 2}).pipeline == "tiered-cache"
    # A named pipeline is kept, so one that reads no cache is refused when it
    # is built instead of being swapped for tiered-cache.
    chosen = UNIFORM.with_overrides(pipeline="baseline", **{"cache.tiers": 2})
    assert chosen.pipeline == "baseline" and chosen.cache_config.tiers == 2


def test_sync_knob_without_engine_selects_async():
    for knob in ({"sync": "local-sgd"}, {"staleness": 2}, {"sync_period": 2}):
        assert UNIFORM.with_overrides(**knob).engine == "async"
    explicit = UNIFORM.with_overrides(engine="lockstep", sync="local-sgd")
    assert explicit.engine == "lockstep"


def test_values_are_canonicalized_and_none_ignored():
    scenario = UNIFORM.with_overrides(rpc="coalesced", fanouts=[4, 6], scale=None)
    assert (scenario.rpc, scenario.fanouts, scenario.scale) == ("batched", (4, 6), UNIFORM.scale)
    assert UNIFORM.with_overrides(pipeline="massivegnn").pipeline == "prefetch"


@pytest.mark.parametrize("overrides, message", [
    ({"dataset": "mnist"}, "axis 'dataset' takes one of"),
    ({"backend": "tpu"}, "axis 'backend' takes one of cpu, gpu"),
    ({"epochs": 1.5}, "axis 'epochs' takes integers"),
    ({"fanouts": "4 6"}, "axis 'fanouts' takes a sequence"),
    ({"cache.eviction": "fifo"}, "unknown cache eviction policy 'fifo'"),
    ({"serving.rate_rps": 10.0}, "serving.* axes require a serving scenario"),
    ({"cache.nope": 1}, "unknown scenario field(s) ['cache.nope']"),
])
def test_bad_names_and_values_fail_eagerly(overrides, message):
    with pytest.raises(ValueError) as excinfo:
        UNIFORM.with_overrides(**overrides)
    assert message in str(excinfo.value)


def test_axis_names_only_for_presets_and_the_tuner():
    with pytest.raises(ValueError, match="unknown tuning axis 'failures'"):
        apply_axis_overrides(UNIFORM, {"failures": UNSET})
    assert apply_axis_overrides(UNIFORM, {"num_machines": 3}) == UNIFORM.with_overrides(
        num_machines=3
    )


@pytest.mark.parametrize("scenario, names, message", [
    ("uniform", {"staleness": 2}, "staleness only applies to the 'bounded-staleness' sync "
     "policy (effective policy: 'allreduce-barrier'); pass sync bounded-staleness"),
    ("async-staleness", {"sync_period": 2}, "sync_period only applies to the 'local-sgd'"),
    ("uniform", {"pipeline": "baseline", "prefetch.gamma": 0.9},
     "prefetch.gamma has no effect on the 'baseline' pipeline (it takes no PrefetchConfig)"),
    ("uniform", {"prefetch.eviction_enabled": False, "prefetch.eviction_policy": "lru"},
     "prefetch.eviction_policy lru has no effect with prefetch.eviction_enabled"),
    ("uniform", {"pipeline": "prefetch", "cache.tiers": 2},
     "a CacheConfig (--cache-tiers/--admission/--eviction/--adaptive-cache) has no effect "
     "on the 'prefetch' pipeline"),
    ("steady-poisson", {"pipeline": "static", "cache.eviction": "lru"},
     "a CacheConfig (--cache-tiers/--admission/--eviction/--adaptive-cache) has no effect "
     "on the 'static-cache' pipeline"),
])
def test_reject_inert_names_what_the_caller_set(scenario, names, message):
    resolved = SCENARIOS.build(scenario).with_overrides(**names)
    with pytest.raises(ValueError) as excinfo:
        reject_inert(resolved, names)
    assert str(excinfo.value).startswith(message)


def test_reject_inert_accepts_knobs_that_are_read():
    names = {"sync": "bounded-staleness", "staleness": 3, "prefetch.gamma": 0.9}
    reject_inert(UNIFORM.with_overrides(**names), names)
    reject_inert(UNIFORM.with_overrides(**{"cache.tiers": 2}), {"cache.tiers"})
