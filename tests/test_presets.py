"""Preset tests: committed files round-trip, layering precedence is pinned.

Every ``presets/*.json`` in the repository must load, validate, materialize,
and run a smoke step — a committed preset that drifts from the registries it
names fails here, not at a user's ``repro run --preset``.  The three-layer
merge the preset loader introduces (scenario recipe -> preset -> CLI flags)
is pinned: ``with_overrides`` composes associatively and CLI beats preset
beats scenario.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.scenarios.registry import SCENARIOS
from repro.training.config import TrainConfig
from repro.training.engines import ENGINES
from repro.tuning import (
    Preset,
    available_presets,
    default_presets_dir,
    load_preset,
)

SCALE = 0.05

COMMITTED = available_presets()


def test_repository_ships_presets():
    assert len(COMMITTED) >= 3
    assert "throughput-straggler" in COMMITTED
    assert "low-p99-serving" in COMMITTED


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_preset_loads_and_validates(name):
    preset = load_preset(name)
    assert preset.name == name
    assert preset.scenario in SCENARIOS.names()
    assert preset.overrides  # a preset with no overrides froze nothing
    assert preset.spec_hash
    # provenance: the tuner recorded a strict win over the scenario default
    assert preset.improvement_percent is not None
    assert preset.improvement_percent > 0


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_preset_edits_its_recipe_in_place(name):
    """A preset's cache.* keys edit the scenario's own cache recipe.

    No committed preset leans on the rules for a cache-less scenario
    (tiered-cache auto-selection, admission opening to 'always'), so each
    loads exactly as it did when it was frozen.
    """
    preset = load_preset(name)
    recipe = SCENARIOS.build(preset.scenario)
    cache = {k.split(".", 1)[1]: v for k, v in preset.overrides if k.startswith("cache.")}
    applied = preset.apply()
    assert applied.pipeline == recipe.pipeline
    if cache:
        assert recipe.cache_config is not None
        assert applied.cache_config == replace(recipe.cache_config, **cache)


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_preset_file_is_canonical_json(name):
    path = default_presets_dir() / f"{name}.json"
    raw = path.read_text()
    preset = load_preset(name)
    assert preset.to_json() == raw  # byte-stable: load -> dump is the identity


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_preset_materializes_and_runs_smoke(name):
    preset = load_preset(name)
    scenario = preset.apply().with_overrides(scale=SCALE)
    if ENGINES.resolve(scenario.engine) == "serving":
        scenario = scenario.with_overrides(
            serving=scenario.serving.with_overrides(num_requests=64),
        )
        report = scenario.materialize(seed=0).run()
        assert report.latency_ms()["p99"] > 0
    else:
        scenario = scenario.with_overrides(epochs=1)
        workload = scenario.materialize(
            seed=0, train_config=TrainConfig(epochs=1, hidden_dim=32, seed=0),
        )
        report = workload.run()
        assert report.critical_path_time_s > 0


def test_round_trip_through_dict_and_file(tmp_path):
    preset = Preset(
        name="rt", scenario="straggler-machine",
        overrides=(("engine", "async"), ("sync", "bounded-staleness")),
        objective="critical-path-s", score=1.0, baseline_score=2.0,
        improvement_percent=50.0, spec_hash="cafe",
    )
    clone = Preset.from_dict(json.loads(preset.to_json()))
    assert clone == preset
    path = preset.save(tmp_path)
    assert path == tmp_path / "rt.json"
    assert load_preset(path) == preset
    assert load_preset("rt", presets_dir=tmp_path) == preset
    assert available_presets(tmp_path) == ["rt"]


def test_unknown_fields_rejected_like_with_overrides():
    payload = json.loads(load_preset(COMMITTED[0]).to_json())
    payload["turbo"] = True
    with pytest.raises(ValueError, match="unknown preset fields.*turbo"):
        Preset.from_dict(payload)


def test_bad_override_and_names_rejected_at_load(tmp_path):
    good = load_preset(COMMITTED[0])
    payload = json.loads(good.to_json())
    payload["overrides"] = {"sylo": 3}
    (tmp_path / "bad.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unknown tuning axis"):
        load_preset("bad", presets_dir=tmp_path)
    payload["overrides"] = {"sync": "warp-speed"}
    (tmp_path / "bad2.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="valid names"):
        load_preset("bad2", presets_dir=tmp_path)


def test_unknown_preset_name_lists_available():
    with pytest.raises(ValueError, match="available presets"):
        load_preset("no-such-preset")


def test_malformed_preset_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_preset(path)
    path2 = tmp_path / "list.json"
    path2.write_text("[1, 2]\n")
    with pytest.raises(ValueError, match="JSON object"):
        load_preset(path2)


# --------------------------------------------------------------------------- #
# Three-layer merge: associativity and precedence
# --------------------------------------------------------------------------- #
def test_with_overrides_composes_associatively():
    """Chained scenario -> preset -> CLI must equal the merged override set.

    Regression: resizing ``compute_multipliers`` used to run only when
    ``num_machines`` arrived *without* multipliers in the same call, so the
    chained and merged forms disagreed on the vector length.
    """
    base = SCENARIOS.build("straggler-machine")  # multipliers (2.5, 1.0)
    chained = (base.with_overrides(compute_multipliers=(3.0, 1.0))
                   .with_overrides(num_machines=3))
    merged = base.with_overrides(compute_multipliers=(3.0, 1.0), num_machines=3)
    assert chained == merged
    assert merged.compute_multipliers == (3.0, 1.0, 1.0)
    assert len(merged.compute_multipliers) == merged.num_machines


def test_with_overrides_shrink_and_grow_stay_aligned():
    base = SCENARIOS.build("straggler-machine")
    shrunk = base.with_overrides(num_machines=1, compute_multipliers=(2.5, 1.0, 9.0))
    assert shrunk.compute_multipliers == (2.5,)
    grown = base.with_overrides(num_machines=4)
    assert grown.compute_multipliers == (2.5, 1.0, 1.0, 1.0)


def test_precedence_cli_beats_preset_beats_scenario():
    preset = load_preset("throughput-straggler")
    scenario = SCENARIOS.build(preset.scenario)     # layer 1: recipe
    with_preset = preset.apply()                    # layer 2: preset
    overrides = dict(preset.overrides)
    assert "sync" in overrides
    assert with_preset.sync == overrides["sync"] != scenario.sync
    final = with_preset.with_overrides(sync="local-sgd", epochs=1)  # layer 3: CLI
    assert final.sync == "local-sgd"                # CLI beat the preset
    assert final.engine == with_preset.engine       # untouched preset field survives
    assert final.epochs == 1
    assert final.dataset == scenario.dataset        # untouched recipe field survives


def test_preset_apply_rejects_drifted_axes(tmp_path):
    # a preset whose overrides name a registry value that later disappeared
    # must fail at load time with the registry's own error
    payload = {
        "name": "drifted", "scenario": "uniform",
        "overrides": {"cache.eviction": "gone-eviction"},
        "objective": "critical-path-s",
    }
    (tmp_path / "drifted.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="valid names"):
        load_preset("drifted", presets_dir=tmp_path)
