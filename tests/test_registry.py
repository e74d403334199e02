"""Tests for the string-keyed registries (eviction policies, pipelines)."""

import dataclasses

import pytest

from repro.cache.config import CacheConfig
from repro.core.config import PrefetchConfig
from repro.core.eviction import (
    EVICTION_POLICIES,
    LRUPolicy,
    NoEvictionPolicy,
    RandomEvictionPolicy,
    ScoreThresholdPolicy,
    build_eviction_policy,
)
from repro.features import BufferedSource, RemoteRPCSource, TieredCacheSource
from repro.sampling.pipeline import MiniBatchPipeline
from repro.training.pipelines import (
    PIPELINES,
    OverlappedTimingPolicy,
    SerialTimingPolicy,
    build_pipeline,
)
from repro.utils.registry import Registry


class TestRegistryMechanics:
    def test_register_and_build(self):
        reg = Registry("widget")
        reg.register("a", lambda: "built-a", aliases=("alpha",))
        assert reg.build("a") == "built-a"
        assert reg.build("alpha") == "built-a"
        assert reg.build("A") == "built-a"  # case-insensitive
        assert "a" in reg and "alpha" in reg and "b" not in reg
        assert reg.names() == ["a"]

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("decorated")
        def factory(x):
            return x * 2

        assert reg.build("decorated", 21) == 42

    def test_unknown_name_lists_valid_names(self):
        reg = Registry("widget")
        reg.register("a", lambda: None)
        reg.register("b", lambda: None)
        with pytest.raises(ValueError) as excinfo:
            reg.build("zzz")
        message = str(excinfo.value)
        assert "unknown widget 'zzz'" in message
        assert "a" in message and "b" in message

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.register("a", lambda: None, aliases=("alpha",))
        with pytest.raises(ValueError):
            reg.register("a", lambda: None)
        with pytest.raises(ValueError):
            reg.register("c", lambda: None, aliases=("a",))
        # A new canonical name may not shadow an existing alias either —
        # resolve() follows aliases first, so it would be unreachable.
        with pytest.raises(ValueError):
            reg.register("alpha", lambda: None)

    def test_non_string_names_rejected(self):
        reg = Registry("widget")
        with pytest.raises(ValueError):
            reg.resolve("")
        assert 3 not in reg


class TestEvictionPolicyRegistry:
    EXPECTED = {
        "score-threshold": ScoreThresholdPolicy,
        "lru": LRUPolicy,
        "random": RandomEvictionPolicy,
        "none": NoEvictionPolicy,
    }

    def test_round_trip_every_registered_policy(self):
        assert set(EVICTION_POLICIES.names()) == set(self.EXPECTED)
        for name in EVICTION_POLICIES.names():
            policy = build_eviction_policy(name, seed=0)
            assert isinstance(policy, self.EXPECTED[name])
            assert policy.name == name

    def test_aliases(self):
        assert isinstance(build_eviction_policy("score"), ScoreThresholdPolicy)
        assert isinstance(build_eviction_policy("paper"), ScoreThresholdPolicy)
        assert isinstance(build_eviction_policy("no-eviction"), NoEvictionPolicy)

    def test_unknown_policy_error_lists_names(self):
        with pytest.raises(ValueError) as excinfo:
            build_eviction_policy("fifo")
        message = str(excinfo.value)
        for name in self.EXPECTED:
            assert name in message

    def test_config_validates_policy_name(self):
        with pytest.raises(ValueError):
            PrefetchConfig(eviction_policy="not-a-policy")
        config = PrefetchConfig(eviction_policy="lru")
        assert config.eviction_policy == "lru"

    def test_halo_source_is_not_a_config_field(self):
        # The prefetch pipeline has one halo source; naming another used to
        # run the baseline data path under mode == "prefetch".
        with pytest.raises(TypeError):
            PrefetchConfig(halo_source="remote-rpc")

    def test_without_eviction_keeps_every_other_field(self):
        config = PrefetchConfig(
            halo_fraction=0.4, gamma=0.9, delta=7, eviction_enabled=True, alpha=0.3,
            scoreboard="compact", initial_eviction_score=2.0,
            min_buffer_slots=5, eviction_policy="lru",
        )
        defaults = PrefetchConfig()
        fields = [f.name for f in dataclasses.fields(PrefetchConfig)]
        assert all(getattr(config, name) != getattr(defaults, name)
                   for name in fields if name != "eviction_enabled")
        stripped = config.without_eviction()
        assert stripped.eviction_enabled is False and config.eviction_enabled is True
        for name in fields:
            if name != "eviction_enabled":
                assert getattr(stripped, name) == getattr(config, name), name


class TestPipelineRegistry:
    def test_round_trip_every_registered_pipeline(self, small_cluster):
        assert set(PIPELINES.names()) == {
            "baseline", "prefetch", "static-cache", "tiered-cache",
        }
        trainer = small_cluster.trainers[0]
        config = PrefetchConfig(halo_fraction=0.25, delta=8)
        for name in PIPELINES.names():
            row = PIPELINES.get(name)
            pipeline = build_pipeline(
                name, trainer, small_cluster,
                prefetch_config=config if row.reads_prefetch_config else None,
            )
            assert isinstance(pipeline, MiniBatchPipeline)
            assert pipeline.name == name
            assert pipeline.dataloader is trainer.dataloader
            assert type(pipeline.timing) is row.timing

    def test_aliases_resolve_to_their_rows(self):
        aliases = {"distdgl": "baseline", "massivegnn": "prefetch",
                   "static": "static-cache", "tiered": "tiered-cache"}
        for alias, name in aliases.items():
            assert PIPELINES.resolve(alias) == name
            assert PIPELINES.get(alias) is PIPELINES.get(name)

    def test_each_name_builds_its_data_path(self, small_cluster):
        """Name -> (halo source class, timing policy): the one lookup there is."""
        trainer = small_cluster.trainers[0]
        config = PrefetchConfig(halo_fraction=0.25, delta=8)
        expected = {
            "baseline": (RemoteRPCSource, SerialTimingPolicy, None),
            "prefetch": (BufferedSource, OverlappedTimingPolicy, config),
            "static-cache": (TieredCacheSource, OverlappedTimingPolicy, config),
            "tiered-cache": (TieredCacheSource, OverlappedTimingPolicy, config),
        }
        for name, (source_cls, timing_cls, prefetch_config) in expected.items():
            pipeline = build_pipeline(name, trainer, small_cluster, prefetch_config)
            assert type(pipeline.feature_store.halo_source) is source_cls, name
            assert type(pipeline.timing) is timing_cls, name
        static = build_pipeline("static-cache", trainer, small_cluster, config)
        assert static.feature_store.halo_source.cache_config == CacheConfig()

    @pytest.mark.parametrize("name", ["baseline", "static-cache"])
    def test_cacheless_pipelines_reject_a_cache_config(self, small_cluster, name):
        trainer = small_cluster.trainers[0]
        with pytest.raises(ValueError, match=f"no effect on the '{name}' pipeline"):
            build_pipeline(
                name, trainer, small_cluster,
                prefetch_config=PrefetchConfig(), cache_config=CacheConfig(),
            )

    def test_unknown_pipeline_error_lists_names(self, small_cluster):
        trainer = small_cluster.trainers[0]
        with pytest.raises(ValueError) as excinfo:
            build_pipeline("warp-drive", trainer, small_cluster)
        message = str(excinfo.value)
        assert "baseline" in message and "prefetch" in message

    @pytest.mark.parametrize("name", ["prefetch", "static-cache", "tiered-cache"])
    def test_caching_pipelines_require_a_prefetch_config(self, small_cluster, name):
        trainer = small_cluster.trainers[0]
        with pytest.raises(ValueError, match="requires a PrefetchConfig"):
            build_pipeline(name, trainer, small_cluster)

    def test_timing_policies(self):
        assert SerialTimingPolicy().overlaps_preparation is False
        assert OverlappedTimingPolicy().overlaps_preparation is True
