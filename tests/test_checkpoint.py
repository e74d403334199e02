"""Restore on recovery, and the seed-iterator and tier state around it.

The simulated trainers share one model replica, so after every applied sync
round the live model is the consensus state: a trainer recovering from an
outage loads nothing, records the applied-round count as
``restored_from_step`` and pays the transfer of the model's parameter bytes
as ``migration`` time.  The tests below pin the fact that makes the copy
unnecessary (the live model equals a snapshot taken after the last applied
round at every recovery, bit for bit), the charged transfer, and that local
SGD, which applies no averaged gradient through the engine, never restores.
"""

import numpy as np
import pytest

from repro.cache.tier import CacheTier
from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.events.schedule import FailureSpec
from repro.graph.datasets import load_dataset
from repro.sampling.seeds import SeedIterator
from repro.scenarios import SCENARIOS
from repro.training import async_engine
from repro.training.async_engine import AsyncClusterEngine
from repro.training.config import TrainConfig
from repro.utils.rng import ensure_rng

PREFETCH = PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=8)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("products", scale=0.05, seed=5)


def make_cluster(dataset, **overrides):
    kwargs = dict(num_machines=2, trainers_per_machine=2, batch_size=64,
                  fanouts=(5, 10), seed=7)
    kwargs.update(overrides)
    return SimCluster(dataset, ClusterConfig(**kwargs))


def make_iterator():
    return SeedIterator(np.arange(100, dtype=np.int64), batch_size=16, seed=11)


class TestSeedIteratorEpochs:
    @pytest.mark.parametrize("drop_last", [False, True])
    def test_epochs_match_a_hand_shuffle(self, drop_last):
        it = SeedIterator(np.arange(100, dtype=np.int64), batch_size=16, seed=11,
                          drop_last=drop_last)
        rng = ensure_rng(11)
        for _ in range(2):
            order = np.arange(100, dtype=np.int64)
            rng.shuffle(order)
            stop = 96 if drop_last else 100
            expected = [order[i: i + 16] for i in range(0, stop, 16)]
            got = list(it.epoch())
            assert len(got) == len(expected) == it.num_batches
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)

    def test_the_shuffle_is_drawn_at_the_first_batch(self):
        it = make_iterator()
        before = it.rng.bit_generator.state
        epoch = it.epoch()
        assert it.rng.bit_generator.state == before
        next(epoch)
        assert it.rng.bit_generator.state != before

    def test_reassign_swaps_seeds_in_place_next_epoch(self):
        it = make_iterator()
        epoch0 = it.epoch()
        first = next(epoch0)
        it.reassign(np.arange(200, 232, dtype=np.int64))
        # The in-flight epoch finishes over the old shuffled order...
        rest = np.concatenate([first] + list(epoch0))
        assert set(rest.tolist()) <= set(range(100))
        # ...and the new assignment takes effect at the next epoch.
        new = np.concatenate(list(it.epoch()))
        assert set(new.tolist()) == set(range(200, 232))


class TestCacheTierInvalidate:
    def test_invalidate_counts_evictions(self):
        rows = np.ones((2, 4), dtype=np.float32)
        tier = CacheTier("shared", 4, 4)
        tier.seed(np.array([1, 2]), rows)
        dropped = tier.invalidate()
        assert dropped == 2
        assert tier.stats.evictions == 2
        assert tier.size == 0 and tier.nbytes() == 0


@pytest.fixture
def drivers(monkeypatch):
    """Every ``_EventDrivenRun`` built while the test runs, in order."""
    built = []
    original = async_engine._EventDrivenRun.__init__

    def record(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(async_engine._EventDrivenRun, "__init__", record)
    return built


def parameter_bytes(driver) -> int:
    return sum(v.nbytes for v in driver.run.setup.model.parameters().values())


class TestEngineRecoveryProvenance:
    def test_failure_recovery_restores_from_consensus_step(self, dataset, drivers):
        spec = FailureSpec(rate=0.3, min_downtime_steps=2.0, max_downtime_steps=4.0)
        cluster = make_cluster(dataset)
        engine = AsyncClusterEngine(
            cluster, TrainConfig(epochs=2, hidden_dim=32, seed=1),
            sync="bounded-staleness", sync_options={"staleness": 2}, failures=spec,
        )
        report = engine.run("prefetch", prefetch_config=PREFETCH)
        (driver,) = drivers
        stats = report.trainer_stats
        failures = sum(t.sync_stats.get("failures", 0.0) for t in stats)
        restores = sum(t.sync_stats.get("restores", 0.0) for t in stats)
        assert failures > 0, "failure rate 0.3 must trigger at least one outage"
        assert restores > 0
        nbytes = parameter_bytes(driver)
        assert nbytes > 0
        for t in stats:
            n = t.sync_stats.get("restores", 0.0)
            if not n:
                assert "restored_from_step" not in t.sync_stats
                assert "restore_s" not in t.sync_stats
                continue
            # Each restore ships the model's parameter bytes over the trainer's
            # own machine link, and resumes from an applied round, never 0.
            per_restore = cluster.cost_model_for_machine(t.machine).time_migration(nbytes)
            assert per_restore > 0.0
            assert t.sync_stats["restore_s"] == pytest.approx(n * per_restore, rel=1e-12)
            assert 0 < t.sync_stats["restored_from_step"] <= driver.applied_rounds
        for t in stats:
            # Restore transfers ride the migration component, never downtime:
            # the outage ledger still reconciles exactly.
            assert t.components.get("downtime", 0.0) == pytest.approx(
                t.sync_stats.get("downtime_s", 0.0)
            )
            if t.sync_stats.get("restores", 0.0):
                assert t.components.get("migration", 0.0) > 0.0


def flaky_run(sync: str, seed: int):
    return SCENARIOS.build("trainer-flaky").with_overrides(sync=sync).materialize(seed).run()


class TestRecoveryNeedsNoCopy:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("sync", ["allreduce-barrier", "bounded-staleness"])
    def test_live_model_is_the_last_applied_round_at_every_restore(self, monkeypatch, sync, seed):
        """What deleting the checkpoint copy rests on: between the last applied
        round and a recovery nothing writes the shared model."""
        snapshots = []
        checked = []
        apply_update = async_engine._EventDrivenRun.apply_update
        fail = async_engine._EventDrivenRun.fail

        def snapshot_after_apply(self, averaged):
            changed = apply_update(self, averaged)
            snapshots.append(self.run.setup.model.state_dict())
            return changed

        def compare_before_restore(self, rank, now, downtime):
            if self.applied_rounds:
                assert len(snapshots) == self.applied_rounds
                live = self.run.setup.model.state_dict()
                last = snapshots[-1]
                assert sorted(live) == sorted(last)
                for name, value in live.items():
                    assert value.dtype == last[name].dtype
                    assert value.shape == last[name].shape
                    assert value.tobytes() == last[name].tobytes(), name
                checked.append(self.applied_rounds)
            fail(self, rank, now, downtime)

        monkeypatch.setattr(async_engine._EventDrivenRun, "apply_update", snapshot_after_apply)
        monkeypatch.setattr(async_engine._EventDrivenRun, "fail", compare_before_restore)
        report = flaky_run(sync, seed)
        restored = sorted(
            t.sync_stats["restored_from_step"]
            for t in report.trainer_stats
            if "restored_from_step" in t.sync_stats
        )
        assert checked, "the recipe must recover at least once after an applied round"
        restores = sum(t.sync_stats.get("restores", 0.0) for t in report.trainer_stats)
        assert restores == len(checked)
        # The last restore of each trainer is what restored_from_step keeps.
        assert set(restored) <= set(float(step) for step in checked)

    def test_local_sgd_records_failures_but_never_restores(self, drivers):
        report = flaky_run("local-sgd", 0)
        (driver,) = drivers
        stats = report.trainer_stats
        assert driver.applied_rounds == 0
        assert sum(t.sync_stats.get("failures", 0.0) for t in stats) == 3
        for t in stats:
            assert "restores" not in t.sync_stats
            assert "restored_from_step" not in t.sync_stats
            assert t.components.get("migration", 0.0) == 0.0
