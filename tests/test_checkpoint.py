"""Checkpoint/restore round-trips: mid-epoch state resumes bit-identically.

Every layer the elastic/recovery machinery snapshots — seed iterator, data
loader, simulated clock, optimizer buffers, cache tier contents — must
restore to a state whose continued execution is indistinguishable from an
uninterrupted run.  The engine-level consensus checkpoint (model + optimizer
at the last applied sync round) is exercised through a failure run: the
recovering trainer's ``restored_from_step`` provenance must be positive and
the downtime ledger must still reconcile.
"""

import numpy as np
import pytest

from repro.cache.tier import CacheTier
from repro.core.config import PrefetchConfig
from repro.distributed.clock import SimClock
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.events.schedule import FailureSpec
from repro.graph.datasets import load_dataset
from repro.nn.layers import Module, Parameter
from repro.nn.optim import SGD, Adam
from repro.nn.tensor_utils import xavier_uniform, zeros
from repro.sampling.seeds import SeedIterator
from repro.training.async_engine import AsyncClusterEngine
from repro.training.checkpoint import (
    CheckpointStore,
    ClusterCheckpoint,
    TrainerCheckpoint,
)
from repro.training.config import TrainConfig

PREFETCH = PrefetchConfig(halo_fraction=0.35, gamma=0.995, delta=8)


class Linear(Module):
    """The smallest module with parameters: the weight and bias of ``x W + b``."""

    def __init__(self, in_dim, out_dim, seed=None):
        self.weight = Parameter(xavier_uniform((in_dim, out_dim), seed=seed))
        self.bias = Parameter(zeros((out_dim,)))


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


class TestSeedIteratorRoundTrip:
    def test_mid_epoch_restore_resumes_bit_identically(self):
        ref = make_iterator()
        it = ref.epoch()
        consumed = [next(it) for _ in range(3)]
        state = ref.snapshot()
        remainder = [b.copy() for b in it]
        next_epoch = [b.copy() for b in ref.epoch()]

        fresh = make_iterator()
        fresh.restore(state)
        resumed = list(fresh.epoch())
        assert len(resumed) == len(remainder)
        for a, b in zip(resumed, remainder):
            np.testing.assert_array_equal(a, b)
        # The RNG stream continues where the snapshot left it: the following
        # epoch's shuffle matches the uninterrupted iterator's.
        for a, b in zip(fresh.epoch(), next_epoch):
            np.testing.assert_array_equal(a, b)
        assert len(consumed) == 3  # the prefix was really consumed

    def test_between_epoch_snapshot_does_not_resume(self):
        ref = make_iterator()
        list(ref.epoch())
        state = ref.snapshot()
        assert state["mid_epoch"] is False
        fresh = make_iterator()
        fresh.restore(state)
        # Not a resume: the next epoch() starts epoch 1 with the checkpointed
        # RNG stream, identical to the uninterrupted iterator's epoch 1.
        for a, b in zip(fresh.epoch(), ref.epoch()):
            np.testing.assert_array_equal(a, b)

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


class TestDataLoaderRoundTrip:
    def test_mid_epoch_loader_restore_matches_uninterrupted(self, dataset):
        cluster_a = make_cluster(dataset)
        cluster_b = make_cluster(dataset)
        loader_a = cluster_a.trainers[0].dataloader
        loader_b = cluster_b.trainers[0].dataloader

        it = loader_a.epoch()
        for _ in range(2):
            next(it)
        state = loader_a.snapshot()
        remainder = [mb.seeds.copy() for mb in it]

        loader_b.restore(state)
        resumed = [mb.seeds.copy() for mb in loader_b.epoch()]
        assert len(resumed) == len(remainder)
        for a, b in zip(resumed, remainder):
            np.testing.assert_array_equal(a, b)
        assert loader_b.steps_taken == loader_a.steps_taken


class TestClockRoundTrip:
    def test_snapshot_restore_round_trips_ledger(self):
        clock = SimClock()
        clock.advance(1.5e-3, "compute")
        clock.advance(0.5e-3, "ddp")
        state = clock.snapshot()
        clock.advance(2.0e-3, "downtime")
        clock.restore(state)
        assert clock.time == pytest.approx(2.0e-3)
        assert clock.component_time("compute") == pytest.approx(1.5e-3)
        assert clock.component_time("ddp") == pytest.approx(0.5e-3)
        assert clock.component_time("downtime") == 0.0
        # The restored ledger is live, not frozen.
        clock.advance(1.0e-3, "migration")
        assert clock.component_time("migration") == pytest.approx(1.0e-3)


class TestOptimizerState:
    def _step(self, opt, params):
        grads = {k: np.full_like(v, 0.25) for k, v in params.items()}
        opt.step(params, grads)

    @pytest.mark.parametrize("make_opt", [
        lambda: SGD(lr=0.1, momentum=0.9),
        lambda: Adam(lr=0.01),
    ])
    def test_restored_optimizer_continues_identically(self, make_opt):
        params_a = {"w": np.linspace(0.0, 1.0, 6).reshape(2, 3)}
        params_b = {"w": params_a["w"].copy()}
        opt_a, opt_b = make_opt(), make_opt()
        for _ in range(3):
            self._step(opt_a, params_a)
        state = opt_a.state_dict()
        opt_b.load_state_dict(state)
        params_b["w"][:] = params_a["w"]
        for _ in range(2):
            self._step(opt_a, params_a)
            self._step(opt_b, params_b)
        np.testing.assert_array_equal(params_a["w"], params_b["w"])

    def test_state_dict_copies_are_detached(self):
        opt = SGD(lr=0.1, momentum=0.9)
        params = {"w": np.ones(4)}
        self._step(opt, params)
        state = opt.state_dict()
        self._step(opt, params)
        assert not np.array_equal(state["velocity"]["w"], opt.state_dict()["velocity"]["w"])


class TestCacheTierRoundTrip:
    def test_snapshot_restore_preserves_resident_set(self):
        rows = np.arange(12, dtype=np.float32).reshape(3, 4)
        tier = CacheTier("hot", 4, 4, eviction="lru")
        tier.seed(np.array([2, 5, 9]), rows)
        tier.lookup(np.array([5]), step=3)
        state = tier.snapshot()
        tier.invalidate()
        assert tier.size == 0
        tier.restore(state)
        np.testing.assert_array_equal(tier.resident_ids, [2, 5, 9])
        hit_mask, got = tier.lookup(np.array([2, 5, 9]), step=4)
        assert hit_mask.all()
        np.testing.assert_array_equal(np.sort(got, axis=0), np.sort(rows, axis=0))

    def test_invalidate_counts_evictions(self):
        rows = np.ones((2, 4), dtype=np.float32)
        tier = CacheTier("shared", 4, 4)
        tier.seed(np.array([1, 2]), rows)
        dropped = tier.invalidate()
        assert dropped == 2
        assert tier.stats.evictions == 2
        assert tier.size == 0 and tier.nbytes() == 0


class TestCheckpointArtifacts:
    def _model_and_opt(self):
        model = Linear(3, 2, seed=4)
        opt = SGD(lr=0.1, momentum=0.9)
        params = model.state_dict()
        opt.step(params, {k: np.full_like(v, 0.1) for k, v in params.items()})
        return model, opt

    def test_cluster_checkpoint_round_trip(self):
        model, opt = self._model_and_opt()
        ckpt = ClusterCheckpoint.capture(model, opt, step=2, time_s=1.0e-3)
        assert ckpt.nbytes() > 0
        # Perturb, then restore: model and optimizer return bit-exactly.
        for v in model.state_dict().values():
            v += 1.0
        opt.load_state_dict(SGD(lr=0.1, momentum=0.9).state_dict())
        ckpt.restore_into(model, opt)
        assert ClusterCheckpoint.capture(model, opt, step=2, time_s=1.0e-3) == ckpt

    def test_trainer_checkpoint_rejects_wrong_rank(self, dataset):
        cluster = make_cluster(dataset)
        ckpt = TrainerCheckpoint.capture(cluster.trainers[0])
        with pytest.raises(ValueError, match="rank"):
            ckpt.restore_into(cluster.trainers[1])

    def test_trainer_checkpoint_round_trip(self, dataset):
        cluster = make_cluster(dataset)
        trainer = cluster.trainers[1]
        trainer.clock.advance(1.0e-3, "compute")
        it = trainer.dataloader.epoch()
        next(it)
        ckpt = TrainerCheckpoint.capture(trainer)
        trainer.clock.advance(5.0e-3, "stall")
        list(it)
        ckpt.restore_into(trainer)
        assert TrainerCheckpoint.capture(trainer) == ckpt

    def test_store_requires_a_capture_before_restore(self):
        store = CheckpointStore()
        model, opt = self._model_and_opt()
        assert store.last_step == 0
        with pytest.raises(RuntimeError, match="no checkpoint"):
            store.restore(model, opt)
        store.update(model, opt, step=1, time_s=0.5e-3)
        assert store.last_step == 1
        assert store.restore(model, opt).step == 1
        assert store.updates == 1 and store.restores == 1


class TestEngineRecoveryProvenance:
    def test_failure_recovery_restores_from_consensus_step(self, dataset):
        spec = FailureSpec(rate=0.3, min_downtime_steps=2.0, max_downtime_steps=4.0)
        cluster = make_cluster(dataset)
        engine = AsyncClusterEngine(
            cluster, TrainConfig(epochs=2, hidden_dim=32, seed=1),
            sync="bounded-staleness", sync_options={"staleness": 2}, failures=spec,
        )
        report = engine.run("prefetch", prefetch_config=PREFETCH)
        stats = report.trainer_stats
        failures = sum(t.sync_stats.get("failures", 0.0) for t in stats)
        restores = sum(t.sync_stats.get("restores", 0.0) for t in stats)
        assert failures > 0, "failure rate 0.3 must trigger at least one outage"
        assert restores > 0
        assert engine.checkpoint_store is not None
        assert engine.checkpoint_store.updates > 0
        restored_steps = [
            t.sync_stats["restored_from_step"]
            for t in stats
            if "restored_from_step" in t.sync_stats
        ]
        assert restored_steps and all(step > 0 for step in restored_steps)
        for t in stats:
            # Restore transfers ride the migration component, never downtime:
            # the outage ledger still reconciles exactly.
            assert t.components.get("downtime", 0.0) == pytest.approx(
                t.sync_stats.get("downtime_s", 0.0)
            )
            if t.sync_stats.get("restores", 0.0):
                assert t.components.get("migration", 0.0) > 0.0
