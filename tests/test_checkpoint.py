"""Checkpoint/restore: the consensus checkpoint and the state it rides on.

The engine-level consensus checkpoint (model + optimizer at the last applied
sync round) must round-trip bit-exactly, and it is exercised through a
failure run: the recovering trainer's ``restored_from_step`` provenance must
be positive and the downtime ledger must still reconcile.  Optimizer buffers
restore to a state whose continued execution matches an uninterrupted run.
"""

import numpy as np
import pytest

from repro.cache.tier import CacheTier
from repro.core.config import PrefetchConfig
from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.events.schedule import FailureSpec
from repro.graph.datasets import load_dataset
from repro.nn.layers import Module, Parameter
from repro.nn.optim import SGD, Adam
from repro.nn.tensor_utils import xavier_uniform, zeros
from repro.sampling.seeds import SeedIterator
from repro.training.async_engine import AsyncClusterEngine
from repro.training.checkpoint import CheckpointStore, ClusterCheckpoint
from repro.training.config import TrainConfig
from repro.utils.rng import ensure_rng

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


class TestCacheTierInvalidate:
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

    def test_capture_is_detached_from_the_live_model(self):
        model, opt = self._model_and_opt()
        ckpt = ClusterCheckpoint.capture(model, opt, step=1, time_s=0.0)
        before = {k: v.copy() for k, v in ckpt.model_state.items()}
        model.weight.value += 1.0
        opt.step(model.state_dict(), {k: np.ones_like(v) for k, v in model.state_dict().items()})
        for key, value in before.items():
            np.testing.assert_array_equal(ckpt.model_state[key], value)
        assert ClusterCheckpoint.capture(model, opt, step=1, time_s=0.0) != ckpt

    def test_checkpoints_differ_when_any_field_differs(self):
        model, opt = self._model_and_opt()
        ckpt = ClusterCheckpoint.capture(model, opt, step=2, time_s=1.0)
        assert ClusterCheckpoint.capture(model, opt, step=3, time_s=1.0) != ckpt
        assert ClusterCheckpoint.capture(model, opt, step=2, time_s=2.0) != ckpt
        widened = ClusterCheckpoint(
            step=2, time_s=1.0, optimizer_state=ckpt.optimizer_state,
            model_state={k: v.astype(np.float64) for k, v in ckpt.model_state.items()},
        )
        assert widened != ckpt
        assert ckpt != "a checkpoint"

    def test_store_update_replaces_the_latest(self):
        store = CheckpointStore()
        model, opt = self._model_and_opt()
        first = store.update(model, opt, step=1, time_s=0.5e-3)
        model.weight.value += 1.0
        second = store.update(model, opt, step=2, time_s=1.0e-3)
        assert store.latest is second and second != first
        store.restore(model, opt)
        np.testing.assert_array_equal(model.weight.value, second.model_state["weight"])

    def test_store_requires_a_capture_before_restore(self):
        store = CheckpointStore()
        model, opt = self._model_and_opt()
        assert store.latest is None
        with pytest.raises(RuntimeError, match="no checkpoint"):
            store.restore(model, opt)
        captured = store.update(model, opt, step=1, time_s=0.5e-3)
        assert store.latest is captured and captured.step == 1
        assert store.restore(model, opt) is captured


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
        assert engine.checkpoint_store.latest.step > 0
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
