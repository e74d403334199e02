"""Property-based tests for the cluster engine's DDP invariants.

Seeded generators (hypothesis with fixed strategies, no new dependencies)
check the three invariants synchronous data-parallel training rests on:

* **allreduce identity** — averaging identical gradient replicas returns the
  same gradients;
* **replica synchronization** — replicas that start identical and apply the
  same averaged updates stay bit-identical across epochs;
* **seed-partition coverage** — the two-level seed split assigns every train
  seed to exactly one trainer for any ``num_machines x trainers_per_machine``.

Plus the regression for the join-semantics bug the differential harness
surfaced: an all-empty gradient round must no-op instead of crashing the
optimizer with a key mismatch.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.ddp import allreduce_gradients
from repro.nn import build_model, build_optimizer
from repro.sampling.seeds import SeedPartitioner
from repro.training.engine import apply_averaged_gradients


def _random_shapes(rng, num_params=3):
    return {
        f"p{i}": (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        for i in range(num_params)
    }


def _random_grads(rng, shapes=None):
    if shapes is None:
        shapes = _random_shapes(rng)
    return {name: rng.normal(size=shape) for name, shape in shapes.items()}


class TestAllreduceProperties:
    @given(
        seed=st.integers(0, 2**31 - 1),
        world=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=50, deadline=None)
    def test_allreduce_of_identical_grads_is_identity(self, seed, world):
        rng = np.random.default_rng(seed)
        grads = _random_grads(rng)
        averaged = allreduce_gradients([{k: v.copy() for k, v in grads.items()}
                                        for _ in range(world)])
        assert set(averaged) == set(grads)
        for name, value in grads.items():
            if world <= 2:
                # One or two replicas sum and divide exactly in binary
                # floating point, so identity holds bit-for-bit.
                np.testing.assert_array_equal(averaged[name], value)
            else:
                # Larger worlds are identity up to summation-order rounding
                # (numpy's unrolled reductions can be 1 ulp off even for
                # power-of-two world sizes).
                np.testing.assert_allclose(averaged[name], value, rtol=1e-14, atol=0)

    @given(seed=st.integers(0, 2**31 - 1), world=st.integers(2, 8))
    @example(seed=130493, world=4)  # a mean on p1 cancels to ~1e-6: rel 1.4e-11
    @settings(max_examples=50, deadline=None)
    def test_allreduce_is_permutation_invariant(self, seed, world):
        rng = np.random.default_rng(seed)
        shapes = _random_shapes(rng)
        per_trainer = [_random_grads(rng, shapes) for _ in range(world)]
        forward = allreduce_gradients(per_trainer)
        backward = allreduce_gradients(per_trainer[::-1])
        for name in forward:
            # Summation order changes the rounding of each summand, so the
            # tolerance scales with the summands, not with a mean that may
            # have cancelled to nearly zero.
            atol = 1e-12 * max(np.abs(grads[name]).max() for grads in per_trainer)
            np.testing.assert_allclose(forward[name], backward[name],
                                       rtol=1e-12, atol=atol)

    @given(seed=st.integers(0, 2**31 - 1), world=st.integers(2, 8))
    @example(seed=144, world=8)  # a mean on p1 cancels to ~3e-5: rel 1.6e-12
    @settings(max_examples=50, deadline=None)
    def test_join_semantics_skip_empty_contributors(self, seed, world):
        rng = np.random.default_rng(seed)
        shapes = _random_shapes(rng)
        per_trainer = [_random_grads(rng, shapes) for _ in range(world)]
        with_joins = list(per_trainer) + [{}, {}]
        rng.shuffle(with_joins)
        averaged = allreduce_gradients(with_joins)
        expected = allreduce_gradients(per_trainer)
        for name in expected:
            # The shuffle reorders the summands: same tolerance rule as above.
            atol = 1e-12 * max(np.abs(grads[name]).max() for grads in per_trainer)
            np.testing.assert_allclose(averaged[name], expected[name],
                                       rtol=1e-12, atol=atol)


class TestReplicaSynchronization:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_replicas_stay_parameter_synchronized(self, seed):
        """Identical init + averaged updates => bit-identical replicas."""
        world, steps = 4, 6
        replicas = [
            build_model("sage", in_dim=8, hidden_dim=8, num_classes=3,
                        num_layers=2, seed=seed % 2**31)
            for _ in range(world)
        ]
        optimizers = [build_optimizer("adam", lr=1e-2) for _ in range(world)]
        rng = np.random.default_rng(seed)
        param_names = list(replicas[0].parameters())
        for _ in range(steps):
            per_trainer = [
                {name: rng.normal(size=replicas[0].parameters()[name].shape)
                 for name in param_names}
                for _ in range(world)
            ]
            averaged = allreduce_gradients(per_trainer)
            for model, optimizer in zip(replicas, optimizers):
                apply_averaged_gradients(optimizer, model, averaged)
        params = [m.parameters() for m in replicas]
        for other in params[1:]:
            for name in param_names:
                np.testing.assert_array_equal(params[0][name], other[name])


class TestSeedPartitionCoverage:
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_seeds=st.integers(0, 300),
        num_trainers=st.integers(1, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_partitioner_covers_every_seed_exactly_once(
        self, seed, num_seeds, num_trainers
    ):
        rng = np.random.default_rng(seed)
        # Unique, arbitrary (unsorted) seed node ids.
        seeds = rng.choice(10 * (num_seeds + 1), size=num_seeds, replace=False).astype(np.int64)
        partitioner = SeedPartitioner(seeds, num_trainers, seed=seed)
        chunks = [partitioner.trainer_seeds(r) for r in range(num_trainers)]
        recombined = np.sort(np.concatenate(chunks)) if chunks else np.zeros(0, np.int64)
        np.testing.assert_array_equal(recombined, np.sort(seeds))
        np.testing.assert_array_equal(partitioner.assigned_seeds(), np.sort(seeds))
        # No trainer holds a seed twice, and sizes are balanced within 1.
        sizes = [len(c) for c in chunks]
        assert sum(sizes) == num_seeds
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("num_machines,trainers_per_machine", [
        (1, 1), (1, 4), (2, 2), (3, 1), (2, 3), (4, 2),
    ])
    def test_cluster_covers_train_set_for_any_topology(
        self, small_dataset, num_machines, trainers_per_machine
    ):
        cluster = SimCluster(
            small_dataset,
            ClusterConfig(
                num_machines=num_machines,
                trainers_per_machine=trainers_per_machine,
                batch_size=64,
                fanouts=(5, 10),
                seed=3,
            ),
        )
        cluster.validate_seed_coverage()
        assigned = np.sort(np.concatenate([
            t.partition.owned_global[t.seeds_local]
            for t in cluster.trainers if len(t.seeds_local)
        ]))
        np.testing.assert_array_equal(assigned, small_dataset.train_nids())


class TestEmptyGradientJoinRegression:
    """The latent bug the harness surfaced: all-empty rounds must no-op."""

    def test_allreduce_all_empty_returns_empty(self):
        assert allreduce_gradients([{}, {}, {}]) == {}
        assert allreduce_gradients([]) == {}

    def test_apply_averaged_gradients_noops_on_empty(self):
        model = build_model("sage", in_dim=4, hidden_dim=4, num_classes=2,
                            num_layers=2, seed=0)
        optimizer = build_optimizer("adam", lr=1e-2)
        before = {k: v.copy() for k, v in model.parameters().items()}
        # Before the fix this raised KeyError("parameter/gradient key mismatch").
        assert apply_averaged_gradients(optimizer, model, {}) is False
        for name, value in model.parameters().items():
            np.testing.assert_array_equal(value, before[name])

    def test_apply_averaged_gradients_applies_nonempty(self):
        model = build_model("sage", in_dim=4, hidden_dim=4, num_classes=2,
                            num_layers=2, seed=0)
        optimizer = build_optimizer("sgd", lr=0.5)
        before = {k: v.copy() for k, v in model.parameters().items()}
        grads = {name: np.ones_like(value) for name, value in model.parameters().items()}
        assert apply_averaged_gradients(optimizer, model, grads) is True
        for name, value in model.parameters().items():
            np.testing.assert_allclose(value, before[name] - 0.5, rtol=1e-12)
