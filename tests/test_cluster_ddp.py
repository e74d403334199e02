"""Tests for the simulated cluster and DDP gradient synchronization."""

import numpy as np
import pytest

from repro.distributed.cluster import ClusterConfig, SimCluster
from repro.distributed.ddp import allreduce_gradients


class TestClusterConfig:
    def test_world_size(self):
        assert ClusterConfig(num_machines=4, trainers_per_machine=4).world_size == 16

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            ClusterConfig(backend="tpu")

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_machines=0)


class TestSimCluster:
    def test_trainer_count(self, small_cluster):
        assert len(small_cluster.trainers) == small_cluster.config.world_size

    def test_one_partition_per_machine(self, small_cluster):
        assert len(small_cluster.partitions) == small_cluster.config.num_machines
        for trainer in small_cluster.trainers:
            assert trainer.partition.part_id == trainer.machine

    def test_trainer_seeds_are_owned_train_nodes(self, small_cluster, small_dataset):
        for trainer in small_cluster.trainers:
            owned = trainer.partition.owned_global
            seed_globals = owned[trainer.seeds_local]
            assert np.all(small_dataset.train_mask[seed_globals])

    def test_trainers_split_seeds_disjointly(self, small_cluster):
        by_machine = {}
        for trainer in small_cluster.trainers:
            by_machine.setdefault(trainer.machine, []).append(trainer.seeds_local)
        for machine, seed_lists in by_machine.items():
            allseeds = np.concatenate(seed_lists)
            assert len(np.unique(allseeds)) == len(allseeds)

    def test_servers_cover_all_features(self, small_cluster, small_dataset):
        total_rows = sum(s.num_rows for s in small_cluster.servers.values())
        assert total_rows == small_dataset.num_nodes

    def test_summary_keys(self, small_cluster):
        summary = small_cluster.summary()
        for key in ("num_machines", "world_size", "avg_remote_nodes_per_trainer", "minibatches_per_trainer"):
            assert key in summary

    def test_reset_clears_state(self, small_cluster):
        trainer = small_cluster.trainers[0]
        trainer.clock.advance(1.0, "rpc")
        small_cluster.reset()
        assert trainer.clock.time == 0.0
        assert trainer.rpc.stats.nodes_fetched == 0

    def test_mismatched_partition_result_raises(self, small_dataset):
        from repro.graph.partition import metis_partition

        result = metis_partition(small_dataset.graph, 3, seed=0)
        with pytest.raises(ValueError):
            SimCluster(
                small_dataset,
                ClusterConfig(num_machines=2, trainers_per_machine=1),
                partition_result=result,
            )

    def test_gpu_backend_cost_model(self, small_dataset):
        cluster = SimCluster(
            small_dataset,
            ClusterConfig(num_machines=2, trainers_per_machine=1, backend="gpu", batch_size=64),
        )
        assert cluster.cost_model.backend == "gpu"


class TestAllreduce:
    def test_average_of_two(self):
        a = {"w": np.array([1.0, 2.0]), "b": np.array([0.0])}
        b = {"w": np.array([3.0, 4.0]), "b": np.array([2.0])}
        avg = allreduce_gradients([a, b])
        np.testing.assert_allclose(avg["w"], [2.0, 3.0])
        np.testing.assert_allclose(avg["b"], [1.0])

    def test_skips_empty_contributions(self):
        a = {"w": np.array([2.0])}
        avg = allreduce_gradients([a, {}])
        np.testing.assert_allclose(avg["w"], [2.0])

    def test_all_empty(self):
        assert allreduce_gradients([{}, {}]) == {}

    def test_mismatched_keys_raise(self):
        with pytest.raises(ValueError):
            allreduce_gradients([{"w": np.zeros(2)}, {"v": np.zeros(2)}])

    def test_single_trainer_gets_its_own_gradients(self):
        g = {"w": np.array([[1.5, -2.0]]), "b": np.array([0.25])}
        avg = allreduce_gradients([g])
        assert set(avg) == {"w", "b"}
        for name in g:
            np.testing.assert_array_equal(avg[name], g[name])

    def test_inputs_are_not_mutated(self):
        a = {"w": np.array([1.0, 2.0])}
        b = {"w": np.array([3.0, 6.0])}
        allreduce_gradients([a, b])
        np.testing.assert_array_equal(a["w"], [1.0, 2.0])
        np.testing.assert_array_equal(b["w"], [3.0, 6.0])

    def test_average_is_independent_of_trainer_order(self):
        grads = [{"w": np.full((2, 3), float(k))} for k in (1, 4, 7)]
        forward = allreduce_gradients(grads)
        backward = allreduce_gradients(grads[::-1])
        np.testing.assert_array_equal(forward["w"], backward["w"])
        np.testing.assert_array_equal(forward["w"], np.full((2, 3), 4.0))

    def test_matrix_parameters_keep_their_shape(self):
        rng = np.random.default_rng(0)
        grads = [{"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)} for _ in range(3)]
        avg = allreduce_gradients(grads)
        assert avg["w"].shape == (4, 3) and avg["b"].shape == (3,)
        np.testing.assert_allclose(avg["w"], np.mean([g["w"] for g in grads], axis=0))

    def test_empty_contributions_do_not_dilute_the_mean(self):
        a = {"w": np.array([2.0])}
        b = {"w": np.array([4.0])}
        avg = allreduce_gradients([{}, a, {}, b])
        np.testing.assert_array_equal(avg["w"], [3.0])
