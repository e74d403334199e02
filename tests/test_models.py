"""Tests for the GraphSAGE and GAT models, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn import build_model
from repro.nn.gat import GAT, GATLayer
from repro.nn.graphsage import GraphSAGE, SAGELayer
from repro.nn.loss import cross_entropy
from repro.sampling.block import Block
from repro.sampling.neighbor_sampler import NeighborSampler


def _toy_block(num_dst=2, num_src=5, num_edges=6, seed=0):
    """A small random block for layer-level tests."""
    rng = np.random.default_rng(seed)
    edge_src = rng.integers(0, num_src, size=num_edges)
    edge_dst = rng.integers(0, num_dst, size=num_edges)
    return Block(
        src_nodes=np.arange(num_src),
        dst_nodes=np.arange(num_dst),
        edge_src=edge_src,
        edge_dst=edge_dst,
        src_global=np.arange(num_src) + 100,
        dst_global=np.arange(num_dst) + 100,
    )


def _numerical_param_grad(layer_forward_loss, param_array, indices, eps=1e-3):
    """Central-difference gradient of a scalar loss wrt selected param entries."""
    grads = {}
    for idx in indices:
        orig = param_array[idx]
        param_array[idx] = orig + eps
        lp = layer_forward_loss()
        param_array[idx] = orig - eps
        lm = layer_forward_loss()
        param_array[idx] = orig
        grads[idx] = (lp - lm) / (2 * eps)
    return grads


class TestSAGELayer:
    def test_forward_shape(self):
        block = _toy_block()
        layer = SAGELayer(8, 4, seed=0)
        h_src = np.random.default_rng(0).normal(size=(block.num_src, 8)).astype(np.float32)
        out = layer.forward(block, h_src)
        assert out.shape == (block.num_dst, 4)

    def test_forward_rejects_wrong_rows(self):
        block = _toy_block()
        layer = SAGELayer(8, 4)
        with pytest.raises(ValueError):
            layer.forward(block, np.zeros((block.num_src + 1, 8), dtype=np.float32))

    def test_isolated_dst_uses_only_self(self):
        # A dst node with no in-edges must still produce finite output.
        block = Block(
            src_nodes=np.array([0, 1, 2]),
            dst_nodes=np.array([0, 1]),
            edge_src=np.array([2]),
            edge_dst=np.array([0]),
            src_global=np.arange(3),
            dst_global=np.arange(2),
        )
        layer = SAGELayer(4, 4, seed=0)
        out = layer.forward(block, np.ones((3, 4), dtype=np.float32))
        assert np.all(np.isfinite(out))

    def test_gradient_check_weights(self):
        rng = np.random.default_rng(3)
        block = _toy_block(seed=3)
        layer = SAGELayer(6, 3, activation="relu", seed=1)
        h_src = rng.normal(size=(block.num_src, 6)).astype(np.float32)
        grad_out = rng.normal(size=(block.num_dst, 3)).astype(np.float32)

        def loss():
            return float(np.sum(grad_out * layer.forward(block, h_src)))

        loss()  # populate cache
        layer.zero_grad()
        layer.forward(block, h_src)
        layer.backward(grad_out)
        for pname in ("w_self", "w_neigh"):
            param = getattr(layer, pname)
            numerical = _numerical_param_grad(loss, param.value, [(0, 0), (2, 1)])
            for idx, num in numerical.items():
                assert num == pytest.approx(param.grad[idx], rel=5e-2, abs=5e-3)

    def test_gradient_check_inputs(self):
        rng = np.random.default_rng(4)
        block = _toy_block(seed=5)
        layer = SAGELayer(4, 3, activation="none", seed=2)
        h_src = rng.normal(size=(block.num_src, 4)).astype(np.float64)
        grad_out = rng.normal(size=(block.num_dst, 3)).astype(np.float64)
        layer.forward(block, h_src.astype(np.float32))
        grad_h = layer.backward(grad_out.astype(np.float32))

        eps = 1e-3
        for i, j in [(0, 0), (3, 2), (4, 1)]:
            plus = h_src.copy(); plus[i, j] += eps
            minus = h_src.copy(); minus[i, j] -= eps
            lp = np.sum(grad_out * layer.forward(block, plus.astype(np.float32)))
            lm = np.sum(grad_out * layer.forward(block, minus.astype(np.float32)))
            num = (lp - lm) / (2 * eps)
            assert num == pytest.approx(grad_h[i, j], rel=5e-2, abs=5e-3)

    def test_flops_positive(self):
        layer = SAGELayer(8, 4)
        assert layer.flops(_toy_block()) > 0

    def test_backward_without_input_grad_leaves_parameter_grads_alone(self):
        block = _toy_block(num_dst=4, num_src=9, num_edges=20, seed=2)
        rng = np.random.default_rng(2)
        h_src = rng.normal(size=(block.num_src, 6)).astype(np.float32)
        grad_out = rng.normal(size=(block.num_dst, 3)).astype(np.float32)
        grads = []
        for input_grad in (True, False):
            layer = SAGELayer(6, 3, seed=1)
            layer.forward(block, h_src)
            returned = layer.backward(grad_out, input_grad=input_grad)
            assert (returned is None) == (not input_grad)
            grads.append(layer.gradients())
        for name in grads[0]:
            np.testing.assert_array_equal(grads[0][name], grads[1][name], err_msg=name)

    @pytest.mark.parametrize("layer_cls", [SAGELayer, GATLayer])
    def test_shuffled_edges_match_their_sorted_twin(self, layer_cls):
        """Edge order is not part of a block's meaning: Block sorts, the layers agree."""
        rng = np.random.default_rng(6)
        num_src, num_dst, num_edges = 9, 4, 24
        edge_src = rng.integers(0, num_src, size=num_edges)
        edge_dst = rng.integers(0, num_dst, size=num_edges)
        assert np.any(np.diff(edge_dst) < 0)
        order = np.argsort(edge_dst, kind="stable")  # ties keep their arrival order

        def make(es, ed):
            return Block(np.arange(num_src), np.arange(num_dst), es, ed,
                         np.arange(num_src), np.arange(num_dst))

        shuffled, twin = make(edge_src, edge_dst), make(edge_src[order], edge_dst[order])

        h_src = rng.normal(size=(num_src, 6)).astype(np.float32)
        results = []
        for block in (shuffled, twin):
            layer = layer_cls(6, 3, seed=3)
            out = layer.forward(block, h_src)
            grad_h = layer.backward(np.ones_like(out))
            results.append((out, grad_h, layer.gradients()))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])
        for name in results[0][2]:
            np.testing.assert_array_equal(results[0][2][name], results[1][2][name], err_msg=name)


class TestGATLayer:
    def test_forward_shape_concat_and_mean(self):
        block = _toy_block()
        h_src = np.random.default_rng(0).normal(size=(block.num_src, 6)).astype(np.float32)
        concat = GATLayer(6, 4, num_heads=2, combine="concat", seed=0)
        assert concat.forward(block, h_src).shape == (block.num_dst, 8)
        mean = GATLayer(6, 4, num_heads=2, combine="mean", activation="none", seed=0)
        assert mean.forward(block, h_src).shape == (block.num_dst, 4)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            GATLayer(4, 4, combine="sum")
        with pytest.raises(ValueError):
            GATLayer(4, 4, activation="tanh")

    def test_gradient_check_weight(self):
        rng = np.random.default_rng(7)
        block = _toy_block(num_dst=3, num_src=6, num_edges=10, seed=7)
        layer = GATLayer(5, 3, num_heads=2, combine="concat", activation="none", seed=3)
        h_src = rng.normal(size=(block.num_src, 5)).astype(np.float32)
        grad_out = rng.normal(size=(block.num_dst, 6)).astype(np.float32)

        def loss():
            return float(np.sum(grad_out * layer.forward(block, h_src)))

        layer.zero_grad()
        layer.forward(block, h_src)
        layer.backward(grad_out)
        numerical = _numerical_param_grad(loss, layer.weight.value, [(0, 0), (2, 3)])
        for idx, num in numerical.items():
            assert num == pytest.approx(layer.weight.grad[idx], rel=8e-2, abs=8e-3)

    def test_gradient_check_attention_params(self):
        rng = np.random.default_rng(8)
        block = _toy_block(num_dst=3, num_src=6, num_edges=12, seed=9)
        layer = GATLayer(4, 3, num_heads=2, combine="mean", activation="none", seed=4)
        h_src = rng.normal(size=(block.num_src, 4)).astype(np.float32)
        grad_out = rng.normal(size=(block.num_dst, 3)).astype(np.float32)

        def loss():
            return float(np.sum(grad_out * layer.forward(block, h_src)))

        layer.zero_grad()
        layer.forward(block, h_src)
        layer.backward(grad_out)
        numerical = _numerical_param_grad(loss, layer.attn_l.value, [(0, 0), (1, 2)], eps=1e-3)
        for idx, num in numerical.items():
            assert num == pytest.approx(layer.attn_l.grad[idx], rel=8e-2, abs=8e-3)

    def test_gradient_check_inputs(self):
        rng = np.random.default_rng(9)
        block = _toy_block(num_dst=2, num_src=5, num_edges=8, seed=11)
        layer = GATLayer(4, 2, num_heads=1, combine="concat", activation="none", seed=5)
        h_src = rng.normal(size=(block.num_src, 4)).astype(np.float64)
        grad_out = rng.normal(size=(block.num_dst, 2)).astype(np.float64)
        layer.forward(block, h_src.astype(np.float32))
        grad_h = layer.backward(grad_out.astype(np.float32))
        eps = 1e-3
        for i, j in [(0, 0), (4, 3)]:
            plus = h_src.copy(); plus[i, j] += eps
            minus = h_src.copy(); minus[i, j] -= eps
            lp = np.sum(grad_out * layer.forward(block, plus.astype(np.float32)))
            lm = np.sum(grad_out * layer.forward(block, minus.astype(np.float32)))
            num = (lp - lm) / (2 * eps)
            assert num == pytest.approx(grad_h[i, j], rel=8e-2, abs=8e-3)


class TestFullModels:
    def _minibatch(self, dataset, num_layers=2, seed=0, num_seeds=32):
        sampler = NeighborSampler(dataset.graph, [4] * num_layers, seed=seed)
        return sampler.sample(np.arange(num_seeds), labels=dataset.labels)

    def test_graphsage_forward_shapes(self, small_dataset):
        mb = self._minibatch(small_dataset)
        model = GraphSAGE(small_dataset.feature_dim, 16, small_dataset.num_classes, seed=0)
        logits = model.forward(mb.blocks, small_dataset.features[mb.input_global])
        assert logits.shape == (mb.blocks[-1].num_dst, small_dataset.num_classes)

    def test_wrong_block_count_raises(self, small_dataset):
        mb = self._minibatch(small_dataset, num_layers=1)
        model = GraphSAGE(small_dataset.feature_dim, 16, small_dataset.num_classes, num_layers=2)
        with pytest.raises(ValueError):
            model.forward(mb.blocks, small_dataset.features[mb.input_global])

    def test_graphsage_learns_on_small_task(self, small_dataset):
        """A few full-batch training steps must reduce the loss substantially."""
        model = GraphSAGE(small_dataset.feature_dim, 32, small_dataset.num_classes, seed=0)
        from repro.nn.optim import Adam

        opt = Adam(lr=1e-2)
        rng = np.random.default_rng(0)
        sampler = NeighborSampler(small_dataset.graph, [5, 5], seed=1)
        seeds = small_dataset.train_nids()[:128]
        losses = []
        for _ in range(15):
            mb = sampler.sample(seeds, labels=small_dataset.labels)
            logits = model.forward(mb.blocks, small_dataset.features[mb.input_global])
            loss, grad = cross_entropy(logits, mb.labels)
            losses.append(loss)
            model.backward(grad)
            opt.step(model.parameters(), model.gradients())
            model.zero_grad()
        assert losses[-1] < 0.7 * losses[0]

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_graphsage_backward_skips_only_the_unused_input_gradient(self, small_dataset, num_layers):
        """Parameter grads are bit-identical to chaining every layer's full backward by hand."""
        mb = self._minibatch(small_dataset, num_layers=num_layers, seed=3)
        feats = small_dataset.features[mb.input_global]
        grads = []
        for by_hand in (False, True):
            model = GraphSAGE(small_dataset.feature_dim, 16, small_dataset.num_classes,
                              num_layers=num_layers, seed=0)
            _, grad = cross_entropy(model.forward(mb.blocks, feats), mb.labels)
            if by_hand:
                for layer in reversed(model.layers):
                    grad = layer.backward(grad)  # materialises every input gradient
                assert grad.shape == feats.shape and np.any(grad != 0)
            else:
                assert model.backward(grad) is None
            grads.append(model.gradients())
        assert grads[0].keys() == grads[1].keys()
        for name in grads[0]:
            np.testing.assert_array_equal(grads[0][name], grads[1][name], err_msg=name)

    def test_gat_forward_and_backward(self, small_dataset):
        mb = self._minibatch(small_dataset, num_seeds=16)
        model = GAT(small_dataset.feature_dim, 8, small_dataset.num_classes, num_heads=2, seed=0)
        logits = model.forward(mb.blocks, small_dataset.features[mb.input_global])
        assert logits.shape[1] == small_dataset.num_classes
        loss, grad = cross_entropy(logits, mb.labels)
        assert model.backward(grad) is None
        grads = model.gradients()
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert any(np.any(g != 0) for g in grads.values())

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_gat_backward_skips_only_the_unused_input_gradient(self, small_dataset, num_layers):
        """As for GraphSAGE: the by-hand chain yields the input gradient and the same grads."""
        mb = self._minibatch(small_dataset, num_layers=num_layers, seed=3)
        feats = small_dataset.features[mb.input_global]
        grads = []
        for by_hand in (False, True):
            model = GAT(small_dataset.feature_dim, 8, small_dataset.num_classes,
                        num_layers=num_layers, num_heads=2, seed=0)
            _, grad = cross_entropy(model.forward(mb.blocks, feats), mb.labels)
            if by_hand:
                for layer in reversed(model.layers):
                    grad = layer.backward(grad)
                assert grad.shape == feats.shape and np.any(grad != 0)
            else:
                assert model.backward(grad) is None
            grads.append(model.gradients())
        assert grads[0].keys() == grads[1].keys()
        for name in grads[0]:
            np.testing.assert_array_equal(grads[0][name], grads[1][name], err_msg=name)

    def test_predict(self, small_dataset):
        mb = self._minibatch(small_dataset, num_seeds=8)
        model = GraphSAGE(small_dataset.feature_dim, 8, small_dataset.num_classes, seed=0)
        preds = model.predict(mb.blocks, small_dataset.features[mb.input_global])
        assert preds.shape == (mb.blocks[-1].num_dst,)
        assert preds.max() < small_dataset.num_classes

    def test_flops_scale_with_minibatch_size(self, small_dataset):
        model = GraphSAGE(small_dataset.feature_dim, 16, small_dataset.num_classes, seed=0)
        small = self._minibatch(small_dataset, num_seeds=8)
        large = self._minibatch(small_dataset, num_seeds=64)
        assert model.flops(large) > model.flops(small)

    def test_build_model_factory(self):
        assert isinstance(build_model("sage", 8, 16, 4), GraphSAGE)
        assert isinstance(build_model("graphsage", 8, 16, 4), GraphSAGE)
        assert isinstance(build_model("gat", 8, 16, 4), GAT)
        with pytest.raises(ValueError):
            build_model("gcn", 8, 16, 4)

    def test_invalid_layer_counts(self):
        with pytest.raises(ValueError):
            GraphSAGE(8, 16, 4, num_layers=0)
        with pytest.raises(ValueError):
            GAT(8, 16, 4, num_layers=0)

    def test_state_dict_roundtrip_model(self, small_dataset):
        a = GraphSAGE(small_dataset.feature_dim, 8, small_dataset.num_classes, seed=0)
        b = GraphSAGE(small_dataset.feature_dim, 8, small_dataset.num_classes, seed=99)
        b.load_state_dict(a.state_dict())
        mb = self._minibatch(small_dataset, num_seeds=8)
        feats = small_dataset.features[mb.input_global]
        np.testing.assert_allclose(a.forward(mb.blocks, feats), b.forward(mb.blocks, feats))
