"""Tests for tensor utilities, the module base class, losses, and optimizers."""

import math

import numpy as np
import pytest

from repro.nn.layers import Module, Parameter
from repro.nn.loss import accuracy, cross_entropy, softmax
from repro.nn.optim import Adam, SGD, build_optimizer
from repro.nn import tensor_utils as tu


class Linear(Module):
    """The smallest module with parameters: the weight and bias of ``x W + b``."""

    def __init__(self, in_dim, out_dim, seed=None):
        self.weight = Parameter(tu.xavier_uniform((in_dim, out_dim), seed=seed))
        self.bias = Parameter(tu.zeros((out_dim,)))


class TestSegmentOps:
    def test_segment_sum(self):
        values = np.array([[1.0], [2.0], [3.0]])
        out = tu.segment_sum(values, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out, [[3.0], [3.0]])

    def test_segment_mean(self):
        values = np.array([[2.0], [4.0], [6.0]])
        out = tu.segment_mean(values, np.array([0, 0, 1]), 3)
        np.testing.assert_allclose(out, [[3.0], [6.0], [0.0]])

    def test_segment_mean_backward_matches_numerical(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(6, 3)).astype(np.float64)
        seg = np.array([0, 0, 1, 1, 1, 2])
        grad_out = rng.normal(size=(3, 3))

        # numerical gradient of sum(grad_out * segment_mean(values))
        def f(v):
            return np.sum(grad_out * tu.segment_mean(v, seg, 3))

        analytic = (grad_out / tu.mean_divisor(seg, 3, None, grad_out))[seg]
        eps = 1e-6
        for i in (0, 3, 5):
            for j in range(3):
                plus = values.copy(); plus[i, j] += eps
                minus = values.copy(); minus[i, j] -= eps
                num = (f(plus) - f(minus)) / (2 * eps)
                assert num == pytest.approx(analytic[i, j], rel=1e-4, abs=1e-6)

    def test_segment_softmax_normalizes(self):
        scores = np.array([[1.0], [2.0], [3.0], [0.5]])
        seg = np.array([0, 0, 1, 1])
        alpha = tu.segment_softmax(scores, seg, 2)
        assert alpha[:2].sum() == pytest.approx(1.0)
        assert alpha[2:].sum() == pytest.approx(1.0)

    def test_segment_softmax_stable_for_large_scores(self):
        scores = np.array([[1000.0], [1001.0]])
        alpha = tu.segment_softmax(scores, np.array([0, 0]), 1)
        assert np.all(np.isfinite(alpha))
        assert alpha.sum() == pytest.approx(1.0)

    def test_segment_softmax_backward_matches_numerical(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(5, 2))
        seg = np.array([0, 0, 0, 1, 1])
        grad_alpha = rng.normal(size=(5, 2))

        def f(s):
            return np.sum(grad_alpha * tu.segment_softmax(s, seg, 2))

        alpha = tu.segment_softmax(scores, seg, 2)
        analytic = tu.segment_softmax_backward(grad_alpha, alpha, seg, 2)
        eps = 1e-6
        for i in range(5):
            for j in range(2):
                plus = scores.copy(); plus[i, j] += eps
                minus = scores.copy(); minus[i, j] -= eps
                num = (f(plus) - f(minus)) / (2 * eps)
                assert num == pytest.approx(analytic[i, j], rel=1e-4, abs=1e-6)

    def test_empty_softmax(self):
        out = tu.segment_softmax(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 3)
        assert out.shape == (0, 2)

    def test_activations(self):
        x = np.array([-1.0, 0.5])
        np.testing.assert_allclose(tu.relu(x), [0.0, 0.5])
        np.testing.assert_allclose(tu.leaky_relu(x, 0.1), [-0.1, 0.5])
        np.testing.assert_allclose(tu.relu_backward(np.ones(2), x), [0.0, 1.0])
        np.testing.assert_allclose(tu.leaky_relu_backward(np.ones(2), x, 0.1), [0.1, 1.0])

    def test_xavier_shapes_and_scale(self):
        w = tu.xavier_uniform((100, 50), seed=0)
        assert w.shape == (100, 50)
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= limit + 1e-6)


class TestModuleAndLinear:
    def test_named_parameters_nested(self):
        class Net(Module):
            def __init__(self):
                self.fc1 = Linear(4, 3, seed=0)
                self.fc2 = Linear(3, 2, seed=1)

        net = Net()
        names = set(net.named_parameters().keys())
        assert names == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}
        assert net.num_parameters() == 4 * 3 + 3 + 3 * 2 + 2

    def test_state_dict_roundtrip(self):
        a = Linear(4, 3, seed=0)
        b = Linear(4, 3, seed=1)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.value, b.weight.value)

    def test_state_dict_mismatch_raises(self):
        a = Linear(4, 3, seed=0)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.zeros((4, 3))})

    def test_zero_grad(self):
        layer = Linear(3, 2, seed=0)
        layer.weight.grad += 1.0
        layer.zero_grad()
        assert np.all(layer.weight.grad == 0)

    def test_parameter_repr(self):
        p = Parameter(np.zeros((2, 2)))
        assert "shape" in repr(p)


class TestLoss:
    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(5, 7)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), rtol=1e-6)

    def test_softmax_is_shift_invariant(self):
        logits = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 50.0), rtol=1e-12)

    def test_softmax_survives_huge_logits(self):
        probs = softmax(np.array([[1000.0, 0.0], [-1000.0, -1000.0]]))
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs, [[1.0, 0.0], [0.5, 0.5]])

    def test_cross_entropy_of_uniform_logits_is_log_classes(self):
        loss, grad = cross_entropy(np.zeros((3, 5)), np.array([0, 4, 2]))
        assert loss == pytest.approx(math.log(5))
        np.testing.assert_allclose(grad.sum(axis=1), np.zeros(3), atol=1e-7)

    @pytest.mark.parametrize("logits, labels", [
        (np.zeros(3), np.array([0, 1, 2])),
        (np.zeros((2, 3)), np.array([0, 1, 2])),
    ])
    def test_cross_entropy_rejects_misshapen_inputs(self, logits, labels):
        with pytest.raises(ValueError):
            cross_entropy(logits, labels)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, grad = cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-4
        assert np.all(np.abs(grad) < 1e-4)

    def test_cross_entropy_gradient_numerical(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 3, 2, 1])
        _, grad = cross_entropy(logits, labels)
        eps = 1e-5
        for i, j in [(0, 0), (1, 3), (3, 4)]:
            plus = logits.copy(); plus[i, j] += eps
            minus = logits.copy(); minus[i, j] -= eps
            num = (cross_entropy(plus, labels)[0] - cross_entropy(minus, labels)[0]) / (2 * eps)
            assert num == pytest.approx(grad[i, j], rel=1e-3, abs=1e-6)

    def test_cross_entropy_empty(self):
        loss, grad = cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        assert loss == 0.0 and grad.shape == (0, 3)

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((1, 2)), np.array([5]))

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)
        assert accuracy(np.array([0, 1]), np.array([0, 0])) == pytest.approx(0.5)
        assert accuracy(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)) == 0.0


class TestOptimizers:
    def _quadratic_problem(self):
        # Minimize ||x - target||^2 -> gradient 2*(x - target)
        target = np.array([1.0, -2.0, 3.0], dtype=np.float32)
        params = {"x": np.zeros(3, dtype=np.float32)}
        return params, target

    def test_sgd_converges(self):
        params, target = self._quadratic_problem()
        opt = SGD(lr=0.1)
        for _ in range(200):
            grads = {"x": 2 * (params["x"] - target)}
            opt.step(params, grads)
        np.testing.assert_allclose(params["x"], target, atol=1e-3)

    def test_sgd_momentum_converges(self):
        params, target = self._quadratic_problem()
        opt = SGD(lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.step(params, {"x": 2 * (params["x"] - target)})
        np.testing.assert_allclose(params["x"], target, atol=1e-2)

    def test_adam_converges(self):
        params, target = self._quadratic_problem()
        opt = Adam(lr=0.1)
        for _ in range(300):
            opt.step(params, {"x": 2 * (params["x"] - target)})
        np.testing.assert_allclose(params["x"], target, atol=1e-2)

    def test_weight_decay_shrinks_params(self):
        params = {"x": np.array([10.0], dtype=np.float32)}
        opt = SGD(lr=0.1, weight_decay=0.5)
        opt.step(params, {"x": np.zeros(1, dtype=np.float32)})
        assert params["x"][0] < 10.0

    def test_updates_in_place(self):
        params = {"x": np.array([1.0], dtype=np.float32)}
        view = params["x"]
        SGD(lr=0.5).step(params, {"x": np.array([1.0], dtype=np.float32)})
        assert view[0] == pytest.approx(0.5)

    def test_key_mismatch_raises(self):
        with pytest.raises(KeyError):
            SGD(lr=0.1).step({"x": np.zeros(1)}, {"y": np.zeros(1)})

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            SGD(lr=-1.0)
        with pytest.raises(ValueError):
            SGD(lr=0.1, momentum=1.5)

    def test_build_optimizer(self):
        assert isinstance(build_optimizer("sgd", 0.1), SGD)
        assert isinstance(build_optimizer("adam", 0.1), Adam)
        with pytest.raises(ValueError):
            build_optimizer("rmsprop", 0.1)
