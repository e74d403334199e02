"""Optimizers operating on name->array parameter/gradient dictionaries.

Both optimizers update parameters *in place*, which is what keeps the single
shared model replica of the simulated DDP trainers consistent (the averaged
gradients are applied exactly once per step, numerically identical to every
replica applying the same update).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.utils.validation import check_positive

ParamDict = Dict[str, np.ndarray]


class Optimizer:
    """Base class: subclasses implement :meth:`step`."""

    def step(self, params: ParamDict, grads: ParamDict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    @staticmethod
    def _check_alignment(params: ParamDict, grads: ParamDict) -> None:
        if set(params.keys()) != set(grads.keys()):
            missing = set(params) ^ set(grads)
            raise KeyError(f"parameter/gradient key mismatch: {sorted(missing)}")


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.0, weight_decay: float = 0.0):
        check_positive(lr, "lr")
        if momentum < 0 or momentum >= 1:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[str, np.ndarray] = {}

    def step(self, params: ParamDict, grads: ParamDict) -> None:
        self._check_alignment(params, grads)
        for name, value in params.items():
            grad = grads[name]
            if self.weight_decay:
                grad = grad + self.weight_decay * value
            if self.momentum:
                vel = self._velocity.setdefault(name, np.zeros_like(value))
                vel *= self.momentum
                vel += grad
                update = vel
            else:
                update = grad
            value -= self.lr * update


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        check_positive(lr, "lr")
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params: ParamDict, grads: ParamDict) -> None:
        self._check_alignment(params, grads)
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for name, value in params.items():
            grad = grads[name]
            if self.weight_decay:
                grad = grad + self.weight_decay * value
            m = self._m.setdefault(name, np.zeros_like(value))
            v = self._v.setdefault(name, np.zeros_like(value))
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def build_optimizer(name: str, lr: float, **kwargs) -> Optimizer:
    """Factory: ``'sgd'`` or ``'adam'``."""
    if name == "sgd":
        return SGD(lr=lr, **kwargs)
    if name == "adam":
        return Adam(lr=lr, **kwargs)
    raise ValueError(f"unknown optimizer {name!r}")
