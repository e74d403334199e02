"""Parameters and the module base class shared by the GNN models."""

from __future__ import annotations

from typing import Dict

import numpy as np


class Parameter:
    """A trainable array together with its accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(shape={self.value.shape})"


class Module:
    """Minimal module base: named parameters, grads, and state dicts."""

    def named_parameters(self) -> Dict[str, Parameter]:
        params: Dict[str, Parameter] = {}
        for attr, value in vars(self).items():
            if isinstance(value, Parameter):
                params[attr] = value
            elif isinstance(value, Module):
                for sub_name, sub_param in value.named_parameters().items():
                    params[f"{attr}.{sub_name}"] = sub_param
            elif isinstance(value, (list, tuple)):
                for idx, item in enumerate(value):
                    if isinstance(item, Module):
                        for sub_name, sub_param in item.named_parameters().items():
                            params[f"{attr}.{idx}.{sub_name}"] = sub_param
        return params

    def parameters(self) -> Dict[str, np.ndarray]:
        """Parameter values keyed by name (views, not copies)."""
        return {name: p.value for name, p in self.named_parameters().items()}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Accumulated gradients keyed by name (views, not copies)."""
        return {name: p.grad for name, p in self.named_parameters().items()}

    def zero_grad(self) -> None:
        for p in self.named_parameters().values():
            p.zero_grad()

    def num_parameters(self) -> int:
        return int(sum(p.value.size for p in self.named_parameters().values()))

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self.named_parameters().items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        if set(state.keys()) != set(params.keys()):
            missing = set(params) ^ set(state)
            raise KeyError(f"state dict mismatch on keys: {sorted(missing)}")
        for name, value in state.items():
            if params[name].value.shape != value.shape:
                raise ValueError(f"shape mismatch for {name}")
            params[name].value[...] = value
