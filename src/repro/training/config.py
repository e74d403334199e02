"""Run configuration for the training engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.validation import check_positive


@dataclass
class TrainConfig:
    """Hyperparameters of a training run (shared by both pipelines)."""

    epochs: int = 5
    arch: str = "sage"
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 2            # GAT only; the paper uses 2 heads
    optimizer: str = "adam"
    learning_rate: float = 5e-3
    weight_decay: float = 0.0
    seed: int = 0
    evaluate: bool = False        # run sampled validation/test accuracy at the end
    max_steps_per_epoch: Optional[int] = None  # cap steps for quick tests/benchmarks

    def __post_init__(self) -> None:
        check_positive(self.epochs, "epochs")
        check_positive(self.hidden_dim, "hidden_dim")
        check_positive(self.num_layers, "num_layers")
        check_positive(self.num_heads, "num_heads")
        check_positive(self.learning_rate, "learning_rate")
        if self.arch not in ("sage", "graphsage", "gat"):
            raise ValueError(f"arch must be 'sage' or 'gat', got {self.arch!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.max_steps_per_epoch is not None:
            check_positive(self.max_steps_per_epoch, "max_steps_per_epoch")
