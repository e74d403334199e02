"""NumPy GNN models: GraphSAGE, GAT, losses, and optimizers."""

from repro.nn.gat import GAT, GATLayer
from repro.nn.graphsage import GraphSAGE, SAGELayer
from repro.nn.layers import Module, Parameter
from repro.nn.loss import accuracy, cross_entropy, softmax
from repro.nn.optim import Adam, Optimizer, SGD, build_optimizer


def build_model(
    arch: str,
    in_dim: int,
    hidden_dim: int,
    num_classes: int,
    num_layers: int = 2,
    num_heads: int = 2,
    seed: int = 0,
):
    """Factory for the architectures the paper evaluates (``sage`` and ``gat``)."""
    if arch in ("sage", "graphsage"):
        return GraphSAGE(in_dim, hidden_dim, num_classes, num_layers=num_layers, seed=seed)
    if arch == "gat":
        return GAT(
            in_dim, hidden_dim, num_classes, num_layers=num_layers, num_heads=num_heads, seed=seed
        )
    raise ValueError(f"unknown architecture {arch!r}; expected 'sage' or 'gat'")


__all__ = [
    "GAT",
    "GATLayer",
    "GraphSAGE",
    "SAGELayer",
    "Module",
    "Parameter",
    "accuracy",
    "cross_entropy",
    "softmax",
    "Adam",
    "Optimizer",
    "SGD",
    "build_optimizer",
    "build_model",
]
