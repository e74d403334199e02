"""GraphSAGE (mean aggregator) implemented in NumPy with manual backprop.

The paper trains a 2-layer GraphSAGE with fan-out {10, 25} and batch size 2000
(Section V).  This implementation consumes the sampled :class:`Block` objects
produced by the neighbor sampler: each layer computes

    h_dst' = act( h_dst @ W_self + mean_{u in N(dst)} h_u @ W_neigh + b )

and the model returns logits for the seed nodes of the minibatch.  The manual
backward pass mirrors the forward computation exactly and accumulates
gradients into each parameter's ``grad`` buffer, so the distributed trainers
can average them (synchronous DDP) before the optimizer step.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.layers import Module, Parameter
from repro.nn.tensor_utils import (
    ACTIVATIONS,
    mean_divisor,
    segment_mean,
    segment_sum,
    xavier_uniform,
    zeros,
)
from repro.sampling.block import Block, MiniBatch
from repro.utils.rng import SeedLike, derive_seed


class SAGELayer(Module):
    """One GraphSAGE layer with mean neighborhood aggregation."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str = "relu",
        seed: SeedLike = None,
    ):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.activation = activation
        self.w_self = Parameter(xavier_uniform((in_dim, out_dim), seed=derive_seed(seed, 1)))
        self.w_neigh = Parameter(xavier_uniform((in_dim, out_dim), seed=derive_seed(seed, 2)))
        self.bias = Parameter(zeros((out_dim,)))
        self._cache: Optional[dict] = None

    # ------------------------------------------------------------------ #
    def forward(self, block: Block, h_src: np.ndarray) -> np.ndarray:
        if h_src.shape[0] != block.num_src:
            raise ValueError(
                f"h_src has {h_src.shape[0]} rows but block expects {block.num_src}"
            )
        h_dst = h_src[: block.num_dst]
        # Mean of h_src[edge_src] per dst row; the (E, D) gather is never built.
        agg = segment_mean(
            h_src, block.edge_dst, block.num_dst, block.dst_indptr, rows=block.edge_src
        )
        pre = h_dst @ self.w_self.value + agg @ self.w_neigh.value + self.bias.value
        act_fn, _ = ACTIVATIONS[self.activation]
        out = act_fn(pre)
        self._cache = {"block": block, "h_src": h_src, "h_dst": h_dst, "agg": agg, "pre": pre}
        return out

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        """Accumulate parameter gradients; return d(loss)/d(h_src) unless *input_grad* is false."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        block: Block = cache["block"]
        _, act_bwd = ACTIVATIONS[self.activation]
        grad_pre = act_bwd(grad_out, cache["pre"])

        self.w_self.grad += cache["h_dst"].T @ grad_pre
        self.w_neigh.grad += cache["agg"].T @ grad_pre
        self.bias.grad += grad_pre.sum(axis=0)
        self._cache = None
        if not input_grad:
            return None

        # Each edge carries its dst's gradient / in-degree: read it through edge_dst.
        grad_agg = grad_pre @ self.w_neigh.value.T
        grad_agg /= mean_divisor(block.edge_dst, block.num_dst, block.dst_indptr, grad_agg)
        grad_h_src = segment_sum(grad_agg, block.edge_src, block.num_src, rows=block.edge_dst)
        grad_h_src[: block.num_dst] += grad_pre @ self.w_self.value.T
        return grad_h_src

    def flops(self, block: Block) -> float:
        """Approximate forward+backward FLOPs for this layer on *block*."""
        dense = 2.0 * block.num_dst * self.in_dim * self.out_dim * 2  # self + neigh matmuls
        aggregate = 2.0 * block.num_edges * self.in_dim
        return 3.0 * (dense + aggregate)  # forward + ~2x for backward

    __call__ = forward


class GraphSAGE(Module):
    """Multi-layer GraphSAGE node classifier operating on sampled blocks."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 2,
        activation: str = "relu",
        seed: SeedLike = 0,
    ):
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.in_dim = int(in_dim)
        self.hidden_dim = int(hidden_dim)
        self.num_classes = int(num_classes)
        self.num_layers = int(num_layers)
        dims: List[int] = [in_dim] + [hidden_dim] * (num_layers - 1) + [num_classes]
        self.layers: List[SAGELayer] = []
        for i in range(num_layers):
            act = activation if i < num_layers - 1 else "none"
            self.layers.append(
                SAGELayer(dims[i], dims[i + 1], activation=act, seed=derive_seed(seed, 10 + i))
            )

    # ------------------------------------------------------------------ #
    def forward(self, blocks: Sequence[Block], features: np.ndarray) -> np.ndarray:
        """Compute seed-node logits from the input-node *features*.

        ``blocks`` is ordered outermost first (as produced by the sampler);
        ``features`` rows align with ``blocks[0].src_nodes``.
        """
        if len(blocks) != self.num_layers:
            raise ValueError(
                f"model has {self.num_layers} layers but received {len(blocks)} blocks"
            )
        h = np.asarray(features, dtype=np.float32)
        for layer, block in zip(self.layers, blocks):
            h = layer.forward(block, h)
        return h

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate from seed-node logits into every parameter's ``grad``.

        The outermost layer skips its input gradient: that is one more
        aggregation over the largest block, for features that nothing trains.
        """
        grad = grad_logits
        for layer in reversed(self.layers):
            grad = layer.backward(grad, input_grad=layer is not self.layers[0])

    def flops(self, minibatch: MiniBatch) -> float:
        """Estimated FLOPs to train on *minibatch* (drives simulated t_DDP)."""
        return float(sum(layer.flops(block) for layer, block in zip(self.layers, minibatch.blocks)))

    __call__ = forward
