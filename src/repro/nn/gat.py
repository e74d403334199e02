"""Graph Attention Network (GAT) in NumPy with manual backprop.

Section V-A4 of the paper extends the evaluation to a 2-head GAT on the
papers100M dataset to show the prefetching scheme is architecture-agnostic.
This implementation follows the original GAT formulation:

    e_ij   = LeakyReLU( a_l · (W h_i) + a_r · (W h_j) )
    α_ij   = softmax_j(e_ij)            (normalized over j's in-neighbors)
    h_j'   = act( Σ_i α_ij · W h_i )

Heads are concatenated on hidden layers and averaged on the output layer.
The backward pass propagates through the segment softmax, the attention
scores, and the shared projection, accumulating gradients for DDP averaging.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.layers import Module, Parameter
from repro.nn.tensor_utils import (
    leaky_relu,
    leaky_relu_backward,
    relu,
    relu_backward,
    segment_softmax,
    segment_softmax_backward,
    segment_sum,
    xavier_uniform,
    zeros,
)
from repro.sampling.block import Block, MiniBatch
from repro.utils.rng import SeedLike, derive_seed


class GATLayer(Module):
    """One multi-head graph attention layer."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_heads: int = 2,
        *,
        negative_slope: float = 0.2,
        combine: str = "concat",
        activation: str = "relu",
        seed: SeedLike = None,
    ):
        if combine not in ("concat", "mean"):
            raise ValueError("combine must be 'concat' or 'mean'")
        if activation not in ("relu", "none"):
            raise ValueError("activation must be 'relu' or 'none'")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.num_heads = int(num_heads)
        self.negative_slope = float(negative_slope)
        self.combine = combine
        self.activation = activation
        self.weight = Parameter(
            xavier_uniform((in_dim, num_heads * out_dim), seed=derive_seed(seed, 1))
        )
        self.attn_l = Parameter(
            xavier_uniform((num_heads, out_dim), seed=derive_seed(seed, 2))
        )
        self.attn_r = Parameter(
            xavier_uniform((num_heads, out_dim), seed=derive_seed(seed, 3))
        )
        self.bias = Parameter(zeros((self.output_dim,)))
        self._cache: Optional[dict] = None

    @property
    def output_dim(self) -> int:
        return self.out_dim * self.num_heads if self.combine == "concat" else self.out_dim

    # ------------------------------------------------------------------ #
    def forward(self, block: Block, h_src: np.ndarray) -> np.ndarray:
        if h_src.shape[0] != block.num_src:
            raise ValueError("h_src row count does not match block.num_src")
        H, D = self.num_heads, self.out_dim
        z_src = (h_src @ self.weight.value).reshape(block.num_src, H, D)
        z_dst = z_src[: block.num_dst]

        el = (z_src * self.attn_l.value[None]).sum(axis=2)            # (num_src, H)
        er = (z_dst * self.attn_r.value[None]).sum(axis=2)            # (num_dst, H)
        score_pre = el[block.edge_src] + er[block.edge_dst]           # (num_edges, H)
        by_dst = (block.edge_dst, block.num_dst, block.dst_indptr)
        score = leaky_relu(score_pre, self.negative_slope)
        alpha = segment_softmax(score, *by_dst)                       # (num_edges, H)

        messages = alpha[:, :, None] * z_src[block.edge_src]          # (num_edges, H, D)
        agg = segment_sum(messages, *by_dst)                          # (num_dst, H, D)

        if self.combine == "concat":
            combined = agg.reshape(block.num_dst, H * D)
        else:
            combined = agg.mean(axis=1)
        pre = combined + self.bias.value
        out = relu(pre) if self.activation == "relu" else pre

        self._cache = {
            "block": block,
            "h_src": h_src,
            "z_src": z_src,
            "alpha": alpha,
            "score_pre": score_pre,
            "agg": agg,
            "pre": pre,
        }
        return out

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        """Accumulate parameter gradients; return d(loss)/d(h_src) unless *input_grad* is false."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        block: Block = cache["block"]
        H, D = self.num_heads, self.out_dim

        grad_pre = relu_backward(grad_out, cache["pre"]) if self.activation == "relu" else grad_out
        self.bias.grad += grad_pre.sum(axis=0)

        if self.combine == "concat":
            grad_agg = grad_pre.reshape(block.num_dst, H, D)
        else:
            grad_agg = np.repeat(grad_pre[:, None, :], H, axis=1) / H

        # Through the segment sum: every edge message gets its dst's gradient.
        grad_messages = grad_agg[block.edge_dst]                      # (num_edges, H, D)
        z_src_e = cache["z_src"][block.edge_src]
        alpha = cache["alpha"]

        grad_alpha = (grad_messages * z_src_e).sum(axis=2)            # (num_edges, H)
        by_dst = (block.edge_dst, block.num_dst, block.dst_indptr)
        grad_score = segment_softmax_backward(grad_alpha, alpha, *by_dst)
        grad_score_pre = leaky_relu_backward(grad_score, cache["score_pre"], self.negative_slope)
        grad_er = segment_sum(grad_score_pre, *by_dst)

        # Both source-side sums in one reduce, so edge_src is sorted once: (num_src, H, D + 1).
        per_edge = np.empty((block.num_edges, H, D + 1), dtype=grad_messages.dtype)
        np.multiply(alpha[:, :, None], grad_messages, out=per_edge[:, :, :D])
        per_edge[:, :, D] = grad_score_pre
        by_src = segment_sum(per_edge, block.edge_src, block.num_src)
        grad_z_src, grad_el = by_src[:, :, :D], by_src[:, :, D]

        # el = sum(z_src * attn_l); er = sum(z_dst * attn_r)
        self.attn_l.grad += (grad_el[:, :, None] * cache["z_src"]).sum(axis=0)
        self.attn_r.grad += (grad_er[:, :, None] * cache["z_src"][: block.num_dst]).sum(axis=0)
        grad_z_src += grad_el[:, :, None] * self.attn_l.value[None]
        grad_z_src[: block.num_dst] += grad_er[:, :, None] * self.attn_r.value[None]

        grad_z_flat = grad_z_src.reshape(block.num_src, H * D)
        self.weight.grad += cache["h_src"].T @ grad_z_flat
        self._cache = None
        return grad_z_flat @ self.weight.value.T if input_grad else None

    def flops(self, block: Block) -> float:
        """Approximate forward+backward FLOPs (GAT is heavier than SAGE per edge)."""
        proj = 2.0 * block.num_src * self.in_dim * self.num_heads * self.out_dim
        attn = 6.0 * block.num_edges * self.num_heads * self.out_dim
        return 3.0 * (proj + attn)

    __call__ = forward


class GAT(Module):
    """Multi-layer, multi-head GAT node classifier on sampled blocks."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 2,
        num_heads: int = 2,
        seed: SeedLike = 0,
    ):
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.in_dim = int(in_dim)
        self.hidden_dim = int(hidden_dim)
        self.num_classes = int(num_classes)
        self.num_layers = int(num_layers)
        self.num_heads = int(num_heads)
        self.layers: List[GATLayer] = []
        current_dim = in_dim
        for i in range(num_layers):
            is_last = i == num_layers - 1
            layer = GATLayer(
                current_dim,
                num_classes if is_last else hidden_dim,
                num_heads=num_heads,
                combine="mean" if is_last else "concat",
                activation="none" if is_last else "relu",
                seed=derive_seed(seed, 20 + i),
            )
            self.layers.append(layer)
            current_dim = layer.output_dim

    def forward(self, blocks: Sequence[Block], features: np.ndarray) -> np.ndarray:
        if len(blocks) != self.num_layers:
            raise ValueError(
                f"model has {self.num_layers} layers but received {len(blocks)} blocks"
            )
        h = np.asarray(features, dtype=np.float32)
        for layer, block in zip(self.layers, blocks):
            h = layer.forward(block, h)
        return h

    def backward(self, grad_logits: np.ndarray) -> None:
        """Fill every parameter's ``grad``; the outermost layer skips its unused input gradient."""
        grad = grad_logits
        for layer in reversed(self.layers):
            grad = layer.backward(grad, input_grad=layer is not self.layers[0])

    def predict(self, blocks: Sequence[Block], features: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(blocks, features), axis=1)

    def flops(self, minibatch: MiniBatch) -> float:
        return float(sum(layer.flops(block) for layer, block in zip(self.layers, minibatch.blocks)))

    __call__ = forward
