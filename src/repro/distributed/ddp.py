"""Distributed data-parallel (DDP) gradient synchronization.

The simulated trainers each hold a full replica of the GNN model and train on
their own minibatches; after every backward pass their gradients are averaged
(the synchronous allreduce PyTorch DDP performs) and every replica applies the
same update.  Because the trainers run sequentially inside one process, the
"allreduce" is an exact arithmetic mean — numerically equivalent to what NCCL
or Gloo would produce — and its *cost* is charged to each trainer's simulated
clock via the cost model's ring-allreduce estimate.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

GradDict = Dict[str, np.ndarray]


def allreduce_gradients(per_trainer_grads: Sequence[GradDict]) -> GradDict:
    """Average gradients across trainers (synchronous DDP).

    All trainers must provide the same parameter names and shapes; trainers
    that processed an empty minibatch may pass an empty dict and are excluded
    from the average (mirroring DDP's join semantics for uneven inputs).
    When *every* trainer joins with an empty dict the round is a no-op and an
    empty dict is returned — callers must skip the optimizer step for that
    round (see :func:`repro.training.engine.apply_averaged_gradients`) rather
    than divide by zero contributors or hit a parameter/gradient key mismatch.
    """
    contributing = [g for g in per_trainer_grads if g]
    if not contributing:
        return {}
    names = set(contributing[0].keys())
    for g in contributing[1:]:
        if set(g.keys()) != names:
            raise ValueError("all trainers must report gradients for the same parameters")
    averaged: GradDict = {}
    for name in names:
        stacked = np.stack([g[name] for g in contributing], axis=0)
        averaged[name] = stacked.mean(axis=0)
    return averaged
