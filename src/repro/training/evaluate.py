"""Model evaluation with sampled inference on the full (unpartitioned) graph.

The paper reports that prefetching leaves model accuracy unchanged because it
only reorganizes the data pipeline.  Evaluation here runs single-process
sampled inference over the full graph — the distributed data path is not
involved — so the same function scores models trained by either pipeline.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.datasets import GraphDataset
from repro.sampling.neighbor_sampler import NeighborSampler
from repro.utils.rng import SeedLike
from repro.utils.validation import check_1d_int_array, check_positive


def evaluate_accuracy(
    model,
    dataset: GraphDataset,
    node_ids: np.ndarray,
    fanouts: Sequence[int] = (10, 25),
    batch_size: int = 512,
    seed: SeedLike = 0,
    max_batches: Optional[int] = None,
) -> float:
    """Sampled-inference accuracy of *model* on *node_ids* of *dataset*."""
    check_positive(batch_size, "batch_size")
    node_ids = check_1d_int_array(node_ids, "node_ids", max_value=dataset.num_nodes)
    if len(node_ids) == 0:
        return 0.0
    sampler = NeighborSampler(dataset.graph, fanouts, seed=seed)
    correct = 0
    total = 0
    num_batches = int(np.ceil(len(node_ids) / batch_size))
    if max_batches is not None:
        num_batches = min(num_batches, max_batches)
    for b in range(num_batches):
        batch = node_ids[b * batch_size: (b + 1) * batch_size]
        minibatch = sampler.sample(batch, labels=dataset.labels)
        feats = dataset.features[minibatch.input_global]
        logits = model.forward(minibatch.blocks, feats)
        preds = np.argmax(logits, axis=1)
        correct += int(np.sum(preds == minibatch.labels))
        total += len(minibatch.labels)
    return correct / total if total else 0.0
