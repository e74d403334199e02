"""Minibatch sampling: blocks (MFGs), neighbor sampler, seeds, loader, pipeline."""

from repro.sampling.block import Block, MiniBatch
from repro.sampling.dataloader import DistDataLoader
from repro.sampling.neighbor_sampler import (
    NeighborSampler,
    sample_for_partition,
    split_local_halo,
)
from repro.sampling.pipeline import MiniBatchPipeline, PipelineBatch
from repro.sampling.seeds import SeedIterator, SeedPartitioner

__all__ = [
    "Block",
    "MiniBatch",
    "DistDataLoader",
    "NeighborSampler",
    "sample_for_partition",
    "split_local_halo",
    "MiniBatchPipeline",
    "PipelineBatch",
    "SeedIterator",
    "SeedPartitioner",
]
