"""One trainer's minibatch pipeline (GraphBolt datapipe analog).

GraphBolt expresses minibatch preparation as a chain of datapipe stages —
``ItemSampler → sample_neighbor → fetch_feature → copy_to`` — whose one
variable part is the feature store ``fetch_feature`` reads.  This module
gives the simulator the same shape without the chaining: a
:class:`MiniBatchPipeline` holds a trainer's
:class:`~repro.sampling.dataloader.DistDataLoader`, a
:class:`~repro.features.store.FeatureStore` and a timing policy, and its
:meth:`~MiniBatchPipeline.epoch` runs, per seed batch,

* ``SeedIterator.epoch()`` — shuffled seed batches for one epoch;
* ``DistDataLoader.sample`` — fan-out neighbor sampling into a
  :class:`~repro.sampling.block.MiniBatch`;
* ``FeatureStore.fetch_minibatch`` — the input feature matrix (local vs.
  halo routing) and what it cost;
* a check that the matrix has one row per input node, then one numbered
  :class:`PipelineBatch`::

    pipeline = MiniBatchPipeline(trainer.dataloader, store, timing, "mine")
    for batch in pipeline.epoch():
        ...

The training engine runs whatever pipeline it is given: the DistDGL baseline
and MassiveGNN prefetching differ only in the feature store's halo source and
the pipeline's timing policy, not in engine code.  Named configurations are
the rows of :data:`repro.training.pipelines.PIPELINES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

import numpy as np

from repro.sampling.block import MiniBatch
from repro.sampling.dataloader import DistDataLoader

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (features imports sampling)
    from repro.features.source import FetchResult
    from repro.features.store import FeatureStore


@dataclass
class PipelineBatch:
    """One fully prepared minibatch: sampled structure + features + fetch cost."""

    minibatch: MiniBatch
    features: np.ndarray
    fetch: "FetchResult"
    step: int

    @property
    def labels(self) -> np.ndarray:
        return self.minibatch.labels

    @property
    def blocks(self):
        return self.minibatch.blocks


class MiniBatchPipeline:
    """Seed → sample → fetch → batch over one trainer's loader and feature store.

    Beyond iteration, a pipeline carries what the training engine needs to run
    it without knowing how it was configured: the ``timing`` policy that maps
    component costs onto the simulated clock (Eq. 2 vs. Eqs. 3–5), the
    :class:`FeatureStore`, and the one-time ``init_report`` of a source that
    had to be populated before the first minibatch.  The constructor runs
    that population (``feature_store.initialize()``).
    """

    def __init__(
        self,
        dataloader: DistDataLoader,
        feature_store: "FeatureStore",
        timing: Any,
        name: str,
    ):
        self.dataloader = dataloader
        self.feature_store = feature_store
        self.timing = timing
        self.name = name
        self.init_report = feature_store.initialize()
        self._step = 0

    def epoch(self) -> Iterator[PipelineBatch]:
        """One epoch of batches, prepared lazily.

        The seed iterator's epoch starts here, not at the first ``next()``:
        an iterator opened for a trainer that never steps (a held-out elastic
        rank) still moves the drift window.
        """
        return self._batches(self.dataloader.seed_iterator.epoch())

    def _batches(self, seed_batches: Iterable[np.ndarray]) -> Iterator[PipelineBatch]:
        for seeds in seed_batches:
            minibatch = self.dataloader.sample(seeds)
            features, fetch = self.feature_store.fetch_minibatch(minibatch)
            if features.ndim != 2 or features.shape[0] != minibatch.num_input_nodes:
                raise ValueError(
                    f"feature matrix shape {features.shape} does not provide one "
                    f"row per input node ({minibatch.num_input_nodes} expected)"
                )
            step = self._step
            self._step += 1
            yield PipelineBatch(minibatch, features, fetch, step)

    # ------------------------------------------------------------------ #
    # Telemetry pass-throughs
    # ------------------------------------------------------------------ #
    @property
    def init_time_s(self) -> float:
        """Simulated one-time initialization cost charged before step 0."""
        if self.init_report is None:
            return 0.0
        return float(self.init_report.get("rpc_time_s", 0.0))

    @property
    def prefetcher(self):
        return self.feature_store.prefetcher

    @property
    def hit_tracker(self):
        return self.feature_store.tracker

    @property
    def hit_rate(self) -> Optional[float]:
        return self.feature_store.hit_rate
