"""Unified feature-access layer (DGL ``DistTensor``/GraphBolt-feature analog).

``repro.features`` decouples *what features a minibatch needs* from *how they
are fetched*.  A :class:`FeatureSource` serves rows for global node ids and
reports the simulated cost; a :class:`FeatureStore` composes a local and a
halo source and routes each minibatch's input nodes between them.  The
baseline DistDGL path, the MassiveGNN prefetch buffer, and ablation caches are
all sources — a pipeline builder constructs the ones it wants and hands the
objects to the store.
"""

from repro.features.source import FeatureSource, FetchResult, FetchStats
from repro.features.sources import (
    LocalKVStoreSource,
    RemoteRPCSource,
    TieredCacheSource,
)
from repro.features.store import FeatureStore

__all__ = [
    "FeatureSource",
    "FetchResult",
    "FetchStats",
    "LocalKVStoreSource",
    "RemoteRPCSource",
    "TieredCacheSource",
    "FeatureStore",
]
