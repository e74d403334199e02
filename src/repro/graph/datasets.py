"""Synthetic OGB-style dataset registry.

Each dataset mirrors one of the paper's inputs (Table II): the relative node
counts, average degrees, and — exactly — the feature dimensions are preserved,
while absolute sizes are scaled down so experiments complete on a single
machine.  The ``scale`` argument lets tests shrink datasets further and lets
benchmark runs grow them.

=============  ===========  ===========  ============  ===========
paper dataset  paper |V|    paper |E|    feature dim   analog |V| (scale=1)
=============  ===========  ===========  ============  ===========
arxiv          0.16M        1.16M        128           4,096
products       2.4M         61.85M       100           16,384
reddit         0.23M        114.61M      602           6,144
papers         111M         1.6B         128           32,768
=============  ===========  ===========  ============  ===========
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph import generators as gen
from repro.utils.rng import SeedLike, derive_seed, ensure_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a synthetic dataset analog."""

    name: str
    base_num_nodes: int
    avg_degree: float
    feature_dim: int
    num_classes: int
    generator: str  # "rmat" or "planted"
    intra_fraction: float = 0.8
    degree_exponent: float = 2.3
    paper_num_nodes: str = ""
    paper_num_edges: str = ""

    def scaled_nodes(self, scale: float) -> int:
        """Node count after applying a scale multiplier (minimum 256 nodes)."""
        return max(256, int(round(self.base_num_nodes * scale)))


@dataclass
class GraphDataset:
    """A fully materialized dataset: graph + features + labels + splits."""

    name: str
    graph: CSRGraph
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int
    spec: Optional[DatasetSpec] = None
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def val_nids(self) -> np.ndarray:
        return np.nonzero(self.val_mask)[0].astype(np.int64)

    def test_nids(self) -> np.ndarray:
        return np.nonzero(self.test_mask)[0].astype(np.int64)

    def summary(self) -> Dict[str, float]:
        """Table-II style statistics."""
        degs = self.graph.out_degree()
        return {
            "num_nodes": float(self.num_nodes),
            "num_edges": float(self.num_edges),
            "feature_dim": float(self.feature_dim),
            "num_classes": float(self.num_classes),
            "avg_degree": float(degs.mean()) if len(degs) else 0.0,
            "max_degree": float(degs.max()) if len(degs) else 0.0,
        }


# Standard deviation of the non-informative feature noise, and rounds of
# neighbor-majority label smoothing applied to every analog.
FEATURE_NOISE = 1.0
HOMOPHILY_ROUNDS = 1


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
DATASET_SPECS: Dict[str, DatasetSpec] = {
    "arxiv": DatasetSpec(
        name="arxiv",
        base_num_nodes=4096,
        avg_degree=14.0,
        feature_dim=128,
        num_classes=40,
        generator="rmat",
        paper_num_nodes="0.16M",
        paper_num_edges="1.16M",
    ),
    "products": DatasetSpec(
        name="products",
        base_num_nodes=16384,
        avg_degree=50.0,
        feature_dim=100,
        num_classes=47,
        generator="planted",
        intra_fraction=0.75,
        paper_num_nodes="2.4M",
        paper_num_edges="61.85M",
    ),
    "reddit": DatasetSpec(
        name="reddit",
        base_num_nodes=6144,
        avg_degree=96.0,
        feature_dim=602,
        num_classes=41,
        generator="planted",
        intra_fraction=0.7,
        degree_exponent=2.1,
        paper_num_nodes="0.23M",
        paper_num_edges="114.61M",
    ),
    "papers": DatasetSpec(
        name="papers",
        base_num_nodes=32768,
        avg_degree=30.0,
        feature_dim=128,
        num_classes=172,
        generator="rmat",
        paper_num_nodes="111M",
        paper_num_edges="1.6B",
    ),
}


def available_datasets() -> list:
    """Names of the registered dataset analogs."""
    return sorted(DATASET_SPECS)


def load_dataset(
    name: str,
    scale: float = 1.0,
    seed: SeedLike = 0,
) -> GraphDataset:
    """Materialize a synthetic analog of one of the paper's datasets.

    Parameters
    ----------
    name:
        One of :func:`available_datasets` (``arxiv``, ``products``, ``reddit``,
        ``papers``).
    scale:
        Multiplier on the base node count (``0.1`` for quick tests, ``>1`` for
        larger benchmark runs).
    seed:
        Seed controlling graph topology, features, labels, and splits.
    """
    if name not in DATASET_SPECS:
        raise KeyError(f"unknown dataset {name!r}; available: {available_datasets()}")
    check_positive(scale, "scale")
    spec = DATASET_SPECS[name]
    num_nodes = spec.scaled_nodes(scale)
    rng = ensure_rng(seed)

    if spec.generator == "rmat":
        # Pick the nearest power-of-two scale for RMAT, then trim.
        rmat_scale = max(8, int(np.ceil(np.log2(num_nodes))))
        edge_factor = max(1, int(round(spec.avg_degree / 2)))
        graph_full = gen.rmat_graph(
            rmat_scale, edge_factor, seed=derive_seed(seed, 1)
        )
        keep = np.arange(num_nodes, dtype=np.int64)
        graph, _ = graph_full.induced_subgraph(keep)
        labels = _degree_band_labels(graph, spec.num_classes, rng)
    elif spec.generator == "planted":
        graph, labels = gen.planted_partition_graph(
            num_nodes,
            spec.num_classes,
            spec.avg_degree,
            intra_fraction=spec.intra_fraction,
            degree_exponent=spec.degree_exponent,
            seed=derive_seed(seed, 2),
        )
    else:  # pragma: no cover - registry is static
        raise ValueError(f"unknown generator kind {spec.generator!r}")

    labels = gen.smooth_labels_by_propagation(
        graph, labels, rounds=HOMOPHILY_ROUNDS, seed=derive_seed(seed, 3)
    )
    labels = np.clip(labels, 0, spec.num_classes - 1)
    features = gen.class_informative_features(
        labels, spec.feature_dim, noise=FEATURE_NOISE, seed=derive_seed(seed, 4)
    )
    train_mask, val_mask, test_mask = gen.train_val_test_split(
        graph.num_nodes, seed=derive_seed(seed, 5)
    )
    return GraphDataset(
        name=name,
        graph=graph,
        features=features,
        labels=labels,
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
        num_classes=spec.num_classes,
        spec=spec,
        metadata={"scale": float(scale)},
    )


def make_custom_dataset(
    num_nodes: int,
    avg_degree: float,
    feature_dim: int,
    num_classes: int,
    generator: str = "planted",
    seed: SeedLike = 0,
    name: str = "custom",
) -> GraphDataset:
    """Build a dataset outside the registry (used by examples and tests)."""
    spec = DatasetSpec(
        name=name,
        base_num_nodes=num_nodes,
        avg_degree=avg_degree,
        feature_dim=feature_dim,
        num_classes=num_classes,
        generator=generator,
    )
    original = DATASET_SPECS.get(name)
    DATASET_SPECS[name] = spec
    try:
        return load_dataset(name, scale=1.0, seed=seed)
    finally:
        if original is None:
            DATASET_SPECS.pop(name, None)
        else:
            DATASET_SPECS[name] = original


def _degree_band_labels(
    graph: CSRGraph, num_classes: int, rng: np.random.Generator
) -> np.ndarray:
    """Labels correlated with graph structure (degree bands + noise).

    Used for RMAT graphs, which do not carry planted communities; a structural
    label keeps the classification task learnable from topology + features.
    """
    degs = graph.out_degree().astype(np.float64)
    ranks = np.argsort(np.argsort(degs))
    bands = (ranks * num_classes // max(1, graph.num_nodes)).astype(np.int64)
    noise = rng.integers(0, num_classes, size=graph.num_nodes)
    take_noise = rng.random(graph.num_nodes) < 0.15
    return np.where(take_noise, noise, bands).astype(np.int64)
