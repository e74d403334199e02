"""Compressed sparse row (CSR) graph container.

This is the in-memory graph representation used throughout the library.  It is
deliberately minimal — an ``indptr`` / ``indices`` pair plus helpers — because
the distributed-training substrate only needs fast neighborhood lookups,
degree queries, and induced-subgraph extraction.  All node identifiers are
``int64``; features and labels live outside the structure (see
:mod:`repro.graph.datasets`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_1d_int_array


@dataclass
class CSRGraph:
    """A directed graph in CSR format.

    Attributes
    ----------
    indptr:
        ``int64`` array of shape ``(num_nodes + 1,)``; row pointer.
    indices:
        ``int64`` array of shape ``(num_edges,)``; column indices (out-neighbors).
    num_nodes:
        Number of nodes.  Node ids are ``0 .. num_nodes - 1``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_nodes: int

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if len(self.indptr) != self.num_nodes + 1:
            raise ValueError(
                f"indptr length {len(self.indptr)} does not match num_nodes={self.num_nodes}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.num_nodes):
            raise ValueError("indices contain out-of-range node ids")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: Optional[int] = None,
        *,
        symmetrize: bool = False,
        remove_self_loops: bool = False,
        deduplicate: bool = True,
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list with one sort.

        Ascending ``src * num_nodes + dst`` *is* CSR order and puts duplicates
        side by side; row *u* is the keys in ``[u * num_nodes, (u + 1) * num_nodes)``.

        Parameters
        ----------
        src, dst:
            Endpoint arrays of equal length.
        num_nodes:
            Total node count; inferred from the maximum endpoint if omitted,
            else an endpoint at or above it raises (it would alias in the key).
        symmetrize:
            Add the reverse of every edge (used for undirected graphs such as
            the OGB-style datasets in this reproduction).
        remove_self_loops:
            Drop ``u -> u`` edges.
        deduplicate:
            Collapse parallel edges.
        """
        src = check_1d_int_array(src, "src", max_value=num_nodes)
        dst = check_1d_int_array(dst, "dst", max_value=num_nodes)
        if len(src) != len(dst):
            raise ValueError("src and dst must have equal length")
        if num_nodes is None:
            num_nodes = max(src.max(initial=-1), dst.max(initial=-1)) + 1
        if int(num_nodes) ** 2 > np.iinfo(np.int64).max:
            raise ValueError(f"num_nodes={num_nodes} is too large for an int64 edge key")
        if remove_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        key = src * num_nodes + dst
        if symmetrize:
            key = np.concatenate([key, dst * num_nodes + src])
        key.sort()
        if deduplicate:
            fresh = np.empty(len(key), dtype=bool)
            fresh[:1] = True
            np.not_equal(key[1:], key[:-1], out=fresh[1:])
            key = key[fresh]
        indptr = np.searchsorted(key, np.arange(num_nodes + 1, dtype=np.int64) * num_nodes)
        return cls(indptr=indptr, indices=key % num_nodes, num_nodes=int(num_nodes))

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of (directed) edges stored."""
        return int(len(self.indices))

    def out_degree(self, nodes: Optional[np.ndarray] = None) -> np.ndarray:
        """Out-degree of *nodes* (all nodes when omitted)."""
        degs = np.diff(self.indptr)
        if nodes is None:
            return degs
        nodes = check_1d_int_array(nodes, "nodes", max_value=self.num_nodes)
        return degs[nodes]

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` edge arrays."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr))
        return src, self.indices.copy()

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def induced_subgraph(self, nodes: np.ndarray) -> Tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on *nodes*, which must be strictly ascending.

        Ascending ids keep the kept rows in their original order, so the
        sub-CSR is those rows gathered with their columns filtered to *nodes*
        and renumbered; each row keeps its column order, parallel edges
        included.  Unsorted or repeated ids raise ``ValueError``.

        Returns
        -------
        (subgraph, node_map):
            ``subgraph`` uses local ids ``0..len(nodes)-1`` in the order given;
            ``node_map`` maps local id -> original global id.
        """
        nodes = check_1d_int_array(nodes, "nodes", max_value=self.num_nodes)
        if np.any(nodes[1:] <= nodes[:-1]):
            raise ValueError("nodes must be strictly ascending (sorted, no duplicates)")
        local = np.full(self.num_nodes, -1, dtype=np.int64)
        local[nodes] = np.arange(len(nodes), dtype=np.int64)
        degrees = np.diff(self.indptr)
        cols = local[self.indices[np.repeat(local >= 0, degrees)]]
        keep = cols >= 0
        kept_before = np.concatenate([[0], np.cumsum(keep)])
        indptr = kept_before[np.concatenate([[0], np.cumsum(degrees[nodes])])]
        sub = CSRGraph(indptr=indptr, indices=cols[keep], num_nodes=len(nodes))
        return sub, nodes.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
