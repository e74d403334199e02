"""Checkers the graph tests ask of a :class:`~repro.graph.csr.CSRGraph`.

Nothing in the library needs these queries, so they live beside the tests
rather than on the graph: each reads only ``indptr``, ``indices`` and
``edges()`` (or a partition's ``parts``).
"""

import numpy as np

from repro.graph.csr import CSRGraph


def empty_graph(num_nodes):
    """Graph with *num_nodes* nodes and no edges."""
    none = np.zeros(0, dtype=np.int64)
    return CSRGraph.from_edges(none, none, num_nodes=num_nodes)


def part_sizes(result):
    """Number of nodes per partition of a :class:`PartitionResult`."""
    return np.bincount(result.parts, minlength=result.num_parts).astype(np.int64)


def neighbors(graph, node):
    """Out-neighbors of *node* (a view into ``graph.indices``)."""
    return graph.indices[graph.indptr[node]: graph.indptr[node + 1]]


def has_edge(graph, u, v):
    """True if the directed edge ``u -> v`` exists."""
    neigh = neighbors(graph, u)
    idx = np.searchsorted(neigh, v)
    return bool(idx < len(neigh) and neigh[idx] == v)


def in_degree(graph):
    """In-degree of every node."""
    return np.bincount(graph.indices, minlength=graph.num_nodes).astype(np.int64)


def is_symmetric(graph):
    """True if for every edge ``u -> v`` the reverse edge exists."""
    src, dst = graph.edges()
    fwd = set(zip(src.tolist(), dst.tolist()))
    return all((v, u) in fwd for (u, v) in fwd)


def connected_components(graph):
    """Weakly connected component label per node (union-find), labels 0..k-1."""
    parent = np.arange(graph.num_nodes, dtype=np.int64)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    src, dst = graph.edges()
    for u, v in zip(src.tolist(), dst.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    labels = np.array([find(i) for i in range(graph.num_nodes)], dtype=np.int64)
    _, relabeled = np.unique(labels, return_inverse=True)
    return relabeled.astype(np.int64)
