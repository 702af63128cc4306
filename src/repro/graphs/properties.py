"""Structural graph properties used throughout the algorithms and benchmarks.

The scan-heavy helpers (diameter, neighbourhoods, histograms, coverage
checks) run on the graph's compiled CSR view (``graph.freeze()``): the
compile cost is paid once per topology and every subsequent scan is an array
walk instead of a dict-of-dicts traversal.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph, Node


def density_ratio(graph: Graph) -> float:
    """m / n — the quantity inside the paper's O(log(m/n)) approximation ratio."""
    n = graph.number_of_nodes()
    if n == 0:
        return 0.0
    return graph.number_of_edges() / n


def log_m_over_n(graph: Graph) -> float:
    """max(1, log2(m/n)); the paper's approximation-ratio yardstick for Thm 1.3."""
    return max(1.0, math.log2(max(2.0, density_ratio(graph))))


def log_max_degree(graph: Graph | DiGraph) -> float:
    """max(1, log2(Delta)); the yardstick for the weighted / MDS O(log Delta) ratios."""
    return max(1.0, math.log2(max(2, graph.max_degree())))


def diameter(graph: Graph) -> int:
    """Hop diameter of a connected graph (raises on disconnected input)."""
    topo = graph.freeze()
    if topo.n == 0:
        return 0
    best = 0
    for i in range(topo.n):
        ecc = topo.eccentricity(i)
        if ecc < 0:
            raise ValueError("diameter is only defined for connected graphs")
        best = max(best, ecc)
    return best


def power_graph(graph: Graph, r: int) -> Graph:
    """The r-th power G^r: u ~ v iff their hop distance in G is between 1 and r.

    Used by the (1+eps) LOCAL algorithm of Section 6, which runs a network
    decomposition on G^r for r = O(log n / eps).
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    topo = graph.freeze()
    labels = topo.labels
    g = Graph()
    g.add_nodes_from(labels)
    for i in range(topo.n):
        v = labels[i]
        for j, d in topo.bfs_reach(i, max_depth=r):
            if d >= 1:
                g.add_edge(v, labels[j])
    return g


def is_dominating_set(graph: Graph, dominators: Iterable[Node]) -> bool:
    """True iff every vertex is in ``dominators`` or has a neighbour in it."""
    topo = graph.freeze()
    index = topo.index
    dom_ids = {index[v] for v in dominators if v in index}
    indptr, indices = topo.indptr, topo.indices
    for i in range(topo.n):
        if i in dom_ids:
            continue
        if not any(indices[pos] in dom_ids for pos in range(indptr[i], indptr[i + 1])):
            return False
    return True


def is_vertex_cover(graph: Graph, cover: Iterable[Node]) -> bool:
    """True iff every edge has at least one endpoint in ``cover``."""
    topo = graph.freeze()
    index = topo.index
    cover_ids = {index[v] for v in cover if v in index}
    indptr, indices = topo.indptr, topo.indices
    for i in range(topo.n):
        if i in cover_ids:
            continue
        for pos in range(indptr[i], indptr[i + 1]):
            if indices[pos] not in cover_ids:
                return False
    return True
