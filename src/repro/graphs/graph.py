"""Lightweight undirected graph with optional edge weights.

The simulator and the spanner algorithms need a small, predictable graph
container with O(1) neighbour lookups, canonical undirected edge keys, and
cheap copies.  The hot paths use this class — or, once the graph is built,
its compiled CSR view (:meth:`Graph.freeze`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Any

from repro.graphs.base import DEFAULT_WEIGHT, BaseGraph
from repro.graphs.topology import CompiledTopology, compile_graph

Node = Hashable
Edge = tuple[Node, Node]

__all__ = ["DEFAULT_WEIGHT", "Edge", "Graph", "Node", "edge_key"]


def edge_key(u: Node, v: Node) -> Edge:
    """Return the canonical (ordered) key for the undirected edge ``{u, v}``.

    The canonical form is used everywhere an undirected edge is stored in a
    set or dict, so that ``{u, v}`` and ``{v, u}`` are the same object.
    Self-loops are rejected because spanners are defined on simple graphs.
    """
    if u == v:
        raise ValueError(f"self-loops are not allowed: {u!r}")
    try:
        smaller = u <= v  # type: ignore[operator]
    except TypeError:
        smaller = (str(type(u)), repr(u)) <= (str(type(v)), repr(v))
    return (u, v) if smaller else (v, u)


class Graph(BaseGraph):
    """A simple undirected graph with float edge weights.

    Nodes may be any hashable value.  Parallel edges and self-loops are not
    supported.  Edge weights default to ``1.0``; a graph is considered
    *weighted* only with respect to how callers interpret the weights.
    """

    directed = False

    def __init__(self, edges: Iterable[Edge] | None = None) -> None:
        super().__init__()
        self._adj: dict[Node, dict[Node, float]] = {}
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------ hooks
    def _node_store(self) -> dict[Node, dict[Node, float]]:
        return self._adj

    def _compile(self) -> CompiledTopology:
        return compile_graph(self)

    # ------------------------------------------------------------------ nodes
    def add_node(self, v: Node) -> None:
        """Add an isolated node (no-op if already present)."""
        if v not in self._adj:
            self._adj[v] = {}
            self._invalidate()

    def remove_node(self, v: Node) -> None:
        if v not in self._adj:
            raise KeyError(f"node {v!r} not in graph")
        for u in list(self._adj[v]):
            del self._adj[u][v]
        del self._adj[v]
        self._invalidate()

    # ------------------------------------------------------------------ edges
    def add_edge(self, u: Node, v: Node, weight: float = DEFAULT_WEIGHT) -> None:
        if u == v:
            raise ValueError(f"self-loops are not allowed: {u!r}")
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)
        self._invalidate()

    def remove_edge(self, u: Node, v: Node) -> None:
        if not self.has_edge(u, v):
            raise KeyError(f"edge {(u, v)!r} not in graph")
        del self._adj[u][v]
        del self._adj[v][u]
        self._invalidate()

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each reported once in canonical key order."""
        seen: set[Edge] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    yield key

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def weight(self, u: Node, v: Node) -> float:
        if not self.has_edge(u, v):
            raise KeyError(f"edge {(u, v)!r} not in graph")
        return self._adj[u][v]

    def set_weight(self, u: Node, v: Node, weight: float) -> None:
        if not self.has_edge(u, v):
            raise KeyError(f"edge {(u, v)!r} not in graph")
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)
        self._invalidate()

    # -------------------------------------------------------------- structure
    def neighbors(self, v: Node) -> set[Node]:
        if v not in self._adj:
            raise KeyError(f"node {v!r} not in graph")
        return set(self._adj[v])

    def degree(self, v: Node) -> int:
        if v not in self._adj:
            raise KeyError(f"node {v!r} not in graph")
        return len(self._adj[v])

    def incident_edges(self, v: Node) -> set[Edge]:
        """Canonical keys of all edges touching ``v``."""
        return {edge_key(v, u) for u in self.neighbors(v)}

    def adjacency(self) -> dict[Node, dict[Node, float]]:
        """A deep copy of the adjacency structure (node -> neighbour -> weight)."""
        return {u: dict(nbrs) for u, nbrs in self._adj.items()}

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """The induced subgraph on ``nodes`` (weights preserved)."""
        keep = set(nodes)
        sub = Graph()
        for v in keep:
            if v in self._adj:
                sub.add_node(v)
        for v in keep:
            if v not in self._adj:
                continue
            for u, w in self._adj[v].items():
                if u in keep:
                    sub.add_edge(v, u, w)
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> "Graph":
        """The subgraph consisting of exactly ``edges`` (weights preserved)."""
        sub = Graph()
        for u, v in edges:
            sub.add_edge(u, v, self.weight(u, v))
        return sub

    def copy(self) -> "Graph":
        other = Graph()
        other._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        return other

    # ------------------------------------------------------------- traversals
    def bfs_distances(self, source: Node, max_depth: int | None = None) -> dict[Node, int]:
        """Hop distances from ``source`` to every reachable node.

        ``max_depth`` truncates the search (distances beyond it are omitted).
        """
        if source not in self._adj:
            raise KeyError(f"node {source!r} not in graph")
        dist = {source: 0}
        frontier = [source]
        depth = 0
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            nxt: list[Node] = []
            for u in frontier:
                for w in self._adj[u]:
                    if w not in dist:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        return dist

    def ball(self, source: Node, radius: int) -> set[Node]:
        """All nodes within hop distance ``radius`` of ``source`` (inclusive)."""
        return set(self.bfs_distances(source, max_depth=radius))

    def is_connected(self) -> bool:
        if self.number_of_nodes() == 0:
            return True
        start = next(iter(self._adj))
        return len(self.bfs_distances(start)) == self.number_of_nodes()

    def connected_components(self) -> list[set[Node]]:
        remaining = set(self._adj)
        components: list[set[Node]] = []
        while remaining:
            start = next(iter(remaining))
            comp = set(self.bfs_distances(start))
            components.append(comp)
            remaining -= comp
        return components

    # ---------------------------------------------------------------- dunders
    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj
