"""Compiled CSR topology: the indexed execution core of the repo.

A :class:`CompiledTopology` is an immutable, array-based snapshot of a
:class:`~repro.graphs.graph.Graph` or :class:`~repro.graphs.digraph.DiGraph`:
nodes are mapped to dense ``0..n-1`` integers and the adjacency structure is
stored in compressed-sparse-row (CSR) form —

* ``indptr`` — ``n + 1`` 64-bit offsets (``array("q")``); the
  *communication* neighbours of node ``i`` occupy positions
  ``indptr[i]:indptr[i + 1]`` of ``indices``;
* ``indices`` — 32-bit neighbour indices (``array("i")``, so a graph has
  fewer than ``2**31`` nodes: :func:`check_node_count`), concatenated per
  node in the graph's insertion order (for digraphs: successors first, then
  the predecessors that are not also successors);
* ``degrees`` — per-node communication degree (``indptr`` deltas, 64-bit);
* ``index`` — the label → index dict, built on first read (a fault-free
  lowered run never reads it), like the per-node neighbour label sets and
  arc position maps.

Edge weights are not compiled: they stay on the graph (``graph.weight``),
whose one CSR-order reader is the weighted 2-spanner's node setup.

Hash-based containers make every neighbour scan pay dict overhead and every
per-link table pay tuple hashing; the CSR view replaces both with array
slices and integer arithmetic.  The round simulator, the structural property
helpers and the variant setup code all share one compiled view per graph via
:meth:`~repro.graphs.base.BaseGraph.freeze`.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Hashable, Iterator

Node = Hashable

_INDEX_TYPECODE = "q"  # 64-bit signed: CSR offsets, degrees, distances

#: The one typecode of every graph's CSR neighbour column: 4-byte signed.
NEIGHBOR_TYPECODE = "i"
if array(NEIGHBOR_TYPECODE).itemsize != 4:  # pragma: no cover - C int is 32-bit
    raise ImportError(f"array({NEIGHBOR_TYPECODE!r}) is not 4 bytes on this platform")

#: Node indices must fit the 32-bit neighbour column.
_MAX_NODES = 2**31 - 1


def check_node_count(n: int) -> None:
    """Raise ``ValueError`` unless ``n`` nodes fit the 32-bit ``indices`` column.

    Every CSR constructor calls this before it allocates anything.
    """
    if n > _MAX_NODES:
        raise ValueError(
            f"{n} nodes do not fit the 32-bit CSR neighbour column "
            f"(at most {_MAX_NODES} nodes)"
        )


class CompiledTopology:
    """Frozen CSR snapshot of a graph's communication topology."""

    __slots__ = (
        "n",
        "directed",
        "labels",
        "_index",
        "indptr",
        "indices",
        "degrees",
        "arc_count",
        "edge_count",
        "_label_sets",
        "_position_maps",
        "_sorted_rows",
    )

    def __init__(
        self,
        labels: list[Node],
        indptr: array,
        indices: array,
        edge_count: int,
        directed: bool,
        index: dict[Node, int] | None = None,
    ) -> None:
        self.n = len(labels)
        self.directed = directed
        self.labels = labels
        self._index = index
        self.indptr = indptr
        self.indices = indices
        # indptr deltas, pairwise at C level over zero-copy views (NumPy
        # stays out of this module).
        offsets = memoryview(indptr)
        self.degrees = array(
            _INDEX_TYPECODE, map(operator.sub, offsets[1 : self.n + 1], offsets[: self.n])
        )
        self.arc_count = len(indices)
        self.edge_count = edge_count
        self._label_sets: dict[int, frozenset[Node]] = {}
        self._position_maps: dict[int, dict[int, int]] = {}
        self._sorted_rows: list[tuple[int, ...]] | None = None

    @property
    def index(self) -> dict[Node, int]:
        """Label → dense index (built on first read, then cached)."""
        index = self._index
        if index is None:
            index = self._index = {v: i for i, v in enumerate(self.labels)}
        return index

    # ------------------------------------------------------------- neighbours
    def neighbor_indices(self, i: int) -> array:
        """The CSR slice of communication neighbours of node index ``i``."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def neighbor_labels(self, i: int) -> list[Node]:
        labels = self.labels
        return [labels[j] for j in self.neighbor_indices(i)]

    def neighbor_label_set(self, i: int) -> frozenset[Node]:
        """Frozen label set of node ``i``'s neighbours (cached per node)."""
        cached = self._label_sets.get(i)
        if cached is None:
            cached = self._label_sets[i] = frozenset(self.neighbor_labels(i))
        return cached

    def degree_of(self, i: int) -> int:
        return self.degrees[i]

    def sorted_neighbor_rows(self) -> list[tuple[int, ...]]:
        """Per-node neighbour index rows, each sorted ascending (cached).

        CSR rows keep the graph's insertion order; consumers that must
        observe neighbours in ascending index order — the columnar engine's
        lazy inboxes replicate the indexed engine's inbox key order with
        these — get the sorted rows materialised once per compiled view and
        shared across runs.
        """
        rows = self._sorted_rows
        if rows is None:
            indptr, indices = self.indptr, self.indices
            rows = self._sorted_rows = [
                tuple(sorted(indices[indptr[i] : indptr[i + 1]]))
                for i in range(self.n)
            ]
        return rows

    def arc_position(self, src: int, dst: int) -> int:
        """Global CSR position of the link ``src -> dst``.

        Positions are unique per ordered link, dense in ``0..arc_count-1``,
        and stable for the lifetime of the compiled view — exactly what a
        preallocated per-link accounting array needs.  Raises ``KeyError``
        for non-adjacent pairs.
        """
        posmap = self._position_maps.get(src)
        if posmap is None:
            lo, hi = self.indptr[src], self.indptr[src + 1]
            posmap = self._position_maps[src] = {
                self.indices[pos]: pos for pos in range(lo, hi)
            }
        return posmap[dst]

    # ------------------------------------------------------------- traversals
    def bfs_levels(self, source: int, max_depth: int | None = None) -> array:
        """Hop distances from ``source`` over the CSR arrays (-1 = unreached)."""
        dist = array(_INDEX_TYPECODE, [-1]) * self.n
        dist[source] = 0
        frontier = [source]
        depth = 0
        indptr, indices = self.indptr, self.indices
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            nxt: list[int] = []
            for u in frontier:
                for pos in range(indptr[u], indptr[u + 1]):
                    w = indices[pos]
                    if dist[w] < 0:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        return dist

    def bfs_reach(self, source: int, max_depth: int | None = None) -> list[tuple[int, int]]:
        """``(node index, depth)`` pairs in discovery order, starting at depth 0.

        Same traversal as :meth:`bfs_levels` but returns only the reached
        nodes, so truncated searches cost O(reached), not O(n) output.
        """
        dist = array(_INDEX_TYPECODE, [-1]) * self.n
        dist[source] = 0
        reach = [(source, 0)]
        frontier = [source]
        depth = 0
        indptr, indices = self.indptr, self.indices
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            nxt: list[int] = []
            for u in frontier:
                for pos in range(indptr[u], indptr[u + 1]):
                    w = indices[pos]
                    if dist[w] < 0:
                        dist[w] = depth
                        reach.append((w, depth))
                        nxt.append(w)
            frontier = nxt
        return reach

    def eccentricity(self, source: int) -> int:
        """Largest hop distance from ``source``; -1 if the graph is disconnected."""
        dist = self.bfs_levels(source)
        best = 0
        for d in dist:
            if d < 0:
                return -1
            if d > best:
                best = d
        return best

    # ---------------------------------------------------------------- dunders
    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"CompiledTopology(n={self.n}, arcs={self.arc_count}, {kind})"


class FrozenGraph:
    """Immutable graph view over a prebuilt :class:`CompiledTopology`.

    The ``freeze``-direct generator path (:func:`repro.graphs.generators.sparse_gnp_csr`)
    builds CSR arrays straight from an edge stream — at n = 10^6 the
    intermediate dict-of-sets adjacency of a mutable
    :class:`~repro.graphs.graph.Graph` costs gigabytes of peak RSS and most
    of the build time.  This wrapper gives such a topology the read-only
    graph surface the simulator stack consumes (``freeze()``,
    ``number_of_nodes``, ``nodes``, ``neighbors``, …) without ever
    materialising per-node hash containers; ``freeze()`` simply returns the
    wrapped compiled view, so every engine shares the same CSR arrays the
    generator produced.  Mutation is not supported — grow a regular
    :class:`~repro.graphs.graph.Graph` instead.
    """

    __slots__ = ("_topology",)

    directed = False

    def __init__(self, topology: CompiledTopology) -> None:
        self._topology = topology

    def freeze(self) -> CompiledTopology:
        """The wrapped compiled view (already built; never invalidated)."""
        return self._topology

    # ------------------------------------------------------------------ nodes
    def nodes(self) -> list[Node]:
        """The node labels in CSR (index) order."""
        return list(self._topology.labels)

    def number_of_nodes(self) -> int:
        """Number of nodes."""
        return self._topology.n

    def has_node(self, v: Node) -> bool:
        """Whether ``v`` is a node of the graph."""
        return v in self._topology.index

    # ------------------------------------------------------------------ edges
    def number_of_edges(self) -> int:
        """Number of undirected edges."""
        return self._topology.edge_count

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Yield each undirected edge once (smaller CSR index first)."""
        topo = self._topology
        labels = topo.labels
        indptr, indices = topo.indptr, topo.indices
        for i in range(topo.n):
            for pos in range(indptr[i], indptr[i + 1]):
                j = indices[pos]
                if i < j:
                    yield labels[i], labels[j]

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        topo = self._topology
        index = topo.index
        if u not in index or v not in index:
            return False
        i, j = index[u], index[v]
        try:
            topo.arc_position(i, j)
        except KeyError:
            return False
        return True

    def weight(self, u: Node, v: Node) -> float:
        """``1.0`` for an edge (CSR generators build unit weights only)."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge {(u, v)!r} not in graph")
        return 1.0

    def neighbors(self, v: Node) -> set[Node]:
        """The neighbour label set of node ``v``."""
        topo = self._topology
        return set(topo.neighbor_label_set(topo.index[v]))

    def degree(self, v: Node) -> int:
        """Number of neighbours of node ``v``."""
        topo = self._topology
        return topo.degrees[topo.index[v]]

    # ---------------------------------------------------------------- dunders
    def __contains__(self, v: Node) -> bool:
        return v in self._topology.index

    def __len__(self) -> int:
        return self._topology.n

    def __repr__(self) -> str:
        return (
            f"FrozenGraph(n={self.number_of_nodes()}, m={self.number_of_edges()})"
        )


def compile_adjacency(
    adj: dict[Node, dict[Node, float]], edge_count: int, directed: bool
) -> CompiledTopology:
    """Compile a dict-of-dicts adjacency structure into CSR form."""
    labels = list(adj)
    check_node_count(len(labels))
    index = {v: i for i, v in enumerate(labels)}
    indptr = array(_INDEX_TYPECODE, [0]) * (len(labels) + 1)
    indices = array(NEIGHBOR_TYPECODE)
    for i, v in enumerate(labels):
        indices.extend(map(index.__getitem__, adj[v]))
        indptr[i + 1] = len(indices)
    return CompiledTopology(labels, indptr, indices, edge_count, directed, index)


def compile_graph(graph: "object") -> CompiledTopology:
    """Compile an undirected :class:`~repro.graphs.graph.Graph`."""
    return compile_adjacency(graph._adj, graph.number_of_edges(), directed=False)


def compile_digraph(graph: "object") -> CompiledTopology:
    """Compile a :class:`~repro.graphs.digraph.DiGraph`.

    The CSR rows hold the *communication* neighbourhood (successors first,
    then predecessors that are not successors), matching the bidirectional
    links the simulator and the paper's Section 1.5 assume.
    """
    succ: dict[Node, dict[Node, float]] = graph._succ
    pred: dict[Node, dict[Node, float]] = graph._pred
    labels = list(succ)
    check_node_count(len(labels))
    index = {v: i for i, v in enumerate(labels)}
    indptr = array(_INDEX_TYPECODE, [0]) * (len(labels) + 1)
    indices = array(NEIGHBOR_TYPECODE)
    for i, v in enumerate(labels):
        out = succ[v]
        indices.extend(map(index.__getitem__, out))
        indices.extend(index[u] for u in pred[v] if u not in out)
        indptr[i + 1] = len(indices)
    return CompiledTopology(
        labels, indptr, indices, graph.number_of_edges(), directed=True, index=index
    )


def complete_overlay(labels: list[Node]) -> CompiledTopology:
    """Virtual clique topology: every node adjacent to every other node.

    Used by the Congested Clique communication model, whose messages travel
    on an implicit complete graph regardless of the input graph's edges.
    Neighbours of node ``i`` appear in label order (skipping ``i`` itself),
    which is the same deterministic order both simulator engines observe.
    """
    n = len(labels)
    check_node_count(n)
    indptr = array(_INDEX_TYPECODE, [0]) * (n + 1)
    indices = array(NEIGHBOR_TYPECODE)
    for i in range(n):
        indices.extend(j for j in range(n) if j != i)
        indptr[i + 1] = len(indices)
    return CompiledTopology(
        list(labels), indptr, indices, n * (n - 1) // 2, directed=False
    )


__all__ = [
    "NEIGHBOR_TYPECODE",
    "CompiledTopology",
    "FrozenGraph",
    "check_node_count",
    "compile_adjacency",
    "compile_digraph",
    "compile_graph",
    "complete_overlay",
]
