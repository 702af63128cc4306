"""Shared base class of :class:`~repro.graphs.graph.Graph` and
:class:`~repro.graphs.digraph.DiGraph`.

Both containers are dict-of-dicts adjacency structures that differ only in
whether an edge is mirrored (undirected) or split into successor/predecessor
maps (directed).  Everything that does not depend on that choice lives here,
together with the compiled-topology cache behind :meth:`BaseGraph.freeze`:
mutating the graph invalidates the cache, and repeated ``freeze()`` calls
return the same :class:`~repro.graphs.topology.CompiledTopology` instance so
that every consumer of a frozen graph shares one set of CSR arrays.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterable, Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graphs.topology import CompiledTopology

Node = Hashable
Edge = tuple[Node, Node]

DEFAULT_WEIGHT = 1.0


class BaseGraph(ABC):
    """Common behaviour of the undirected and directed graph containers."""

    directed: bool = False

    def __init__(self) -> None:
        self._topology: "CompiledTopology | None" = None

    # ------------------------------------------------------------------ hooks
    @abstractmethod
    def _node_store(self) -> dict[Node, dict[Node, float]]:
        """The primary adjacency dict (keys are the node set, insertion-ordered)."""

    @abstractmethod
    def _compile(self) -> "CompiledTopology":
        """Build the compiled CSR view of the current topology."""

    @abstractmethod
    def add_node(self, v: Node) -> None: ...

    @abstractmethod
    def add_edge(self, u: Node, v: Node, weight: float = DEFAULT_WEIGHT) -> None: ...

    @abstractmethod
    def has_edge(self, u: Node, v: Node) -> bool: ...

    @abstractmethod
    def edges(self) -> Iterator[Edge]: ...

    @abstractmethod
    def number_of_edges(self) -> int: ...

    @abstractmethod
    def weight(self, u: Node, v: Node) -> float: ...

    @abstractmethod
    def neighbors(self, v: Node) -> set[Node]: ...

    @abstractmethod
    def degree(self, v: Node) -> int: ...

    @abstractmethod
    def bfs_distances(self, source: Node, max_depth: int | None = None) -> dict[Node, int]: ...

    # -------------------------------------------------------- compiled views
    def freeze(self) -> "CompiledTopology":
        """The compiled CSR view of this graph (cached until the next mutation).

        The returned object maps nodes to dense ``0..n-1`` indices and exposes
        ``indptr``/``indices`` adjacency arrays; see
        :class:`~repro.graphs.topology.CompiledTopology`.
        """
        topo = self._topology
        if topo is None:
            topo = self._topology = self._compile()
        return topo

    def _invalidate(self) -> None:
        self._topology = None

    # ------------------------------------------------------------------ nodes
    def add_nodes_from(self, nodes: Iterable[Node]) -> None:
        for v in nodes:
            self.add_node(v)

    def has_node(self, v: Node) -> bool:
        return v in self._node_store()

    def nodes(self) -> list[Node]:
        """Return the nodes in insertion order."""
        return list(self._node_store())

    def number_of_nodes(self) -> int:
        return len(self._node_store())

    # ------------------------------------------------------------------ edges
    def edge_set(self) -> set[Edge]:
        return set(self.edges())

    def total_weight(self, edges: Iterable[Edge] | None = None) -> float:
        """Sum of weights of ``edges`` (or of all edges if ``None``)."""
        if edges is None:
            edges = self.edges()
        return sum(self.weight(u, v) for u, v in edges)

    # -------------------------------------------------------------- structure
    def max_degree(self) -> int:
        if not self._node_store():
            return 0
        return max(self.degree(v) for v in self._node_store())

    # ------------------------------------------------------------- traversals
    def has_path_within(self, u: Node, v: Node, max_len: int) -> bool:
        """True iff there is a u-v path of at most ``max_len`` edges."""
        if u == v:
            return True
        dist = self.bfs_distances(u, max_depth=max_len)
        return v in dist

    # ---------------------------------------------------------------- dunders
    def __contains__(self, v: Node) -> bool:
        return v in self._node_store()

    def __len__(self) -> int:
        return len(self._node_store())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.number_of_nodes()}, "
            f"m={self.number_of_edges()})"
        )
