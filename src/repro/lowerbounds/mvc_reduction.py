"""The Section 3 reduction from minimum vertex cover to weighted 2-spanner
(Figure 3).

Every vertex ``v`` of the MVC instance becomes a weight-{0,1} triangle
``v1, v2, v3``; every edge ``{v, u}`` becomes two weight-0 "rails"
``{v1, u1}, {v2, u2}`` plus one weight-2 "diagonal".  Claim 3.1: the minimum
weighted 2-spanner of the reduction graph costs exactly the minimum vertex
cover of the original graph, and any (approximate) 2-spanner converts locally
into a vertex cover of the same cost (Lemma 3.2).  Known MVC lower bounds
therefore transfer to the weighted 2-spanner problem (Theorems 3.3-3.5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.graph import Edge, Graph, Node, edge_key


@dataclass
class MVCReduction:
    """The reduction graph G_S together with bookkeeping maps."""

    original: Graph
    reduced: Graph
    diagonal_of: dict[Edge, Edge]  # original edge -> its weight-2 diagonal in G_S

    def triangle(self, v: Node) -> tuple[Node, Node, Node]:
        return (("v1", v), ("v2", v), ("v3", v))


def build_mvc_reduction(graph: Graph) -> MVCReduction:
    """Build the Figure 3 graph G_S for an (unweighted) MVC instance."""
    reduced = Graph()
    diagonal_of: dict[Edge, Edge] = {}
    for v in graph.nodes():
        v1, v2, v3 = ("v1", v), ("v2", v), ("v3", v)
        reduced.add_edge(v1, v2, 1.0)
        reduced.add_edge(v1, v3, 0.0)
        reduced.add_edge(v2, v3, 0.0)
    for u, v in graph.edges():
        a, b = edge_key(u, v)  # canonical order decides the diagonal's direction
        reduced.add_edge(("v1", a), ("v1", b), 0.0)
        reduced.add_edge(("v2", a), ("v2", b), 0.0)
        diagonal = edge_key(("v1", a), ("v2", b))
        reduced.add_edge(*diagonal, 2.0)
        diagonal_of[edge_key(u, v)] = diagonal
    return MVCReduction(original=graph, reduced=reduced, diagonal_of=diagonal_of)


def vertex_cover_to_spanner(reduction: MVCReduction, cover: set[Node]) -> set[Edge]:
    """Claim 3.1, forward direction: a cover of size |C| gives a 2-spanner of cost |C|.

    The spanner takes every weight-0 edge plus the weight-1 edge {v1, v2} of
    every cover vertex.
    """
    spanner = {
        e for e in reduction.reduced.edges() if reduction.reduced.weight(*e) == 0
    }
    for v in cover:
        spanner.add(edge_key(("v1", v), ("v2", v)))
    return spanner


def spanner_to_vertex_cover(reduction: MVCReduction, spanner: set[Edge]) -> set[Node]:
    """Claim 3.1, reverse direction: a 2-spanner of cost W gives a cover of size <= W.

    Weight-2 diagonals in the spanner are first replaced by the two weight-1
    triangle edges of their endpoints (never increasing the cost); the cover
    is then the set of original vertices whose {v1, v2} edge is kept.
    """
    normalised = {edge_key(*e) for e in spanner}
    cover: set[Node] = set()
    for e in list(normalised):
        weight = reduction.reduced.weight(*e)
        if weight == 2.0:
            (tag_a, va), (tag_b, vb) = e
            cover.add(va)
            cover.add(vb)
        elif weight == 1.0:
            (tag_a, va), _ = e
            cover.add(va)
    return cover
