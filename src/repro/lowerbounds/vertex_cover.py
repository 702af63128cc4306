"""Minimum vertex cover helpers used by the Section 3 reduction (Figure 3).

Claim 3.1 equates the cost of a minimum weighted 2-spanner of the reduction
graph ``G_S`` with the size of a minimum vertex cover of ``G``; Lemma 3.2
turns any alpha-approximate distributed weighted 2-spanner algorithm into an
alpha-approximate MVC algorithm.  These helpers provide the exact and
approximate MVC solvers the benchmark compares against.
"""

from __future__ import annotations

from repro.graphs.graph import Graph, Node


def greedy_matching_vertex_cover(graph: Graph) -> set[Node]:
    """The classic maximal-matching 2-approximation of minimum vertex cover."""
    cover: set[Node] = set()
    matched: set[Node] = set()
    for u, v in sorted(graph.edges(), key=repr):
        if u in matched or v in matched:
            continue
        matched.add(u)
        matched.add(v)
        cover.add(u)
        cover.add(v)
    return cover


def exact_vertex_cover(graph: Graph, node_budget: int = 2_000_000) -> set[Node]:
    """Exact minimum vertex cover by branch and bound (small graphs only)."""
    edges = sorted(graph.edges(), key=repr)
    best: list[set[Node]] = [set(greedy_matching_vertex_cover(graph))]
    explored = [0]

    def uncovered_edge(cover: set[Node]):
        for u, v in edges:
            if u not in cover and v not in cover:
                return (u, v)
        return None

    def search(cover: set[Node]) -> None:
        explored[0] += 1
        if explored[0] > node_budget:
            raise RuntimeError("exact MVC search exceeded its node budget")
        if len(cover) >= len(best[0]):
            return
        edge = uncovered_edge(cover)
        if edge is None:
            best[0] = set(cover)
            return
        u, v = edge
        # Branch: either endpoint is in the cover.
        search(cover | {u})
        search(cover | {v})

    search(set())
    return best[0]
