"""Sequential greedy minimum 2-spanner of Kortsarz & Peleg (1994).

The paper's distributed algorithm (Section 4) is designed to match this
baseline's O(log(m/n)) approximation ratio; the benchmarks compare the two
head-to-head (experiment E14).  The greedy algorithm repeatedly adds the
globally densest star to the spanner until no star has density at least one
(at least ``1/w_max`` in the weighted case), then adds every still-uncovered
edge directly.
"""

from __future__ import annotations

from fractions import Fraction

from repro.graphs.graph import Edge, Graph, Node, edge_key
from repro.spanner.stars import densest_star_of_vertex


def _coverage_update(
    graph: Graph, spanner: set[Edge], covered: set[Edge], new_edges: set[Edge]
) -> None:
    """Mark edges covered by the newly added spanner edges (2-paths only)."""
    covered |= new_edges
    adjacency: dict[Node, set[Node]] = {}
    for u, v in spanner:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    for u, v in list(graph.edges()):
        e = edge_key(u, v)
        if e in covered:
            continue
        if adjacency.get(u, set()) & adjacency.get(v, set()):
            covered.add(e)


def greedy_two_spanner(
    graph: Graph, weighted: bool = False, method: str = "exact"
) -> set[Edge]:
    """Kortsarz-Peleg greedy 2-spanner (O(log m/n) unweighted, O(log Delta) weighted).

    ``method`` selects the densest-star solver ('exact' or 'peeling').
    """
    spanner: set[Edge] = set()
    covered: set[Edge] = set()
    all_edges = graph.edge_set()

    if weighted:
        zero = {e for e in all_edges if graph.weight(*e) == 0}
        if zero:
            spanner |= zero
            _coverage_update(graph, spanner, covered, zero)
        wmax = max((graph.weight(*e) for e in all_edges), default=1.0)
        stop_threshold = Fraction(1) / Fraction(wmax) if wmax > 0 else Fraction(1)
    else:
        stop_threshold = Fraction(1)

    while True:
        uncovered = all_edges - covered
        if not uncovered:
            break
        best_vertex = None
        best_leaves: frozenset[Node] = frozenset()
        best_density = Fraction(-1)
        for v in sorted(graph.nodes(), key=repr):
            leaves, density = densest_star_of_vertex(
                graph, v, uncovered, weighted=weighted, method=method
            )
            if density > best_density:
                best_vertex, best_leaves, best_density = v, leaves, density
        if best_vertex is None or best_density < stop_threshold:
            spanner |= uncovered
            covered |= uncovered
            break
        star_edges = {edge_key(best_vertex, leaf) for leaf in best_leaves}
        spanner |= star_edges
        _coverage_update(graph, spanner, covered, star_edges)
    return spanner


def greedy_client_server_two_spanner(instance, method: str = "exact") -> set[Edge]:
    """Greedy baseline for the client-server variant (Elkin-Peleg style).

    Stars are built from server edges only and 2-span client edges; once the
    best density falls below 1/2, remaining coverable clients that are also
    servers are added directly, and remaining clients are covered by a
    cheapest 2-path of server edges.
    """
    from repro.spanner.stars import densest_server_star

    graph = instance.graph
    chosen: set[Edge] = set()
    targets = set(instance.coverable_clients())
    covered: set[Edge] = set()

    def update_cover() -> None:
        adjacency: dict[Node, set[Node]] = {}
        for u, v in chosen:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        for e in targets:
            if e in covered:
                continue
            u, v = e
            if e in chosen or adjacency.get(u, set()) & adjacency.get(v, set()):
                covered.add(e)

    while True:
        uncovered = targets - covered
        if not uncovered:
            break
        best_vertex = None
        best_leaves: frozenset[Node] = frozenset()
        best_density = Fraction(-1)
        for v in sorted(graph.nodes(), key=repr):
            server_nbrs = {
                u for u in graph.neighbors(v) if edge_key(v, u) in instance.servers
            }
            pool_edges = {
                e for e in uncovered if e[0] in server_nbrs and e[1] in server_nbrs
            }
            leaves, density = densest_server_star(graph, server_nbrs, pool_edges, method=method)
            if density > best_density:
                best_vertex, best_leaves, best_density = v, leaves, density
        if best_vertex is None or best_density < Fraction(1, 2):
            for e in sorted(uncovered, key=repr):
                if e in instance.servers:
                    chosen.add(e)
                else:
                    u, v = e
                    commons = sorted(
                        (
                            x
                            for x in graph.neighbors(u) & graph.neighbors(v)
                            if edge_key(x, u) in instance.servers
                            and edge_key(x, v) in instance.servers
                        ),
                        key=repr,
                    )
                    if commons:
                        x = commons[0]
                        chosen.add(edge_key(x, u))
                        chosen.add(edge_key(x, v))
            update_cover()
            break
        chosen |= {edge_key(best_vertex, leaf) for leaf in best_leaves}
        update_cover()
    return chosen
