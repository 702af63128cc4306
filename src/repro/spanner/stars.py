"""Stars, star densities and densest-star computations (paper Section 4).

A *v-star* is a non-empty subset of the edges between ``v`` and some of its
neighbours; we represent it by its set of *leaves*.  An edge ``{u, w}`` is
*2-spanned* by a v-star with leaf set ``T`` if ``u, w`` are both in ``T``
(the star then contains the path u-v-w).  The density of a star with respect
to a set ``H`` of still-uncovered edges is::

    rho(S, H) = |{edges of H 2-spanned by S}| / |S|          (unweighted)
    rho(S, H) = |{edges of H 2-spanned by S}| / w(S)          (weighted)

Densest stars reduce to (node-weighted) densest subgraph on the neighbourhood
of ``v`` and are computed exactly with :mod:`repro.flow.densest`.
"""

from __future__ import annotations

from collections.abc import Container, Iterable
from dataclasses import dataclass
from fractions import Fraction

from repro.flow.densest import densest_subgraph, subgraph_density
from repro.graphs.digraph import Arc, DiGraph
from repro.graphs.graph import Edge, Graph, Node, edge_key


@dataclass(frozen=True)
class Star:
    """A v-star, identified by its centre and its leaf set."""

    center: Node
    leaves: frozenset[Node]

    def edges(self) -> set[Edge]:
        """The canonical keys of the star's edges {center, leaf}."""
        return {edge_key(self.center, leaf) for leaf in self.leaves}

    def size(self) -> int:
        return len(self.leaves)

    def weight(self, graph: Graph) -> float:
        return sum(graph.weight(self.center, leaf) for leaf in self.leaves)

    def spans(self, edge: Edge) -> bool:
        u, v = edge
        return u in self.leaves and v in self.leaves


# ---------------------------------------------------------------- densities
def spanned_edges(leaves: Iterable[Node], candidate_edges: Iterable[Edge]) -> set[Edge]:
    """The candidate edges with both endpoints in ``leaves`` (i.e. 2-spanned)."""
    leaf_set = set(leaves)
    return {e for e in candidate_edges if e[0] in leaf_set and e[1] in leaf_set}


def star_density(
    leaves: Iterable[Node],
    candidate_edges: Iterable[Edge],
    leaf_weights: dict[Node, Fraction] | None = None,
) -> Fraction:
    """Density of the star with the given leaves w.r.t. ``candidate_edges``."""
    leaf_set = set(leaves)
    if not leaf_set:
        return Fraction(0)
    weights = None if leaf_weights is None else {v: Fraction(leaf_weights[v]) for v in leaf_set}
    return subgraph_density(leaf_set, list(candidate_edges), weights)


def rounded_up_power_of_two(value: Fraction) -> Fraction:
    """The smallest power of two strictly greater than ``value`` (0 for value <= 0).

    This is the paper's "rounded density": powers may have negative exponents
    (needed in the weighted case, where densities can be below 1).
    """
    value = Fraction(value)
    if value <= 0:
        return Fraction(0)
    power = Fraction(1)
    if power > value:
        while power / 2 > value:
            power /= 2
    else:
        while power <= value:
            power *= 2
    return power


# ------------------------------------------------------------ densest stars
def densest_star(
    pool: Iterable[Node],
    candidate_edges: Iterable[Edge],
    leaf_weights: dict[Node, Fraction] | None = None,
    method: str = "exact",
) -> tuple[frozenset[Node], Fraction]:
    """The densest star whose leaves are drawn from ``pool``.

    ``candidate_edges`` are the uncovered edges that could be 2-spanned
    (callers pass the edges of ``H_v`` restricted to the pool).  Returns the
    leaf set and its exact density; the leaf set is empty only if the pool is.
    """
    pool_list = list(dict.fromkeys(pool))
    if not pool_list:
        return frozenset(), Fraction(0)
    pool_set = set(pool_list)
    edges = [e for e in candidate_edges if e[0] in pool_set and e[1] in pool_set]
    weights = (
        None
        if leaf_weights is None
        else {v: Fraction(leaf_weights.get(v, 1)) for v in pool_list}
    )
    subset, density = densest_subgraph(pool_list, edges, weights, method=method)
    return frozenset(subset), density


def densest_star_of_vertex(
    graph: Graph,
    v: Node,
    uncovered: set[Edge],
    weighted: bool = False,
    method: str = "exact",
) -> tuple[frozenset[Node], Fraction]:
    """Densest v-star of ``graph`` with respect to the ``uncovered`` edge set.

    In the weighted mode, leaf ``u`` carries weight ``w({v, u})`` so that the
    star's denominator is its total edge weight (paper Section 4.3.2).
    """
    neighbors = graph.neighbors(v)
    candidate = {e for e in uncovered if e[0] in neighbors and e[1] in neighbors}
    weights = None
    if weighted:
        weights = {u: Fraction(graph.weight(v, u)).limit_denominator(10**9) for u in neighbors}
    return densest_star(neighbors, candidate, weights, method=method)


# ----------------------------------------------------------- directed stars
@dataclass(frozen=True)
class DirectedStarResult:
    """Outcome of the directed densest-star 2-approximation (Section 4.3.1)."""

    leaves: frozenset[Node]
    arcs: frozenset[Arc]
    directed_density: Fraction
    undirected_density: Fraction


def directed_star_arcs(
    incident_arcs: Container[Arc], v: Node, leaves: Iterable[Node]
) -> frozenset[Arc]:
    """Arcs between ``v`` and each leaf: both directions when both exist.

    ``incident_arcs`` holds (at least) the arcs incident to ``v``.
    """
    arcs: set[Arc] = set()
    for u in leaves:
        if (v, u) in incident_arcs:
            arcs.add((v, u))
        if (u, v) in incident_arcs:
            arcs.add((u, v))
    return frozenset(arcs)


def directed_spanned_arcs(
    graph: DiGraph, v: Node, leaves: Iterable[Node], candidate_arcs: Iterable[Arc]
) -> set[Arc]:
    """Candidate arcs (u, w) 2-spanned by the directed star: need (u,v),(v,w) in the star's arcs."""
    leaf_set = set(leaves)
    spanned = set()
    for u, w in candidate_arcs:
        if u in leaf_set and w in leaf_set and graph.has_edge(u, v) and graph.has_edge(v, w):
            spanned.add((u, w))
    return spanned


def directed_star_density(
    graph: DiGraph, v: Node, leaves: Iterable[Node], candidate_arcs: Iterable[Arc]
) -> Fraction:
    """Directed density: #spanned candidate arcs / #arcs of the directed star."""
    arcs = directed_star_arcs(graph.incident_edges(v), v, leaves)
    if not arcs:
        return Fraction(0)
    spanned = directed_spanned_arcs(graph, v, leaves, candidate_arcs)
    return Fraction(len(spanned), len(arcs))


def densest_directed_star_approx(
    graph: DiGraph,
    v: Node,
    uncovered_arcs: set[Arc],
    method: str = "exact",
) -> DirectedStarResult:
    """2-approximate densest directed v-star, following Section 4.3.1.

    Arcs of ``uncovered_arcs`` that cannot be 2-spanned by any v-star (i.e.
    missing (u, v) or (v, w)) are discarded; directions are then ignored and
    the undirected densest star is computed.  Claims 4.10-4.11 show the
    resulting directed density is within a factor 2 of the optimum.
    """
    spannable = {
        (u, w)
        for (u, w) in uncovered_arcs
        if graph.has_edge(u, v) and graph.has_edge(v, w)
    }
    pool = graph.neighbors(v)
    undirected_candidates = {edge_key(u, w) for u, w in spannable}
    leaves, undirected = densest_star(pool, undirected_candidates, method=method)
    arcs = directed_star_arcs(graph.incident_edges(v), v, leaves)
    directed = directed_star_density(graph, v, leaves, spannable)
    return DirectedStarResult(
        leaves=leaves,
        arcs=arcs,
        directed_density=directed,
        undirected_density=undirected,
    )


# -------------------------------------------------------- client-server stars
def densest_server_star(
    instance_graph: Graph,
    server_neighbors: Iterable[Node],
    uncovered_clients: set[Edge],
    method: str = "exact",
) -> tuple[frozenset[Node], Fraction]:
    """Densest star made of server edges, 2-spanning uncovered *client* edges.

    ``server_neighbors`` must be the neighbours of the centre reachable by a
    server edge; only client edges with both endpoints in that pool count.
    """
    return densest_star(server_neighbors, uncovered_clients, method=method)
