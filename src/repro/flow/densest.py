"""Exact and approximate densest-subgraph solvers.

The paper's 2-spanner algorithm needs, for every vertex ``v``, the densest
*v-star*: a subset ``T`` of ``v``'s neighbours maximising
``|E_H(T)| / weight(T)`` where ``E_H(T)`` are the still-uncovered edges with
both endpoints in ``T``.  This is exactly the (node-weighted) densest
subgraph problem on the graph induced on ``N(v)``, which the paper (following
Kortsarz-Peleg, Lemma 2.1 of [46]) solves with flow techniques [36].

Two solvers are provided:

* :func:`densest_subgraph_exact` — Goldberg's flow construction combined with
  Dinkelbach iteration, exact over the rationals; this is the default used
  by the algorithms so that the *guaranteed* approximation ratios of the
  paper are genuinely exercised.
* :func:`densest_subgraph_peeling` — Charikar's greedy peeling
  2-approximation, used as a fast mode and in the E15 ablation benchmark.

Why the exact solver's answer is a function of its input alone: each
Dinkelbach step returns the vertices reachable from the source in the
residual graph of a maximum flow.  Every maximum flow leaves the same set
reachable (the source side of the unique *minimal* minimum cut), and scaling
all capacities by one positive factor changes no cut's rank.  So the step
may scale its rational capacities to exact integers by any common factor,
and the flow code may find its paths in any order, without changing a
returned subset.  For the same reason a vertex without edges is left out of
the network: its source arc has capacity 0, so it is never reachable.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from fractions import Fraction
from math import lcm

from repro.flow.dinic import MaxFlowNetwork

Node = Hashable
Edge = tuple[Node, Node]

_ONE = Fraction(1)


def _normalise(
    nodes: Iterable[Node],
    edges: Iterable[Edge],
    node_weights: dict[Node, Fraction] | None,
) -> tuple[list[Node], list[Edge], dict[Node, Fraction]]:
    node_list = list(dict.fromkeys(nodes))
    node_set = set(node_list)
    edge_list = []
    seen = set()
    for u, v in edges:
        if u == v or u not in node_set or v not in node_set:
            continue
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        if key in seen:
            continue
        seen.add(key)
        edge_list.append(key)
    if node_weights is None:
        weights = dict.fromkeys(node_list, _ONE)
    else:
        weights = {v: Fraction(node_weights.get(v, 1)) for v in node_list}
    for v, w in weights.items():
        if w < 0:
            raise ValueError(f"node weight for {v!r} must be non-negative, got {w}")
    zero = {v for v, w in weights.items() if w == 0}
    if zero:
        # A subset of zero-weight nodes containing an edge would have
        # unbounded density; callers (the weighted 2-spanner algorithm)
        # guarantee this never happens because weight-0 edges are taken into
        # the spanner up front.  Fail loudly rather than loop forever.
        for u, v in edge_list:
            if u in zero and v in zero:
                raise ValueError(
                    "densest subgraph is unbounded: zero-weight nodes "
                    f"{u!r} and {v!r} share an edge"
                )
    return node_list, edge_list, weights


def subgraph_density(
    subset: Iterable[Node], edges: Iterable[Edge], node_weights: dict[Node, Fraction] | None = None
) -> Fraction:
    """Density ``|E(subset)| / weight(subset)`` of a node subset (0 if empty)."""
    sub = set(subset)
    if not sub:
        return Fraction(0)
    count = sum(1 for u, v in edges if u in sub and v in sub)
    if node_weights is None:
        total = Fraction(len(sub))
    else:
        total = sum((Fraction(node_weights.get(v, 1)) for v in sub), Fraction(0))
    if total <= 0:
        if count == 0:
            return Fraction(0)
        raise ValueError("subset has positive edge count but zero weight")
    return Fraction(count) / total


def densest_subgraph_exact(
    nodes: Iterable[Node],
    edges: Iterable[Edge],
    node_weights: dict[Node, Fraction] | None = None,
) -> tuple[set[Node], Fraction]:
    """Exact (node-weighted) densest subgraph via Goldberg's flow construction.

    Returns ``(subset, density)`` with ``subset`` non-empty whenever ``nodes``
    is non-empty.  Dinkelbach iteration: repeatedly test the current best
    density ``g``; the flow network is built so that the minimum s-t cut
    equals ``2m - 2 * max_T (|E(T)| - g * w(T))``, hence a cut smaller than
    ``2m`` reveals a strictly denser subset.  Densities are exact rationals,
    so the iteration terminates (each step strictly increases the density and
    only finitely many subset densities exist).
    """
    node_list, edge_list, weights = _normalise(nodes, edges, node_weights)
    if not node_list:
        return set(), Fraction(0)
    if not edge_list:
        # Density 0; return the single lightest node as a canonical answer.
        best = min(node_list, key=lambda v: (weights[v], repr(v)))
        return {best}, Fraction(0)

    # Integer weights: each weight times the lcm of all their denominators.
    scale = lcm(*(w.denominator for w in weights.values()))
    int_weight = {v: w.numerator * (scale // w.denominator) for v, w in weights.items()}

    # Only vertices with an edge enter the flow network (module docstring).
    index: dict[Node, int] = {}
    for u, v in edge_list:
        index.setdefault(u, len(index))
        index.setdefault(v, len(index))
    active = list(index)
    ends = [(index[u], index[v]) for u, v in edge_list]
    net_weights = [int_weight[v] for v in active]
    degree = [0] * len(active)
    for a, b in ends:
        degree[a] += 1
        degree[b] += 1
    # Arcs do not depend on the density guess: lay the network out once.
    k = len(active)
    firsts = [a for a, _ in ends]
    seconds = [b for _, b in ends]
    tails = [k] * k + list(range(k)) + firsts + seconds
    heads = list(range(k)) + [k + 1] * k + seconds + firsts
    net = MaxFlowNetwork.indexed(k + 2, tails, heads)

    best_set = set(node_list)
    best_density = Fraction(len(edge_list) * scale, sum(int_weight.values()))
    while True:
        side = _improving_subset(net, degree, net_weights, scale, best_density)
        if side is None:
            return best_set, best_density
        count = sum(1 for a, b in ends if a in side and b in side)
        density = Fraction(count * scale, sum(net_weights[i] for i in side))
        if density <= best_density:
            # Cannot happen with exact arithmetic; guard against infinite loops.
            return best_set, best_density
        best_set, best_density = {active[i] for i in side}, density


def _improving_subset(
    net: MaxFlowNetwork,
    degree: list[int],
    weights: list[int],
    scale: int,
    g: Fraction,
) -> set[int] | None:
    """Indices of a subset with density strictly above ``g``, or ``None``.

    ``net`` is the solve's network layout (``k`` source arcs, ``k`` sink
    arcs, then two arcs per edge); each call gives it fresh capacities.
    Vertex ``i`` (of ``k``; the source is ``k``, the sink ``k + 1``) has
    degree ``degree[i]`` and real weight ``weights[i] / scale``.  For
    ``g = p / q`` the real capacities (source -> i: ``deg(i)``; i -> sink:
    ``2 g w(i)``; 1 each way along an edge) are all multiplied by
    ``q * scale``, which makes every one an exact integer.  The subset is the
    source side of the minimal minimum cut, which depends neither on the
    order the flow is found in nor on the scale factor.

    The two-arc paths source -> i -> sink are saturated up front and only
    the remaining capacities enter the network.  That drops the residual
    arcs i -> source and sink -> i, which no simple augmenting path uses and
    which add nothing to what the source reaches (the sink is unreachable
    once the flow is maximum).
    """
    k = len(degree)
    unit = g.denominator * scale
    two_p = 2 * g.numerator
    edge_arcs = sum(degree)  # two arcs per edge, one degree at each end
    source_caps = [d * unit for d in degree]
    sink_caps = [two_p * w for w in weights]
    direct = 0
    for i in range(k):
        both = min(source_caps[i], sink_caps[i])
        source_caps[i] -= both
        sink_caps[i] -= both
        direct += both
    net.set_capacities(source_caps + sink_caps + [unit] * edge_arcs)
    if direct + net.max_flow(k, k + 1) >= edge_arcs * unit:
        return None
    side = net.min_cut_source_side(k)
    side.discard(k)
    return side or None


def densest_subgraph_peeling(
    nodes: Iterable[Node],
    edges: Iterable[Edge],
    node_weights: dict[Node, Fraction] | None = None,
) -> tuple[set[Node], Fraction]:
    """Charikar's greedy peeling (2-approximation for the unweighted problem).

    Vertices are removed one at a time, always the one with the smallest
    ``degree / weight`` ratio; the densest prefix encountered is returned.
    For node-weighted inputs this is a natural heuristic generalisation (not
    a proven 2-approximation) and is only used in fast / ablation modes.
    """
    node_list, edge_list, weights = _normalise(nodes, edges, node_weights)
    if not node_list:
        return set(), Fraction(0)

    adjacency: dict[Node, set[Node]] = {v: set() for v in node_list}
    for u, v in edge_list:
        adjacency[u].add(v)
        adjacency[v].add(u)

    alive = set(node_list)
    degree = {v: len(adjacency[v]) for v in node_list}
    edges_alive = len(edge_list)
    weight_alive = sum((weights[v] for v in alive), Fraction(0))

    best_set = set(alive)
    best_density = (
        Fraction(edges_alive) / weight_alive if weight_alive > 0 else Fraction(0)
    )

    def peel_key(v: Node) -> tuple:
        # Zero-weight nodes are "free": peel them last (they never hurt density).
        if weights[v] == 0:
            return (1, Fraction(degree[v]), repr(v))
        return (0, Fraction(degree[v]) / weights[v], repr(v))

    order = sorted(node_list, key=repr)  # deterministic tie-breaking
    while len(alive) > 1:
        victim = min((v for v in order if v in alive), key=peel_key)
        for u in adjacency[victim]:
            if u in alive:
                degree[u] -= 1
                edges_alive -= 1
        alive.remove(victim)
        weight_alive -= weights[victim]
        if weight_alive > 0:
            density = Fraction(edges_alive) / weight_alive
            if density > best_density:
                best_density = density
                best_set = set(alive)
    return best_set, best_density


def densest_subgraph(
    nodes: Iterable[Node],
    edges: Iterable[Edge],
    node_weights: dict[Node, Fraction] | None = None,
    method: str = "exact",
) -> tuple[set[Node], Fraction]:
    """Dispatch to the exact or peeling solver (``method``: 'exact' | 'peeling')."""
    if method == "exact":
        return densest_subgraph_exact(nodes, edges, node_weights)
    if method == "peeling":
        return densest_subgraph_peeling(nodes, edges, node_weights)
    raise ValueError(f"unknown densest-subgraph method: {method!r}")
