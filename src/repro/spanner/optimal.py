"""Exact minimum k-spanner solvers for small instances (branch and bound).

The paper's (1+eps) LOCAL algorithm (Section 6) explicitly assumes unbounded
local computation and solves optimal spanners of polylogarithmic-size balls;
this module is that oracle.  It is also used by the benchmarks to measure the
true approximation ratio of the distributed algorithms on small graphs, and
by the Figure-3 reduction experiment (Claim 3.1), which equates an exact
weighted 2-spanner with an exact minimum vertex cover.

The solver works with *covering options*: for each target edge, every minimal
edge set that would cover it (for k = 2: the edge itself, or a pair of edges
through a common neighbour).  Branch and bound then picks the cheapest edge
set containing at least one full option per target.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graphs.client_server import ClientServerInstance
from repro.graphs.digraph import Arc, DiGraph
from repro.graphs.graph import Edge, Graph, Node, edge_key


# ------------------------------------------------------------------ options
def covering_options(graph: Graph, target: Edge, k: int) -> list[frozenset[Edge]]:
    """All minimal edge sets forming a u-v path of length <= k (u, v = target).

    Each option is a frozenset of canonical edge keys.  For k = 2 this is the
    edge itself plus one pair per common neighbour; for larger k all simple
    paths of length <= k are enumerated (small graphs only).
    """
    u, v = target
    options: list[frozenset[Edge]] = []
    if graph.has_edge(u, v):
        options.append(frozenset({edge_key(u, v)}))
    if k >= 2:
        options.extend(
            frozenset({edge_key(u, x), edge_key(x, v)})
            for x in sorted(graph.neighbors(u) & graph.neighbors(v), key=repr)
        )
    if k >= 3:
        options.extend(_long_path_options(graph, u, v, k))
    return _drop_dominated(options)


def _long_path_options(graph: Graph, u: Node, v: Node, k: int) -> list[frozenset[Edge]]:
    """Simple u-v paths of length 3..k as edge sets (DFS enumeration)."""
    results: list[frozenset[Edge]] = []

    def dfs(current: Node, visited: list[Node]) -> None:
        if len(visited) - 1 >= k:
            return
        for nxt in sorted(graph.neighbors(current), key=repr):
            if nxt == v and len(visited) >= 3:
                path = visited + [v]
                results.append(
                    frozenset(edge_key(a, b) for a, b in zip(path, path[1:]))
                )
            elif nxt not in visited and nxt != v:
                dfs(nxt, visited + [nxt])

    dfs(u, [u])
    return results


def covering_options_directed(graph: DiGraph, target: Arc, k: int) -> list[frozenset[Arc]]:
    """All minimal arc sets forming a directed u->v path of length <= k."""
    u, v = target
    options: list[frozenset[Arc]] = []
    if graph.has_edge(u, v):
        options.append(frozenset({(u, v)}))
    if k >= 2:
        options.extend(
            frozenset({(u, x), (x, v)})
            for x in sorted(graph.successors(u) & graph.predecessors(v), key=repr)
        )
    if k >= 3:
        results: list[frozenset[Arc]] = []

        def dfs(current: Node, visited: list[Node]) -> None:
            if len(visited) - 1 >= k:
                return
            for nxt in sorted(graph.successors(current), key=repr):
                if nxt == v and len(visited) >= 3:
                    path = visited + [v]
                    results.append(frozenset(zip(path, path[1:])))
                elif nxt not in visited and nxt != v:
                    dfs(nxt, visited + [nxt])

        dfs(u, [u])
        options.extend(results)
    return _drop_dominated(options)


def _drop_dominated(options: list[frozenset]) -> list[frozenset]:
    """Remove options that are supersets of another option (never optimal to use)."""
    kept: list[frozenset] = []
    for opt in sorted(set(options), key=lambda o: (len(o), sorted(map(repr, o)))):
        if not any(other <= opt for other in kept):
            kept.append(opt)
    return kept


# ---------------------------------------------------------- branch and bound
class _CoverSolver:
    """Minimum-cost edge set containing a full covering option per target."""

    def __init__(
        self,
        targets: list,
        options: dict,
        edge_cost: dict,
        node_budget: int = 2_000_000,
    ) -> None:
        self.targets = targets
        self.options = options
        self.edge_cost = edge_cost
        self.node_budget = node_budget
        self.nodes_explored = 0
        self.best_cost = float("inf")
        self.best_set: set | None = None

    def solve(self) -> tuple[set, float]:
        for t in self.targets:
            if not self.options[t]:
                raise ValueError(f"target {t!r} has no covering option; instance infeasible")
        greedy_set, greedy_cost = self._greedy()
        self.best_set, self.best_cost = greedy_set, greedy_cost
        self._search(set(), 0.0)
        assert self.best_set is not None
        return set(self.best_set), self.best_cost

    # -- helpers
    def _added_cost(self, chosen: set, option: frozenset) -> float:
        return sum(self.edge_cost[e] for e in option if e not in chosen)

    def _covered(self, chosen: set, target) -> bool:
        return any(opt <= chosen for opt in self.options[target])

    def _greedy(self) -> tuple[set, float]:
        chosen: set = set()
        order = sorted(self.targets, key=lambda t: (len(self.options[t]), repr(t)))
        for t in order:
            if self._covered(chosen, t):
                continue
            best_opt = min(self.options[t], key=lambda o: (self._added_cost(chosen, o), sorted(map(repr, o))))
            chosen |= best_opt
        cost = sum(self.edge_cost[e] for e in chosen)
        return chosen, cost

    def _search(self, chosen: set, cost: float) -> None:
        self.nodes_explored += 1
        if self.nodes_explored > self.node_budget:
            raise RuntimeError(
                "exact spanner search exceeded its node budget; "
                "instance too large for the exact solver"
            )
        if cost >= self.best_cost:
            return
        pending = [t for t in self.targets if not self._covered(chosen, t)]
        if not pending:
            self.best_cost = cost
            self.best_set = set(chosen)
            return
        # Branch on the most constrained target.
        target = min(pending, key=lambda t: (len(self.options[t]), repr(t)))
        branches = sorted(
            self.options[target],
            key=lambda o: (self._added_cost(chosen, o), sorted(map(repr, o))),
        )
        for option in branches:
            added = self._added_cost(chosen, option)
            if cost + added >= self.best_cost:
                continue
            new_chosen = chosen | option
            self._search(new_chosen, cost + added)


# -------------------------------------------------------------- public API
def minimum_k_spanner_exact(
    graph: Graph,
    k: int = 2,
    targets: Iterable[Edge] | None = None,
    use_weights: bool = False,
    allowed_edges: Iterable[Edge] | None = None,
) -> set[Edge]:
    """Exact minimum k-spanner (of ``targets``, default all edges) of a small graph.

    ``allowed_edges`` restricts which edges may be used by the spanner (needed
    for the client-server variant); by default all graph edges are allowed.
    ``use_weights`` switches the objective from cardinality to total weight.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    target_list = (
        [edge_key(u, v) for u, v in targets] if targets is not None else list(graph.edges())
    )
    allowed = (
        {edge_key(u, v) for u, v in allowed_edges}
        if allowed_edges is not None
        else graph.edge_set()
    )
    options: dict[Edge, list[frozenset[Edge]]] = {}
    for t in target_list:
        opts = [o for o in covering_options(graph, t, k) if o <= allowed]
        options[t] = opts
    cost = {
        e: (graph.weight(*e) if use_weights else 1.0) for e in allowed
    }
    solver = _CoverSolver(target_list, options, cost)
    best, _ = solver.solve()
    return best


def minimum_k_spanner_exact_directed(
    graph: DiGraph,
    k: int = 2,
    targets: Iterable[Arc] | None = None,
    use_weights: bool = False,
) -> set[Arc]:
    """Exact minimum directed k-spanner of a small digraph."""
    if k < 1:
        raise ValueError("k must be at least 1")
    target_list = list(targets) if targets is not None else list(graph.edges())
    options = {t: covering_options_directed(graph, t, k) for t in target_list}
    cost = {a: (graph.weight(*a) if use_weights else 1.0) for a in graph.edges()}
    solver = _CoverSolver(target_list, options, cost)
    best, _ = solver.solve()
    return best


def minimum_client_server_2_spanner_exact(instance: ClientServerInstance) -> set[Edge]:
    """Exact optimum for the client-server 2-spanner problem (coverable clients only)."""
    targets = instance.coverable_clients()
    return minimum_k_spanner_exact(
        instance.graph, k=2, targets=targets, allowed_edges=instance.servers
    )
