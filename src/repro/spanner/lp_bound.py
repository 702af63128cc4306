"""LP-relaxation lower bounds on the minimum 2-spanner cost.

Exact optima (``repro.spanner.optimal``) are only tractable on small graphs.
For medium graphs the benchmarks estimate approximation ratios against the
standard path-based LP relaxation of the 2-spanner problem, whose optimum
never exceeds the true optimum:

    minimise   sum_e  c_e x_e
    subject to sum_{P covers t} y_{t,P} >= 1        for every target edge t
               y_{t,P} <= x_f                        for every option P of t, f in P
               0 <= x, y <= 1

where the covering options P are single edges or 2-paths (the same options as
the exact solver).  The LP is solved with ``scipy.optimize.linprog`` (HiGHS).
SciPy is imported inside :func:`lp_cover_lower_bound`, the package's only
SciPy caller, so the simulator, the 2-spanner and the graph builds never load
it.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.digraph import Arc, DiGraph
from repro.graphs.graph import Graph
from repro.spanner.optimal import covering_options, covering_options_directed


def lp_cover_lower_bound(
    targets: list,
    options: dict,
    edge_cost: dict,
) -> float:
    """Generic LP lower bound for "pick edges so each target has a full option".

    ``options[t]`` is a list of frozensets of edge keys; ``edge_cost`` maps
    every edge appearing in any option to its cost.  Returns the LP optimum
    (0.0 when there are no targets).
    """
    if not targets:
        return 0.0
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    for t in targets:
        if not options[t]:
            raise ValueError(f"target {t!r} has no covering option; instance infeasible")

    edge_index = {e: i for i, e in enumerate(sorted(edge_cost, key=repr))}
    n_x = len(edge_index)
    y_index: dict[tuple[int, int], int] = {}
    for ti, t in enumerate(targets):
        for oi, _ in enumerate(options[t]):
            y_index[(ti, oi)] = n_x + len(y_index)
    n_vars = n_x + len(y_index)

    cost = np.zeros(n_vars)
    for e, i in edge_index.items():
        cost[i] = edge_cost[e]

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    rhs: list[float] = []
    row = 0
    # Coverage constraints: -sum_P y_{t,P} <= -1
    for ti, t in enumerate(targets):
        for oi, _ in enumerate(options[t]):
            rows.append(row)
            cols.append(y_index[(ti, oi)])
            data.append(-1.0)
        rhs.append(-1.0)
        row += 1
    # Linking constraints: y_{t,P} - x_f <= 0.  Options are frozensets:
    # iterate them sorted, or the row order (and HiGHS's last digits) would
    # follow PYTHONHASHSEED.
    for ti, t in enumerate(targets):
        for oi, option in enumerate(options[t]):
            for f in sorted(option, key=repr):
                rows.append(row)
                cols.append(y_index[(ti, oi)])
                data.append(1.0)
                rows.append(row)
                cols.append(edge_index[f])
                data.append(-1.0)
                rhs.append(0.0)
                row += 1

    a_ub = coo_matrix((data, (rows, cols)), shape=(row, n_vars))
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.array(rhs),
        bounds=[(0.0, 1.0)] * n_vars,
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP solver failed: {result.message}")
    return float(result.fun)


def lp_lower_bound_2spanner(graph: Graph, use_weights: bool = False) -> float:
    """LP lower bound for the (possibly weighted) undirected minimum 2-spanner."""
    targets = list(graph.edges())
    options = {t: covering_options(graph, t, 2) for t in targets}
    cost = {e: (graph.weight(*e) if use_weights else 1.0) for e in graph.edges()}
    return lp_cover_lower_bound(targets, options, cost)


def lp_lower_bound_2spanner_directed(graph: DiGraph, use_weights: bool = False) -> float:
    """LP lower bound for the (possibly weighted) directed minimum 2-spanner."""
    targets: list[Arc] = list(graph.edges())
    options = {t: covering_options_directed(graph, t, 2) for t in targets}
    cost = {a: (graph.weight(*a) if use_weights else 1.0) for a in graph.edges()}
    return lp_cover_lower_bound(targets, options, cost)
