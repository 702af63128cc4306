"""Tests for Dinic max-flow and the densest-subgraph solvers."""

import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import (
    MaxFlowNetwork,
    densest_subgraph_exact,
    densest_subgraph_peeling,
    max_flow_min_cut,
    subgraph_density,
)


def brute_force_densest(nodes, edges, weights=None):
    """Reference solver: enumerate all non-empty subsets."""
    best = Fraction(-1)
    best_set = set()
    for size in range(1, len(nodes) + 1):
        for subset in combinations(nodes, size):
            d = subgraph_density(subset, edges, weights)
            if d > best:
                best = d
                best_set = set(subset)
    return best_set, best


class TestDinic:
    def test_single_edge(self):
        value, cut = max_flow_min_cut([("s", "t", 5)], "s", "t")
        assert value == 5
        assert cut == {"s"}

    def test_classic_network(self):
        edges = [
            ("s", "a", 10),
            ("s", "b", 10),
            ("a", "b", 2),
            ("a", "t", 4),
            ("b", "t", 9),
        ]
        value, _ = max_flow_min_cut(edges, "s", "t")
        assert value == 13

    def test_disconnected_sink(self):
        value, cut = max_flow_min_cut([("s", "a", 3)], "s", "t")
        assert value == 0
        assert "a" in cut

    def test_fraction_capacities(self):
        edges = [("s", "a", Fraction(1, 3)), ("a", "t", Fraction(1, 2))]
        value, _ = max_flow_min_cut(edges, "s", "t")
        assert value == Fraction(1, 3)

    def test_parallel_paths(self):
        edges = [("s", "a", 1), ("a", "t", 1), ("s", "b", 1), ("b", "t", 1)]
        value, _ = max_flow_min_cut(edges, "s", "t")
        assert value == 2

    def test_source_equals_sink_rejected(self):
        net = MaxFlowNetwork()
        net.add_edge("s", "t", 1)
        with pytest.raises(ValueError):
            net.max_flow("s", "s")

    def test_negative_capacity_rejected(self):
        net = MaxFlowNetwork()
        with pytest.raises(ValueError):
            net.add_edge("a", "b", -1)

    def test_augmenting_path_longer_than_recursion_limit(self):
        # s -> 0 -> 1 -> ... -> 1500 -> t: one augmenting path of 1502 arcs.
        edges = [("s", 0, 1)] + [(i, i + 1, 1) for i in range(1500)] + [(1500, "t", 1)]
        value, cut = max_flow_min_cut(edges, "s", "t")
        assert value == 1
        assert cut == {"s"}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**20))
    def test_bulk_indexed_network_matches_incremental(self, n, seed):
        rng = random.Random(seed)
        arcs = [
            (u, v, rng.randint(0, 5))
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.4
        ]
        tails = [u for u, _, _ in arcs]
        heads = [v for _, v, _ in arcs]
        caps = [c for _, _, c in arcs]
        bulk = MaxFlowNetwork.indexed(n, tails, heads)
        bulk.set_capacities(caps)
        value = bulk.max_flow(0, n - 1)
        assert (value, bulk.min_cut_source_side(0)) == max_flow_min_cut(arcs, 0, n - 1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**20))
    def test_second_flow_on_a_reused_layout_matches_a_fresh_network(self, n, seed):
        rng = random.Random(seed)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.4]
        tails = [u for u, _ in arcs]
        heads = [v for _, v in arcs]
        first = [rng.randint(0, 5) for _ in arcs]
        second = [rng.randint(0, 5) for _ in arcs]
        reused = MaxFlowNetwork.indexed(n, tails, heads)
        reused.set_capacities(first)
        reused.max_flow(0, n - 1)  # leaves residual flow behind
        reused.set_capacities(second)
        fresh = MaxFlowNetwork.indexed(n, tails, heads)
        fresh.set_capacities(second)
        assert (reused.max_flow(0, n - 1), reused.min_cut_source_side(0)) == (
            fresh.max_flow(0, n - 1),
            fresh.min_cut_source_side(0),
        )


class TestDensestSubgraphExact:
    def test_triangle_with_pendant(self):
        nodes = [1, 2, 3, 4]
        edges = [(1, 2), (2, 3), (1, 3), (3, 4)]
        subset, density = densest_subgraph_exact(nodes, edges)
        assert density == Fraction(1)
        assert {1, 2, 3} <= subset

    def test_clique_plus_sparse_tail(self):
        # K4 (density 3/2) attached to a long path.
        nodes = list(range(10))
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(i, i + 1) for i in range(4, 9)] + [(3, 4)]
        subset, density = densest_subgraph_exact(nodes, edges)
        assert subset == {0, 1, 2, 3}
        assert density == Fraction(3, 2)

    def test_no_edges(self):
        subset, density = densest_subgraph_exact([1, 2, 3], [])
        assert density == 0
        assert len(subset) == 1

    def test_empty_input(self):
        subset, density = densest_subgraph_exact([], [])
        assert subset == set()
        assert density == 0

    def test_node_weights_shift_optimum(self):
        # Unweighted optimum is the triangle; making its nodes heavy moves the
        # optimum to the light pair of multiplicity-heavy structure.
        nodes = ["a", "b", "c", "d", "e"]
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")]
        heavy = {"a": Fraction(10), "b": Fraction(10), "c": Fraction(10), "d": Fraction(1), "e": Fraction(1)}
        subset, density = densest_subgraph_exact(nodes, edges, heavy)
        assert subset == {"d", "e"}
        assert density == Fraction(1, 2)

    def test_zero_weight_nodes_allowed_without_internal_edges(self):
        nodes = ["a", "b", "z"]
        edges = [("a", "z"), ("a", "b")]
        weights = {"a": Fraction(1), "b": Fraction(1), "z": Fraction(0)}
        subset, density = densest_subgraph_exact(nodes, edges, weights)
        assert "z" in subset
        assert density == Fraction(2, 2)

    def test_zero_weight_edge_inside_rejected(self):
        with pytest.raises(ValueError):
            densest_subgraph_exact(
                ["a", "b"], [("a", "b")], {"a": Fraction(0), "b": Fraction(0)}
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            densest_subgraph_exact(["a"], [], {"a": Fraction(-1)})

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**20))
    def test_matches_brute_force_on_random_graphs(self, n, seed):
        import random

        rng = random.Random(seed)
        nodes = list(range(n))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
        subset, density = densest_subgraph_exact(nodes, edges)
        _, best = brute_force_densest(nodes, edges)
        assert density == best
        assert subgraph_density(subset, edges) == best


def reference_densest(nodes, edges, weights):
    """The Dinkelbach loop on the generic network with ``Fraction`` capacities.

    Every node, edgeless or not, enters the network, and capacities stay
    unscaled rationals: the straightforward construction the integer solver
    must agree with subset for subset.
    """
    weights = {v: Fraction(1) if weights is None else Fraction(weights[v]) for v in nodes}
    if not edges:
        return {min(nodes, key=lambda v: (weights[v], repr(v)))}, Fraction(0)
    source, sink = object(), object()
    degree = {v: sum(v in e for e in edges) for v in nodes}
    best_set = set(nodes)
    best = subgraph_density(best_set, edges, weights)
    while True:
        arcs = [(source, v, degree[v]) for v in nodes]
        arcs += [(v, sink, 2 * best * weights[v]) for v in nodes]
        arcs += [arc for u, v in edges for arc in ((u, v, 1), (v, u, 1))]
        value, side = max_flow_min_cut(arcs, source, sink)
        candidate = side - {source}
        if value >= 2 * len(edges) or not candidate:
            return best_set, best
        density = subgraph_density(candidate, edges, weights)
        if density <= best:
            return best_set, best
        best_set, best = candidate, density


# Denominators 2, 3, 4, 6 and 12 share factors: a per-vertex scale of
# ``g.den * w.den`` would not be exact for every pair.
WEIGHT_CHOICES = [Fraction(0), Fraction(1, 2), Fraction(1, 6), Fraction(3, 4),
                  Fraction(1), Fraction(2, 3), Fraction(5, 12), Fraction(3)]

#: Examples per run of the differential test; CI's benchmark job raises it.
DENSEST_EXAMPLES = int(os.environ.get("REPRO_DENSEST_EXAMPLES", "60"))


@st.composite
def densest_instances(draw):
    """Small graphs with mixed labels, edgeless vertices and rational weights."""
    n = draw(st.integers(min_value=1, max_value=8))
    makers = [lambda i: i, lambda i: f"v{i}", lambda i: (i, "t")]
    nodes = [makers[draw(st.integers(0, 2))](i) for i in range(n)]
    pairs = [(nodes[a], nodes[b]) for a in range(n) for b in range(a + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    weights = None
    if draw(st.booleans()):
        weights = {v: draw(st.sampled_from(WEIGHT_CHOICES)) for v in nodes}
        # Two weight-0 ends would make the density unbounded (rejected input).
        edges = [(u, v) for u, v in edges if weights[u] or weights[v]]
    return nodes, edges, weights


class TestDensestDifferential:
    @settings(max_examples=DENSEST_EXAMPLES, deadline=None, derandomize=True)
    @given(densest_instances())
    def test_exact_solver_matches_reference_subset(self, instance):
        nodes, edges, weights = instance
        assert densest_subgraph_exact(nodes, edges, weights) == reference_densest(
            nodes, edges, weights
        )

    def test_edgeless_and_zero_weight_vertices(self):
        nodes = ["a", "b", "c", ("iso", 1), 7]
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", 7)]
        weights = {"a": Fraction(1, 2), "b": Fraction(1, 6), "c": Fraction(3, 4),
                   ("iso", 1): Fraction(1, 2), 7: Fraction(0)}
        subset, density = densest_subgraph_exact(nodes, edges, weights)
        assert (subset, density) == reference_densest(nodes, edges, weights)
        assert subset == {"a", "b", "c", 7}
        assert density == Fraction(48, 17)


class TestDensestSubgraphPeeling:
    def test_triangle_found(self):
        nodes = [1, 2, 3, 4, 5]
        edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]
        subset, density = densest_subgraph_peeling(nodes, edges)
        assert density >= Fraction(1, 2) * Fraction(1)  # 2-approximation of 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**20))
    def test_within_factor_two_of_optimum(self, n, seed):
        import random

        rng = random.Random(seed)
        nodes = list(range(n))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
        _, approx = densest_subgraph_peeling(nodes, edges)
        _, best = brute_force_densest(nodes, edges)
        assert approx * 2 >= best

    def test_dispatch(self):
        from repro.flow import densest_subgraph

        nodes = [1, 2, 3]
        edges = [(1, 2)]
        assert densest_subgraph(nodes, edges, method="exact")[1] == Fraction(1, 2)
        assert densest_subgraph(nodes, edges, method="peeling")[1] == Fraction(1, 2)
        with pytest.raises(ValueError):
            densest_subgraph(nodes, edges, method="bogus")
