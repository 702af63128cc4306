"""Tests for the weighted, client-server and directed 2-spanner variants."""

import math

import pytest

from repro.core import (
    ClientServerVariant,
    TwoSpannerOptions,
    WeightedVariant,
    client_server_two_spanner,
    run_directed_two_spanner,
    run_two_spanner,
)
from repro.graphs import (
    DiGraph,
    all_edges_both,
    assign_random_weights,
    assign_weights_from_choices,
    bidirect,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    gnp_random_graph,
    log_max_degree,
    orient_randomly,
    random_digraph,
    random_split_instance,
    random_tournament,
)
from repro.spanner import (
    is_client_server_2_spanner,
    is_k_spanner,
    is_k_spanner_directed,
    lp_lower_bound_2spanner_directed,
    minimum_client_server_2_spanner_exact,
    minimum_k_spanner_exact,
    minimum_k_spanner_exact_directed,
    spanner_cost,
)


def weighted_graph(n, p, seed, low=1, high=8):
    g = connected_gnp_graph(n, p, seed=seed)
    assign_random_weights(g, low, high, seed=seed + 1, integer=True)
    return g


class TestWeightedVariant:
    @pytest.mark.parametrize("seed", range(3))
    def test_validity(self, seed):
        g = weighted_graph(16, 0.4, seed)
        result = run_two_spanner(g, variant=WeightedVariant(), seed=seed)
        assert is_k_spanner(g, result.edges, 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_cost_within_log_delta_envelope(self, seed):
        g = weighted_graph(13, 0.45, seed)
        result = run_two_spanner(g, variant=WeightedVariant(), seed=seed)
        opt = minimum_k_spanner_exact(g, 2, use_weights=True)
        opt_cost = spanner_cost(g, opt)
        # Theorem 4.12: O(log Delta) with a large hidden constant.
        assert result.cost(g) <= 16 * log_max_degree(g) * max(1.0, opt_cost)

    def test_zero_weight_edges_taken_upfront(self):
        g = connected_gnp_graph(14, 0.4, seed=5)
        assign_weights_from_choices(g, [0.0, 3.0], seed=6)
        result = run_two_spanner(g, variant=WeightedVariant(), seed=7)
        zero_edges = {e for e in g.edges() if g.weight(*e) == 0}
        assert zero_edges <= result.edges
        assert is_k_spanner(g, result.edges, 2)

    def test_uniform_weights_behave_like_unweighted(self):
        g = connected_gnp_graph(14, 0.4, seed=8)
        unweighted = run_two_spanner(g, seed=9)
        weighted = run_two_spanner(g, variant=WeightedVariant(), seed=9)
        assert is_k_spanner(g, weighted.edges, 2)
        # Same problem, same guarantee family: sizes stay comparable.
        assert len(weighted.edges) <= 2 * len(unweighted.edges) + 4

    def test_expensive_edge_avoided_in_triangle(self):
        g = cycle_graph(3)
        g.set_weight(0, 1, 100.0)
        result = run_two_spanner(g, variant=WeightedVariant(), seed=1)
        assert is_k_spanner(g, result.edges, 2)
        assert result.cost(g) <= 2.0

    def test_wide_weight_spread_terminates(self):
        g = connected_gnp_graph(12, 0.4, seed=10)
        assign_weights_from_choices(g, [0.5, 1.0, 64.0], seed=11)
        result = run_two_spanner(g, variant=WeightedVariant(), seed=12)
        assert is_k_spanner(g, result.edges, 2)
        n, delta = g.number_of_nodes(), g.max_degree()
        envelope = 12 * max(1, math.log2(n)) * max(1, math.log2(delta * 128)) + 10
        assert result.iterations <= envelope


class TestClientServerVariant:
    @pytest.mark.parametrize("seed", range(3))
    def test_validity(self, seed):
        inst = random_split_instance(connected_gnp_graph(16, 0.4, seed=seed), seed=seed + 50)
        result = client_server_two_spanner(inst, seed=seed)
        assert is_client_server_2_spanner(inst, result.edges)

    def test_only_server_edges_used(self):
        inst = random_split_instance(connected_gnp_graph(16, 0.4, seed=3), seed=4)
        result = client_server_two_spanner(inst, seed=5)
        assert result.edges <= inst.servers

    def test_all_edges_both_reduces_to_plain_spanner(self):
        g = connected_gnp_graph(14, 0.4, seed=6)
        inst = all_edges_both(g)
        result = client_server_two_spanner(inst, seed=7)
        assert is_k_spanner(g, result.edges, 2)

    def test_ratio_against_exact(self):
        g = connected_gnp_graph(11, 0.5, seed=8)
        inst = random_split_instance(g, seed=9)
        result = client_server_two_spanner(inst, seed=10)
        opt = minimum_client_server_2_spanner_exact(inst)
        if opt:
            clients = max(1, len(inst.clients))
            vc = max(1, len(inst.client_vertices()))
            bound = max(1.0, math.log2(max(2.0, clients / vc)))
            delta_s = max(2, inst.server_max_degree())
            envelope = 16 * min(bound, math.log2(delta_s)) + 4
            assert len(result.edges) <= envelope * max(1, len(opt))

    def test_variant_object_direct_use(self):
        g = connected_gnp_graph(12, 0.4, seed=11)
        inst = all_edges_both(g)
        result = run_two_spanner(g, variant=ClientServerVariant(inst), seed=12)
        assert is_client_server_2_spanner(inst, result.edges)


class TestDirectedVariant:
    @pytest.mark.parametrize("seed", range(3))
    def test_validity_random_digraph(self, seed):
        d = random_digraph(12, 0.3, seed=seed)
        result = run_directed_two_spanner(d, seed=seed)
        assert is_k_spanner_directed(d, result.arcs, 2)
        assert result.arcs <= d.edge_set()

    def test_validity_tournament(self):
        d = random_tournament(9, seed=4)
        result = run_directed_two_spanner(d, seed=5)
        assert is_k_spanner_directed(d, result.arcs, 2)

    def test_validity_oriented_gnp(self):
        d = orient_randomly(connected_gnp_graph(14, 0.4, seed=6), seed=7)
        result = run_directed_two_spanner(d, seed=8)
        assert is_k_spanner_directed(d, result.arcs, 2)

    def test_bidirected_clique_close_to_optimum(self):
        d = bidirect(complete_graph(7))
        result = run_directed_two_spanner(d, seed=9)
        assert is_k_spanner_directed(d, result.arcs, 2)
        # The LP bound is at most OPT, so this is stricter than comparing
        # against the exact optimum (whose branch-and-bound on bidirected K7
        # takes minutes; test_ratio_against_exact_small covers the solver).
        lp = math.ceil(lp_lower_bound_2spanner_directed(d) - 1e-9)
        assert len(result.arcs) <= 16 * max(1, lp)

    def test_ratio_against_exact_small(self):
        d = random_digraph(10, 0.35, seed=10)
        result = run_directed_two_spanner(d, seed=11)
        opt = minimum_k_spanner_exact_directed(d, 2)
        m, n = d.number_of_edges(), d.number_of_nodes()
        bound = max(1.0, math.log2(max(2.0, m / n)))
        assert len(result.arcs) <= 24 * bound * max(1, len(opt))

    def test_determinism(self):
        d = random_digraph(12, 0.3, seed=12)
        a = run_directed_two_spanner(d, seed=3)
        b = run_directed_two_spanner(d, seed=3)
        assert a.arcs == b.arcs

    def test_peeling_mode(self):
        d = random_digraph(12, 0.3, seed=13)
        result = run_directed_two_spanner(
            d, seed=1, options=TwoSpannerOptions(densest_method="peeling")
        )
        assert is_k_spanner_directed(d, result.arcs, 2)

    def test_empty_and_tiny_digraphs(self):
        d = DiGraph([(0, 1)])
        result = run_directed_two_spanner(d, seed=1)
        assert result.arcs == {(0, 1)}

    # The instances the tests above run, plus the bidirected K6 of E03.
    @pytest.mark.parametrize(
        "digraph, seed, options",
        [
            (lambda: random_digraph(12, 0.3, seed=0), 0, None),
            (lambda: random_digraph(12, 0.3, seed=1), 1, None),
            (lambda: random_digraph(12, 0.3, seed=2), 2, None),
            (lambda: random_tournament(9, seed=4), 5, None),
            (lambda: orient_randomly(connected_gnp_graph(14, 0.4, seed=6), seed=7), 8, None),
            (lambda: bidirect(complete_graph(7)), 9, None),
            (lambda: random_digraph(10, 0.35, seed=10), 11, None),
            (lambda: random_digraph(12, 0.3, seed=12), 3, None),
            (
                lambda: random_digraph(12, 0.3, seed=13),
                1,
                TwoSpannerOptions(densest_method="peeling"),
            ),
            (lambda: DiGraph([(0, 1)]), 1, None),
            (lambda: bidirect(complete_graph(6)), 7, None),
        ],
    )
    def test_fallback_count(self, digraph, seed, options):
        result = run_directed_two_spanner(digraph(), seed=seed, options=options)
        per_node = [out["fallbacks"] for out in result.node_outputs.values() if out]
        assert result.fallback_count == sum(per_node)
        assert result.fallback_count == 0


@pytest.mark.parametrize(
    "run, graph",
    [
        (run_two_spanner, lambda: gnp_random_graph(25, 0.2, seed=0)),
        (run_directed_two_spanner, lambda: random_digraph(12, 0.3, seed=0)),
    ],
    ids=["undirected", "directed"],
)
def test_iteration_cap_raises(run, graph):
    g = graph()
    assert run(g, seed=1).iterations > 1
    with pytest.raises(RuntimeError, match="exceeded 1 iterations"):
        run(g, seed=1, options=TwoSpannerOptions(max_iterations=1))
