"""Tests for the baseline algorithms (Kortsarz-Peleg, Baswana-Sen, MDS, trivial)."""

import pytest

from repro.baselines import (
    baswana_sen_spanner,
    exact_dominating_set,
    expectation_randomized_mds,
    expected_size_bound,
    greedy_client_server_two_spanner,
    greedy_dominating_set,
    greedy_two_spanner,
    implied_approximation_ratio,
    take_all_spanner,
)
from repro.graphs import (
    all_edges_both,
    assign_random_weights,
    complete_bipartite_graph,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    is_dominating_set,
    log_m_over_n,
    path_graph,
    random_digraph,
    random_split_instance,
    star_graph,
)
from repro.spanner import (
    is_client_server_2_spanner,
    is_k_spanner,
    is_k_spanner_directed,
    minimum_k_spanner_exact,
    spanner_cost,
)


class TestKortsarzPeleg:
    @pytest.mark.parametrize("seed", range(4))
    def test_valid_two_spanner(self, seed):
        g = connected_gnp_graph(18, 0.35, seed=seed)
        spanner = greedy_two_spanner(g)
        assert is_k_spanner(g, spanner, 2)

    def test_clique_gets_near_optimal_star(self):
        g = complete_graph(10)
        spanner = greedy_two_spanner(g)
        assert is_k_spanner(g, spanner, 2)
        assert len(spanner) <= 2 * 9

    def test_ratio_vs_exact(self):
        for seed in range(3):
            g = connected_gnp_graph(13, 0.45, seed=seed)
            spanner = greedy_two_spanner(g)
            opt = len(minimum_k_spanner_exact(g, 2))
            assert len(spanner) <= 8 * log_m_over_n(g) * opt

    def test_weighted_mode(self):
        g = connected_gnp_graph(13, 0.4, seed=5)
        assign_random_weights(g, 1, 6, seed=6, integer=True)
        spanner = greedy_two_spanner(g, weighted=True)
        assert is_k_spanner(g, spanner, 2)
        assert spanner_cost(g, spanner) <= spanner_cost(g, g.edge_set())

    def test_peeling_mode(self):
        g = connected_gnp_graph(16, 0.35, seed=7)
        spanner = greedy_two_spanner(g, method="peeling")
        assert is_k_spanner(g, spanner, 2)

    def test_client_server_greedy(self):
        inst = random_split_instance(connected_gnp_graph(14, 0.4, seed=8), seed=9)
        chosen = greedy_client_server_two_spanner(inst)
        assert is_client_server_2_spanner(inst, chosen)
        assert chosen <= inst.servers

    def test_client_server_greedy_all_both(self):
        inst = all_edges_both(connected_gnp_graph(12, 0.4, seed=10))
        chosen = greedy_client_server_two_spanner(inst)
        assert is_client_server_2_spanner(inst, chosen)


class TestBaswanaSen:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stretch_guarantee(self, k):
        g = connected_gnp_graph(30, 0.25, seed=k)
        spanner = baswana_sen_spanner(g, k=k, seed=k)
        assert is_k_spanner(g, spanner, 2 * k - 1)

    def test_k1_keeps_all_edges(self):
        g = connected_gnp_graph(15, 0.3, seed=4)
        spanner = baswana_sen_spanner(g, k=1, seed=4)
        assert spanner == g.edge_set()

    def test_size_shrinks_with_k(self):
        g = connected_gnp_graph(60, 0.3, seed=5)
        sizes = [len(baswana_sen_spanner(g, k=k, seed=6)) for k in (1, 2, 3)]
        assert sizes[0] >= sizes[1] >= sizes[2] - 5

    def test_expected_size_bound_reasonable(self):
        g = connected_gnp_graph(60, 0.3, seed=7)
        spanner = baswana_sen_spanner(g, k=2, seed=8)
        assert len(spanner) <= 4 * expected_size_bound(60, 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            baswana_sen_spanner(path_graph(3), k=0)

    def test_implied_ratio(self):
        g = connected_gnp_graph(40, 0.4, seed=9)
        spanner = baswana_sen_spanner(g, k=2, seed=10)
        ratio = implied_approximation_ratio(g, len(spanner))
        assert ratio >= 1.0
        assert ratio <= g.number_of_edges() / (g.number_of_nodes() - 1) + 1e-9


class TestTrivialBaselines:
    def test_take_all(self):
        g = connected_gnp_graph(12, 0.4, seed=1)
        assert take_all_spanner(g) == g.edge_set()

    def test_take_all_directed(self):
        d = random_digraph(10, 0.3, seed=2)
        assert take_all_spanner(d) == d.edge_set()
        assert is_k_spanner_directed(d, take_all_spanner(d), 2)


class TestMDSBaselines:
    def test_greedy_dominates(self):
        g = connected_gnp_graph(30, 0.15, seed=3)
        assert is_dominating_set(g, greedy_dominating_set(g))

    def test_greedy_star_optimal(self):
        assert greedy_dominating_set(star_graph(9)) == {0}

    def test_exact_matches_known_optimum(self):
        assert len(exact_dominating_set(star_graph(6))) == 1
        assert len(exact_dominating_set(cycle_graph(6))) == 2
        assert len(exact_dominating_set(path_graph(7))) == 3

    def test_exact_not_larger_than_greedy(self):
        for seed in range(3):
            g = connected_gnp_graph(14, 0.25, seed=seed)
            assert len(exact_dominating_set(g)) <= len(greedy_dominating_set(g))

    def test_expectation_variant_dominates(self):
        g = connected_gnp_graph(40, 0.1, seed=4)
        dom = expectation_randomized_mds(g, seed=5)
        assert is_dominating_set(g, dom)

    def test_expectation_variant_is_random(self):
        g = connected_gnp_graph(40, 0.1, seed=6)
        a = expectation_randomized_mds(g, seed=1)
        b = expectation_randomized_mds(g, seed=1)
        assert a == b  # same seed, same result


class TestBipartiteHardCase:
    def test_all_methods_keep_bipartite_edges(self):
        g = complete_bipartite_graph(3, 4)
        assert greedy_two_spanner(g) == g.edge_set()
        assert take_all_spanner(g) == g.edge_set()
