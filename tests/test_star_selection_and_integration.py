"""Tests for the Section 4.1 star-selection rule plus cross-module integration
and property-based checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.star_selection as star_selection
import repro.core.two_spanner as two_spanner
import repro.spanner.stars as stars
from repro.baselines import greedy_two_spanner, take_all_spanner
from repro.core import (
    StarSelectionState,
    WeightedVariant,
    choose_candidate_star,
    client_server_two_spanner,
    run_mds,
    run_two_spanner,
)
from repro.graphs import (
    all_edges_both,
    assign_weights_from_choices,
    complete_graph,
    connected_gnp_graph,
    edge_key,
    is_dominating_set,
)
from repro.spanner import (
    densest_star,
    is_k_spanner,
    minimum_k_spanner_exact,
    spanned_edges,
    star_density,
)


def neighborhood_instance(seed, n=9, p=0.5):
    """A (pool, candidate_edges) pair extracted from a random graph neighbourhood."""
    g = connected_gnp_graph(n, p, seed=seed)
    v = max(g.nodes(), key=lambda u: g.degree(u))
    pool = g.neighbors(v)
    candidate = {e for e in g.edge_set() if e[0] in pool and e[1] in pool}
    return pool, candidate


class TestStarSelection:
    def test_chosen_star_meets_threshold(self):
        pool, candidate = neighborhood_instance(1)
        state = StarSelectionState()
        rho = Fraction(2)
        leaves = choose_candidate_star(pool, candidate, rho, state, iteration=1)
        if candidate:
            assert star_density(leaves, candidate) >= rho / 4 or len(leaves) == len(pool)

    def test_containment_across_iterations_with_same_rho(self):
        pool, candidate = neighborhood_instance(2)
        state = StarSelectionState()
        rho = Fraction(2)
        first = choose_candidate_star(pool, candidate, rho, state, iteration=1)
        # Remove a chunk of the spanned edges (as if they were covered) and re-select.
        remaining = set(sorted(candidate, key=repr)[: max(1, len(candidate) // 2)])
        second = choose_candidate_star(pool, remaining, rho, state, iteration=2)
        assert second <= first or state.fallback_count == 0

    def test_rho_change_resets_selection(self):
        pool, candidate = neighborhood_instance(3)
        state = StarSelectionState()
        first = choose_candidate_star(pool, candidate, Fraction(4), state, iteration=1)
        second = choose_candidate_star(pool, candidate, Fraction(2), state, iteration=2)
        assert isinstance(first, frozenset) and isinstance(second, frozenset)
        assert state.last_rho == Fraction(2)

    def test_force_include_always_present(self):
        pool, candidate = neighborhood_instance(4)
        state = StarSelectionState()
        forced = {sorted(pool, key=repr)[0]}
        leaves = choose_candidate_star(
            pool, candidate, Fraction(2), state, iteration=1, force_include=forced
        )
        assert forced <= leaves

    def test_ablation_mode_ignores_history(self):
        pool, candidate = neighborhood_instance(5)
        state = StarSelectionState()
        choose_candidate_star(pool, candidate, Fraction(2), state, iteration=1)
        fresh = choose_candidate_star(
            pool, set(), Fraction(2), state, iteration=2, follow_paper_rule=False
        )
        assert isinstance(fresh, frozenset)

    def test_history_recorded(self):
        pool, candidate = neighborhood_instance(6)
        state = StarSelectionState()
        choose_candidate_star(pool, candidate, Fraction(2), state, iteration=1)
        choose_candidate_star(pool, candidate, Fraction(2), state, iteration=2)
        assert len(state.history) == 2


class TestNoRepeatedStarSolves:
    def test_full_pool_selection_reuses_given_densest_star(self, monkeypatch):
        pool, candidate = neighborhood_instance(7)
        densest, _ = densest_star(pool, candidate)
        full_pool_solves = []
        real = star_selection.densest_star

        def counting(restricted_pool, *args, **kwargs):
            full_pool_solves.append(set(restricted_pool) == set(pool))
            return real(restricted_pool, *args, **kwargs)

        monkeypatch.setattr(star_selection, "densest_star", counting)
        solved = choose_candidate_star(pool, candidate, Fraction(2), StarSelectionState(), 1)
        assert full_pool_solves.count(True) == 1
        full_pool_solves.clear()
        reused = choose_candidate_star(
            pool, candidate, Fraction(2), StarSelectionState(), 1, pool_densest=densest
        )
        assert full_pool_solves.count(True) == 0
        assert reused == solved

    @pytest.mark.parametrize("weighted", [False, True])
    def test_candidate_phase_does_not_resolve_density_phase_star(self, monkeypatch, weighted):
        g = connected_gnp_graph(30, 0.3, seed=4)
        variant = None
        if weighted:
            assign_weights_from_choices(g, [1.0, 2.0, 4.0], seed=5)
            variant = WeightedVariant()
        expected = run_two_spanner(g, variant=variant, seed=6)

        density_calls, full_pool_solves, pools = [], [], []
        real_densest = stars.densest_star
        real_choose = star_selection.choose_candidate_star

        def density_phase(*args, **kwargs):
            density_calls.append(1)
            return real_densest(*args, **kwargs)

        def selection(restricted_pool, *args, **kwargs):
            full_pool_solves.append(set(restricted_pool) == pools[-1])
            return real_densest(restricted_pool, *args, **kwargs)

        def choose(pool, *args, **kwargs):
            pools.append(set(pool))
            return real_choose(pool, *args, **kwargs)

        monkeypatch.setattr(two_spanner, "densest_star", density_phase)
        monkeypatch.setattr(star_selection, "densest_star", selection)
        monkeypatch.setattr(two_spanner, "choose_candidate_star", choose)
        result = run_two_spanner(g, variant=variant, seed=6)
        assert pools and density_calls
        assert True not in full_pool_solves
        assert result.edges == expected.edges
        assert result.metrics.as_dict() == expected.metrics.as_dict()


class TestCrossAlgorithmConsistency:
    @pytest.mark.parametrize("seed", range(3))
    def test_distributed_never_loses_to_take_all_badly(self, seed):
        g = connected_gnp_graph(20, 0.35, seed=seed)
        distributed = run_two_spanner(g, seed=seed).edges
        assert len(distributed) <= len(take_all_spanner(g))

    @pytest.mark.parametrize("seed", range(3))
    def test_distributed_comparable_to_sequential_greedy(self, seed):
        g = connected_gnp_graph(18, 0.4, seed=seed)
        distributed = run_two_spanner(g, seed=seed).edges
        greedy = greedy_two_spanner(g)
        assert is_k_spanner(g, distributed, 2) and is_k_spanner(g, greedy, 2)
        # Both are O(log m/n) approximations; they should be within a small
        # constant factor of one another.
        assert len(distributed) <= 4 * len(greedy) + 8

    def test_client_server_all_both_matches_plain_size_class(self):
        g = connected_gnp_graph(15, 0.4, seed=7)
        plain = run_two_spanner(g, seed=8).edges
        cs = client_server_two_spanner(all_edges_both(g), seed=8).edges
        assert is_k_spanner(g, cs, 2)
        assert len(cs) <= 3 * len(plain) + 8

    def test_mds_vs_spanner_machinery_share_simulator(self):
        g = complete_graph(9)
        spanner = run_two_spanner(g, seed=1)
        mds = run_mds(g, seed=1)
        assert is_k_spanner(g, spanner.edges, 2)
        assert is_dominating_set(g, mds.dominators)
        assert mds.size == 1

    def test_exact_never_beaten(self):
        for seed in range(3):
            g = connected_gnp_graph(11, 0.45, seed=seed)
            opt = len(minimum_k_spanner_exact(g, 2))
            assert len(run_two_spanner(g, seed=seed).edges) >= opt
            assert len(greedy_two_spanner(g)) >= opt


class TestPropertyBased:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=8, max_value=16),
        st.integers(min_value=0, max_value=2**20),
    )
    def test_distributed_spanner_valid_on_random_graphs(self, n, seed):
        g = connected_gnp_graph(n, 0.35, seed=seed)
        result = run_two_spanner(g, seed=seed)
        assert is_k_spanner(g, result.edges, 2)
        assert result.edges <= g.edge_set()

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=8, max_value=20),
        st.integers(min_value=0, max_value=2**20),
    )
    def test_mds_valid_on_random_graphs(self, n, seed):
        g = connected_gnp_graph(n, 0.3, seed=seed)
        result = run_mds(g, seed=seed)
        assert is_dominating_set(g, result.dominators)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20))
    def test_spanned_edges_subset_invariant(self, seed):
        g = connected_gnp_graph(10, 0.4, seed=seed)
        v = max(g.nodes(), key=lambda u: g.degree(u))
        pool = g.neighbors(v)
        candidate = {e for e in g.edge_set() if e[0] in pool and e[1] in pool}
        spanned = spanned_edges(pool, candidate)
        assert spanned == candidate
        for e in spanned:
            assert edge_key(*e) in g.edge_set()
