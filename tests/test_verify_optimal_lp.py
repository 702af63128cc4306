"""Tests for spanner verification, the exact solver and the LP lower bound."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    DiGraph,
    all_edges_both,
    complete_bipartite_graph,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    path_graph,
    random_digraph,
    random_split_instance,
    star_graph,
)
from repro.spanner import (
    covering_options,
    covering_options_directed,
    is_client_server_2_spanner,
    is_k_spanner,
    is_k_spanner_directed,
    lp_lower_bound_2spanner,
    lp_lower_bound_2spanner_directed,
    minimum_client_server_2_spanner_exact,
    minimum_k_spanner_exact,
    minimum_k_spanner_exact_directed,
    spanner_cost,
    stretch_of,
    uncovered_edges,
)


class TestVerify:
    def test_full_graph_is_spanner(self):
        g = connected_gnp_graph(12, 0.4, seed=1)
        assert is_k_spanner(g, g.edge_set(), 2)
        assert is_k_spanner(g, g.edge_set(), 5)

    def test_star_spans_clique(self):
        g = complete_graph(6)
        star = {(0, i) for i in range(1, 6)}
        assert is_k_spanner(g, star, 2)
        assert not is_k_spanner(g, star, 1)

    def test_path_cannot_drop_edges_for_k2(self):
        g = path_graph(5)
        assert not is_k_spanner(g, set(list(g.edges())[:-1]), 2)

    def test_cycle_k_spanner(self):
        g = cycle_graph(6)
        spanner = set(list(g.edges()))
        spanner.discard((0, 5))
        assert is_k_spanner(g, spanner, 5)
        assert not is_k_spanner(g, spanner, 4)

    def test_uncovered_edges_listed(self):
        g = cycle_graph(4)
        unc = uncovered_edges(g, {(0, 1)}, 2)
        assert (2, 3) in unc

    def test_spanner_edge_must_exist(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            is_k_spanner(g, {(0, 2)}, 2)

    def test_directed_verification(self):
        d = DiGraph([(0, 1), (1, 2), (0, 2)])
        assert is_k_spanner_directed(d, {(0, 1), (1, 2)}, 2)
        assert not is_k_spanner_directed(d, {(0, 1)}, 2)
        # Reverse path does not cover a directed edge.
        d2 = DiGraph([(0, 1), (1, 0)])
        assert not is_k_spanner_directed(d2, {(0, 1)}, 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            is_k_spanner(path_graph(3), set(), 0)

    def test_stretch_of(self):
        g = complete_graph(5)
        star = {(0, i) for i in range(1, 5)}
        assert stretch_of(g, star) == 2.0
        assert stretch_of(g, g.edge_set()) == 1.0
        assert stretch_of(g, set()) == math.inf

    def test_spanner_cost_weighted(self):
        g = path_graph(3)
        g.set_weight(0, 1, 4.0)
        assert spanner_cost(g, [(0, 1), (1, 2)]) == 5.0

    def test_client_server_verification(self):
        inst = random_split_instance(connected_gnp_graph(12, 0.4, seed=2), seed=3)
        assert is_client_server_2_spanner(inst, inst.servers)
        non_server = next(iter(inst.clients - inst.servers), None)
        if non_server is not None:
            assert not is_client_server_2_spanner(inst, {non_server})


class TestCoveringOptions:
    def test_options_for_triangle_edge(self):
        g = cycle_graph(3)
        opts = covering_options(g, (0, 1), 2)
        assert frozenset({(0, 1)}) in opts
        assert any(len(o) == 2 for o in opts)

    def test_dominated_options_removed(self):
        g = complete_graph(4)
        for opts in (covering_options(g, (0, 1), 2), covering_options(g, (0, 1), 3)):
            singles = [o for o in opts if len(o) == 1]
            assert singles == [frozenset({(0, 1)})]
            # No option is a superset of the single-edge option.
            assert all(len(o) <= 2 or not (frozenset({(0, 1)}) <= o) for o in opts)

    def test_directed_options(self):
        d = DiGraph([(0, 1), (0, 2), (2, 1)])
        opts = covering_options_directed(d, (0, 1), 2)
        assert frozenset({(0, 1)}) in opts
        assert frozenset({(0, 2), (2, 1)}) in opts


class TestExactSolver:
    def test_bipartite_needs_all_edges(self):
        g = complete_bipartite_graph(3, 3)
        opt = minimum_k_spanner_exact(g, 2)
        assert len(opt) == 9

    def test_clique_center_star_optimal(self):
        g = complete_graph(6)
        opt = minimum_k_spanner_exact(g, 2)
        assert len(opt) == 5
        assert is_k_spanner(g, opt, 2)

    def test_star_graph_optimum_is_itself(self):
        g = star_graph(7)
        assert len(minimum_k_spanner_exact(g, 2)) == 7

    def test_larger_k_gives_sparser_spanner(self):
        g = connected_gnp_graph(10, 0.5, seed=5)
        s2 = minimum_k_spanner_exact(g, 2)
        s3 = minimum_k_spanner_exact(g, 3)
        assert len(s3) <= len(s2)
        assert is_k_spanner(g, s3, 3)

    def test_weighted_objective(self):
        g = cycle_graph(3)
        g.set_weight(0, 1, 10.0)
        opt = minimum_k_spanner_exact(g, 2, use_weights=True)
        # The expensive edge is covered through the other two.
        assert (0, 1) not in opt
        assert is_k_spanner(g, opt, 2)

    def test_targets_subset(self):
        g = complete_graph(5)
        opt = minimum_k_spanner_exact(g, 2, targets=[(0, 1)])
        assert len(opt) == 1

    def test_infeasible_raises(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            minimum_k_spanner_exact(g, 2, targets=[(0, 1)], allowed_edges=[(1, 2)])

    def test_directed_exact(self):
        d = random_digraph(7, 0.4, seed=6)
        opt = minimum_k_spanner_exact_directed(d, 2)
        assert is_k_spanner_directed(d, opt, 2)
        assert len(opt) <= d.number_of_edges()

    def test_client_server_exact(self):
        inst = random_split_instance(connected_gnp_graph(9, 0.45, seed=7), seed=8)
        opt = minimum_client_server_2_spanner_exact(inst)
        assert is_client_server_2_spanner(inst, opt)

    def test_all_edges_both_optimum_is_plain_optimum(self):
        g = connected_gnp_graph(9, 0.45, seed=6)
        opt = minimum_client_server_2_spanner_exact(all_edges_both(g))
        assert len(opt) == len(minimum_k_spanner_exact(g, 2))

    def test_size_lower_bound(self):
        # A spanner of a connected graph is connected: at least n - 1 edges.
        g = connected_gnp_graph(12, 0.3, seed=9)
        assert len(minimum_k_spanner_exact(g, 2)) >= g.number_of_nodes() - 1

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20))
    def test_exact_is_valid_and_no_larger_than_graph(self, seed):
        g = connected_gnp_graph(9, 0.4, seed=seed)
        opt = minimum_k_spanner_exact(g, 2)
        assert is_k_spanner(g, opt, 2)
        assert len(opt) <= g.number_of_edges()


class TestLPBound:
    def test_lp_below_exact(self):
        for seed in range(4):
            g = connected_gnp_graph(10, 0.4, seed=seed)
            lp = lp_lower_bound_2spanner(g)
            opt = len(minimum_k_spanner_exact(g, 2))
            assert lp <= opt + 1e-6

    def test_lp_exact_on_bipartite(self):
        g = complete_bipartite_graph(3, 4)
        assert lp_lower_bound_2spanner(g) == pytest.approx(12.0)

    def test_weighted_lp(self):
        g = cycle_graph(3)
        g.set_weight(0, 1, 10.0)
        lp = lp_lower_bound_2spanner(g, use_weights=True)
        opt = minimum_k_spanner_exact(g, 2, use_weights=True)
        assert lp <= sum(g.weight(*e) for e in opt) + 1e-6

    def test_directed_lp(self):
        d = random_digraph(7, 0.4, seed=3)
        lp = lp_lower_bound_2spanner_directed(d)
        opt = minimum_k_spanner_exact_directed(d, 2)
        assert lp <= len(opt) + 1e-6

    def test_client_server_lp(self):
        # all_edges_both(g) has the plain optimum, so the plain LP bounds it.
        inst = all_edges_both(connected_gnp_graph(8, 0.5, seed=4))
        lp = lp_lower_bound_2spanner(inst.graph)
        opt = minimum_client_server_2_spanner_exact(inst)
        assert lp <= len(opt) + 1e-6

    def test_lp_at_least_trivial_bound(self):
        g = connected_gnp_graph(10, 0.5, seed=5)
        assert lp_lower_bound_2spanner(g) >= 0

    def test_lp_bound_independent_of_hash_seed(self):
        # E01's "stars 4x6" instance has tuple labels, whose hash order
        # follows PYTHONHASHSEED; the LP rows (and HiGHS's last digits) must
        # not.  Seeds 0 and 3 order the covering options differently.
        script = (
            "from repro.experiments.families import build_graph\n"
            "from repro.spanner import lp_lower_bound_2spanner\n"
            "g = build_graph(('overlapping_stars', 4, 6, 2, 6))\n"
            "print(repr(lp_lower_bound_2spanner(g)))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "3")
        ]
        assert outputs[0] == outputs[1]
