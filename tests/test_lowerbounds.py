"""Tests for the Section 2-3 lower-bound constructions and reductions."""

import pytest

from repro.graphs import is_vertex_cover
from repro.lowerbounds import (
    SPANNER_CONSTANT_C,
    build_construction_g,
    build_construction_gw,
    build_construction_gw_undirected,
    build_mvc_reduction,
    claim_2_2_holds,
    disjoint_case_spanner,
    disjointness_lower_bound_bits,
    exact_vertex_cover,
    greedy_matching_vertex_cover,
    has_zero_cost_spanner,
    has_zero_cost_spanner_undirected,
    implied_round_lower_bound,
    minimum_required_d_edges,
    random_disjoint_instance,
    random_far_from_disjoint_instance,
    random_intersecting_instance,
    simulate_reduction,
    spanner_to_vertex_cover,
    theorem_1_1_parameters,
    theorem_2_8_parameters,
    vertex_cover_to_spanner,
    zero_cost_spanner,
)
from repro.lowerbounds.two_party import DisjointnessInstance
from repro.graphs import connected_gnp_graph, cycle_graph, path_graph, star_graph
from repro.spanner import (
    is_k_spanner,
    is_k_spanner_directed,
    minimum_k_spanner_exact,
    spanner_cost,
)


class TestTwoPartyInstances:
    def test_disjoint_instance(self):
        inst = random_disjoint_instance(25, seed=1)
        assert inst.is_disjoint()
        assert inst.n_bits == 25

    def test_intersecting_instance(self):
        inst = random_intersecting_instance(25, intersections=3, seed=2)
        assert inst.intersection_size() == 3
        assert not inst.is_disjoint()

    def test_far_from_disjoint(self):
        inst = random_far_from_disjoint_instance(24, seed=3)
        assert inst.is_far_from_disjoint()

    def test_validation(self):
        with pytest.raises(ValueError):
            DisjointnessInstance((0, 1), (0,))
        with pytest.raises(ValueError):
            DisjointnessInstance((0, 2), (0, 1))
        with pytest.raises(ValueError):
            random_intersecting_instance(4, intersections=0)

    def test_lower_bound_formulas(self):
        assert disjointness_lower_bound_bits(100) == 100
        assert implied_round_lower_bound(1000, 10, 100) > implied_round_lower_bound(
            1000, 100, 100
        )


class TestConstructionG:
    def setup_method(self):
        self.ell = 3
        self.beta = 4
        self.disjoint = build_construction_g(
            self.ell, self.beta, random_disjoint_instance(9, seed=4)
        )
        self.intersecting = build_construction_g(
            self.ell, self.beta, random_intersecting_instance(9, intersections=2, seed=5)
        )

    def test_vertex_count(self):
        # 2*ell*beta block vertices + 5*ell layer vertices
        expected = 2 * self.ell * self.beta + 5 * self.ell
        assert self.disjoint.n == expected

    def test_d_component_size(self):
        assert len(self.disjoint.d_edges) == (self.ell * self.beta) ** 2

    def test_cut_is_theta_ell(self):
        cut = self.disjoint.cut_edges()
        assert len(cut) == 3 * self.ell  # 2*ell matching + ell edges (y2,y3)

    def test_input_edges_follow_bits(self):
        cg = self.intersecting
        for i in range(1, self.ell + 1):
            for j in range(1, self.ell + 1):
                assert cg.graph.has_edge(("x1", i), ("x2", j)) == (cg.bit("a", i, j) == 0)
                assert cg.graph.has_edge(("y1", i), ("y2", j)) == (cg.bit("b", i, j) == 0)

    def test_claim_2_2_all_pairs(self):
        for cg in (self.disjoint, self.intersecting):
            for i in range(1, self.ell + 1):
                for r in range(1, self.ell + 1):
                    assert claim_2_2_holds(cg, i, r)

    def test_lemma_2_3_disjoint_case(self):
        spanner = disjoint_case_spanner(self.disjoint)
        assert is_k_spanner_directed(self.disjoint.graph, spanner, 5)
        assert len(spanner) <= self.disjoint.sparse_spanner_bound()
        assert minimum_required_d_edges(self.disjoint) == 0

    def test_lemma_2_3_intersecting_case(self):
        cg = self.intersecting
        assert minimum_required_d_edges(cg) == len(cg.bad_pairs()) * self.beta**2
        # The non-D edges alone are NOT a spanner when inputs intersect.
        assert not is_k_spanner_directed(cg.graph, disjoint_case_spanner(cg), 5)
        # Adding the forced D edges fixes it.
        spanner = disjoint_case_spanner(cg) | cg.forced_d_edges()
        assert is_k_spanner_directed(cg.graph, spanner, 5)

    def test_gap_instance_forces_many_pairs(self):
        inst = random_far_from_disjoint_instance(9, seed=6)
        cg = build_construction_g(3, 2, inst)
        assert len(cg.bad_pairs()) >= 9 // 12 + 1 or inst.intersection_size() >= 1

    def test_input_length_validation(self):
        with pytest.raises(ValueError):
            build_construction_g(3, 2, random_disjoint_instance(8, seed=1))

    def test_theorem_parameter_helpers(self):
        ell, beta = theorem_1_1_parameters(5000, alpha=2.0)
        assert beta >= ell >= 1
        assert beta % ell == 0
        ell2, beta2 = theorem_2_8_parameters(5000, alpha=2.0)
        assert ell2 >= beta2 >= 1
        with pytest.raises(ValueError):
            theorem_1_1_parameters(20, alpha=10.0)


class TestReductionHarness:
    def test_disjoint_instance_decided_correctly(self):
        ell, beta = 3, 22  # beta > c*ell so a single bad pair exceeds the threshold
        cg = build_construction_g(ell, beta, random_disjoint_instance(9, seed=7))
        report = simulate_reduction(cg, alpha=1.0)
        assert report.ground_truth_disjoint
        assert report.decision_correct
        assert report.d_edges_in_spanner == 0
        assert report.cut_bits >= disjointness_lower_bound_bits(9) // 4

    def test_intersecting_instance_decided_correctly(self):
        ell, beta = 3, 22
        cg = build_construction_g(
            ell, beta, random_intersecting_instance(9, intersections=1, seed=8)
        )
        report = simulate_reduction(cg, alpha=1.0)
        assert not report.ground_truth_disjoint
        assert report.decision_correct
        assert report.d_edges_in_spanner == beta**2

    def test_reference_protocol_produces_valid_spanner(self):
        ell, beta = 3, 8
        cg = build_construction_g(
            ell, beta, random_intersecting_instance(9, intersections=2, seed=9)
        )
        report = simulate_reduction(cg, alpha=1.0)
        # The reference protocol keeps all non-D arcs plus the forced D arcs.
        assert report.spanner_size == len(cg.non_d_edges()) + minimum_required_d_edges(cg)

    def test_cut_traffic_scales_with_input_length(self):
        small = build_construction_g(3, 4, random_disjoint_instance(9, seed=10))
        large = build_construction_g(6, 4, random_disjoint_instance(36, seed=11))
        bits_small = simulate_reduction(small).cut_bits
        bits_large = simulate_reduction(large).cut_bits
        assert bits_large > bits_small

    def test_congest_budget_respected(self):
        cg = build_construction_g(4, 5, random_disjoint_instance(16, seed=12))
        report = simulate_reduction(cg)
        assert report.rounds >= 1


class TestConstructionGw:
    def test_zero_cost_spanner_iff_disjoint_directed(self):
        disjoint = build_construction_gw(4, random_disjoint_instance(16, seed=1))
        intersecting = build_construction_gw(
            4, random_intersecting_instance(16, intersections=1, seed=2)
        )
        assert has_zero_cost_spanner(disjoint, k=4)
        assert not has_zero_cost_spanner(intersecting, k=4)

    def test_zero_cost_spanner_is_valid_spanner(self):
        cg = build_construction_gw(3, random_disjoint_instance(9, seed=3))
        spanner = zero_cost_spanner(cg) | set()
        # Weight-0 arcs plus nothing else must cover all D arcs within 4 hops.
        assert has_zero_cost_spanner(cg, k=4)
        assert all(cg.graph.weight(*a) == 0 for a in spanner)

    def test_cut_small(self):
        cg = build_construction_gw(5, random_disjoint_instance(25, seed=4))
        assert len(cg.cut_edges()) == 3 * 5

    def test_undirected_variant_k4_and_k6(self):
        for k in (4, 6):
            disjoint = build_construction_gw_undirected(
                3, random_disjoint_instance(9, seed=5), k=k
            )
            intersecting = build_construction_gw_undirected(
                3, random_intersecting_instance(9, intersections=1, seed=6), k=k
            )
            assert has_zero_cost_spanner_undirected(disjoint)
            assert not has_zero_cost_spanner_undirected(intersecting)

    def test_undirected_variant_rejects_small_k(self):
        with pytest.raises(ValueError):
            build_construction_gw_undirected(3, random_disjoint_instance(9, seed=7), k=3)


class TestMVCReduction:
    @pytest.mark.parametrize(
        "graph",
        [path_graph(5), cycle_graph(5), star_graph(4), connected_gnp_graph(7, 0.4, seed=1)],
        ids=["path", "cycle", "star", "gnp"],
    )
    def test_claim_3_1_equality(self, graph):
        reduction = build_mvc_reduction(graph)
        mvc = exact_vertex_cover(graph)
        opt_spanner = minimum_k_spanner_exact(reduction.reduced, 2, use_weights=True)
        cost = sum(reduction.reduced.weight(*e) for e in opt_spanner)
        assert cost == pytest.approx(float(len(mvc)))

    def test_cover_to_spanner_direction(self):
        g = connected_gnp_graph(8, 0.35, seed=2)
        reduction = build_mvc_reduction(g)
        cover = greedy_matching_vertex_cover(g)
        spanner = vertex_cover_to_spanner(reduction, cover)
        assert is_k_spanner(reduction.reduced, spanner, 2)
        assert spanner_cost(reduction.reduced, spanner) == pytest.approx(float(len(cover)))

    def test_spanner_to_cover_direction(self):
        g = connected_gnp_graph(8, 0.35, seed=3)
        reduction = build_mvc_reduction(g)
        opt_spanner = minimum_k_spanner_exact(reduction.reduced, 2, use_weights=True)
        cover = spanner_to_vertex_cover(reduction, opt_spanner)
        assert is_vertex_cover(g, cover)
        assert len(cover) <= spanner_cost(reduction.reduced, opt_spanner) + 1e-9

    def test_reduction_graph_shape(self):
        g = path_graph(4)
        reduction = build_mvc_reduction(g)
        assert reduction.reduced.number_of_nodes() == 3 * 4
        assert reduction.reduced.number_of_edges() == 3 * 4 + 3 * 3


class TestVertexCoverHelpers:
    def test_exact_known_values(self):
        assert len(exact_vertex_cover(star_graph(5))) == 1
        assert len(exact_vertex_cover(cycle_graph(5))) == 3
        assert len(exact_vertex_cover(path_graph(6))) == 3 or len(
            exact_vertex_cover(path_graph(6))
        ) == 2

    def test_greedy_is_2_approx(self):
        for seed in range(3):
            g = connected_gnp_graph(12, 0.3, seed=seed)
            greedy = greedy_matching_vertex_cover(g)
            exact = exact_vertex_cover(g)
            assert is_vertex_cover(g, greedy)
            assert len(greedy) <= 2 * len(exact)
