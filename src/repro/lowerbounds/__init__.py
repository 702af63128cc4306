"""Lower-bound constructions (Figures 1-3) and the two-party reduction harness."""

from repro.lowerbounds.construction_g import (
    SPANNER_CONSTANT_C,
    ConstructionG,
    build_construction_g,
    claim_2_2_holds,
    disjoint_case_spanner,
    minimum_required_d_edges,
    theorem_1_1_parameters,
    theorem_2_8_parameters,
)
from repro.lowerbounds.construction_gw import (
    ConstructionGw,
    ConstructionGwUndirected,
    build_construction_gw,
    build_construction_gw_undirected,
    has_zero_cost_spanner,
    has_zero_cost_spanner_undirected,
    zero_cost_spanner,
)
from repro.lowerbounds.mvc_reduction import (
    MVCReduction,
    build_mvc_reduction,
    spanner_to_vertex_cover,
    vertex_cover_to_spanner,
)
from repro.lowerbounds.reduction_harness import (
    GSpannerDecisionProgram,
    ReductionReport,
    deterministic_gap_threshold,
    simulate_reduction,
)
from repro.lowerbounds.two_party import (
    DisjointnessInstance,
    disjointness_lower_bound_bits,
    implied_round_lower_bound,
    random_disjoint_instance,
    random_far_from_disjoint_instance,
    random_intersecting_instance,
)
from repro.lowerbounds.vertex_cover import (
    exact_vertex_cover,
    greedy_matching_vertex_cover,
)

__all__ = [
    "SPANNER_CONSTANT_C",
    "ConstructionG",
    "ConstructionGw",
    "ConstructionGwUndirected",
    "DisjointnessInstance",
    "GSpannerDecisionProgram",
    "MVCReduction",
    "ReductionReport",
    "build_construction_g",
    "build_construction_gw",
    "build_construction_gw_undirected",
    "build_mvc_reduction",
    "claim_2_2_holds",
    "deterministic_gap_threshold",
    "disjoint_case_spanner",
    "disjointness_lower_bound_bits",
    "exact_vertex_cover",
    "greedy_matching_vertex_cover",
    "has_zero_cost_spanner",
    "has_zero_cost_spanner_undirected",
    "implied_round_lower_bound",
    "minimum_required_d_edges",
    "random_disjoint_instance",
    "random_far_from_disjoint_instance",
    "random_intersecting_instance",
    "simulate_reduction",
    "spanner_to_vertex_cover",
    "theorem_1_1_parameters",
    "theorem_2_8_parameters",
    "vertex_cover_to_spanner",
    "zero_cost_spanner",
]
