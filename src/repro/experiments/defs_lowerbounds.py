"""Registry definitions for the lower-bound experiments E08-E12."""

from __future__ import annotations

from typing import Any

from repro.core import WeightedVariant, run_two_spanner
from repro.experiments.families import build_graph
from repro.experiments.registry import Experiment, check, register
from repro.experiments.spec import ScenarioSpec
from repro.graphs import is_vertex_cover
from repro.lowerbounds import (
    build_construction_g,
    build_construction_gw,
    build_construction_gw_undirected,
    build_mvc_reduction,
    claim_2_2_holds,
    deterministic_gap_threshold,
    disjoint_case_spanner,
    exact_vertex_cover,
    greedy_matching_vertex_cover,
    has_zero_cost_spanner,
    has_zero_cost_spanner_undirected,
    minimum_required_d_edges,
    random_disjoint_instance,
    random_far_from_disjoint_instance,
    random_intersecting_instance,
    simulate_reduction,
    spanner_to_vertex_cover,
    theorem_1_1_parameters,
    theorem_2_8_parameters,
)
from repro.spanner import is_k_spanner, is_k_spanner_directed, minimum_k_spanner_exact


# --------------------------------------------------------------------------
# E08 — Figure 1 + Claim 2.2 + Lemma 2.3: the randomised construction
# --------------------------------------------------------------------------


def _run_e08(spec: ScenarioSpec) -> dict[str, Any]:
    ell, beta = spec.param("ell"), spec.param("beta")
    n_bits = ell * ell
    disjoint = build_construction_g(ell, beta, random_disjoint_instance(n_bits, seed=1))
    intersecting = build_construction_g(
        ell, beta, random_intersecting_instance(n_bits, intersections=1, seed=2)
    )
    claim = all(
        claim_2_2_holds(cg, i, r)
        for cg in (disjoint, intersecting)
        for i in range(1, ell + 1)
        for r in range(1, ell + 1)
    )
    sparse = disjoint_case_spanner(disjoint)
    sparse_valid = is_k_spanner_directed(disjoint.graph, sparse, 5)
    forced = minimum_required_d_edges(intersecting)
    check(claim, f"{spec.name}: Claim 2.2 violated")
    check(sparse_valid, f"{spec.name}: disjoint-case spanner invalid")
    check(
        len(sparse) <= disjoint.sparse_spanner_bound(),
        f"{spec.name}: Lemma 2.3 upper bound violated",
    )
    return {
        "params": spec.name,
        "n": disjoint.n,
        "d_edges": len(disjoint.d_edges),
        "claim_2_2": claim,
        "sparse_valid": sparse_valid,
        "sparse_size": len(sparse),
        "sparse_bound": disjoint.sparse_spanner_bound(),
        "forced": forced,
        "gap": forced / max(1, len(sparse)),
    }


def _verify_e08(results) -> dict[str, Any]:
    # With beta > c*ell the single-intersection case already exceeds the
    # sparse bound (the second setting is the witness).
    check(
        results[1]["forced"] > results[1]["sparse_bound"],
        "intersection case does not exceed the sparse-spanner bound",
    )
    return {"max_gap": max(r["gap"] for r in results)}


register(
    Experiment(
        id="E08",
        title="Figure 1 / Lemma 2.3: spanner-size gap of G(ell, beta)",
        headline="sparse disjoint-case spanner vs forced dense edges of G(ell, beta)",
        columns=(
            ("params", "params", None),
            ("n", "n", None),
            ("|D|", "d_edges", None),
            ("Claim2.2", "claim_2_2", None),
            ("sparse valid", "sparse_valid", None),
            ("sparse size", "sparse_size", None),
            ("c*ell*beta", "sparse_bound", None),
            ("forced D edges", "forced", None),
            ("gap", "gap", ".3f"),
        ),
        scenarios=[
            ScenarioSpec.make("E08", f"ell={ell} beta={beta}", ell=ell, beta=beta)
            for ell, beta in [(3, 10), (3, 22), (4, 30)]
        ],
        run_scenario=_run_e08,
        verify=_verify_e08,
    )
)


# --------------------------------------------------------------------------
# E09 — Theorem 1.1: the two-party simulation
# --------------------------------------------------------------------------


def _run_e09(spec: ScenarioSpec) -> dict[str, Any]:
    n_target, case = spec.param("n_target"), spec.param("case")
    alpha = spec.param("alpha")
    ell, beta = theorem_1_1_parameters(n_target, alpha)
    n_bits = ell * ell
    if case == "disjoint":
        instance = random_disjoint_instance(n_bits, seed=n_target)
    else:
        instance = random_intersecting_instance(n_bits, 1, seed=n_target + 1)
    cg = build_construction_g(ell, beta, instance)
    report = simulate_reduction(cg, alpha=alpha)
    check(report.decision_correct, f"{spec.name}: reduction decided incorrectly")
    # The reference protocol really ships Theta(N) bits across the cut, and
    # the cut stays Theta(ell) (the construction is non-symmetric by design).
    check(
        report.cut_bits >= report.disjointness_bits_needed // 4,
        f"{spec.name}: cut communication below Omega(N)",
    )
    check(report.cut_edges == 3 * report.ell, f"{spec.name}: cut size is not Theta(ell)")
    return {
        "instance": spec.name,
        "n": report.n,
        "ell": report.ell,
        "beta": report.beta,
        "cut_edges": report.cut_edges,
        "cut_bits": report.cut_bits,
        "bits_needed": report.disjointness_bits_needed,
        "rounds": report.rounds,
        "implied_lb_rounds": report.implied_rounds_lower_bound,
        "theorem_yardstick": report.theorem_rounds_lower_bound,
    }


def _verify_e09(results) -> dict[str, Any]:
    # Larger constructions force more cut communication (monotone in n).
    check(
        results[-1]["cut_bits"] > results[0]["cut_bits"],
        "cut communication is not monotone in n",
    )
    return {"max_cut_bits": max(r["cut_bits"] for r in results)}


register(
    Experiment(
        id="E09",
        title="Theorem 1.1: Alice/Bob simulation on G(ell, beta)  (alpha = 1)",
        headline="bits forced across the Alice/Bob cut vs the Omega(N) requirement",
        columns=(
            ("instance", "instance", None),
            ("n", "n", None),
            ("ell", "ell", None),
            ("beta", "beta", None),
            ("cut edges", "cut_edges", None),
            ("cut bits measured", "cut_bits", None),
            ("bits needed (Omega(N))", "bits_needed", None),
            ("protocol rounds", "rounds", None),
            ("implied LB rounds", "implied_lb_rounds", ".3f"),
            ("thm yardstick", "theorem_yardstick", ".3f"),
        ),
        scenarios=[
            ScenarioSpec.make(
                "E09",
                f"n'={n_target} ({case})",
                n_target=n_target,
                case=case,
                alpha=1.0,
            )
            for n_target in (300, 700, 1500)
            for case in ("disjoint", "1 intersection")
        ],
        run_scenario=_run_e09,
        verify=_verify_e09,
    )
)


# --------------------------------------------------------------------------
# E10 — Lemma 2.6 + Theorem 2.8: the deterministic gap regime
# --------------------------------------------------------------------------


def _run_e10(spec: ScenarioSpec) -> dict[str, Any]:
    n_target, alpha = spec.param("n_target"), spec.param("alpha")
    ell, beta = theorem_2_8_parameters(n_target, alpha)
    n_bits = ell * ell
    disjoint = build_construction_g(ell, beta, random_disjoint_instance(n_bits, seed=3))
    far = build_construction_g(ell, beta, random_far_from_disjoint_instance(n_bits, seed=4))
    sparse = disjoint_case_spanner(disjoint)
    # Spot-check Claim 2.2 (full verification at this scale happens in E8 / tests).
    check(
        all(claim_2_2_holds(disjoint, i, i) for i in range(1, min(ell, 4) + 1)),
        f"{spec.name}: Claim 2.2 spot-check failed",
    )
    t, alpha_t = deterministic_gap_threshold(disjoint, alpha)
    forced = minimum_required_d_edges(far)
    lemma_bound = (beta**2) * (ell**2) // 12
    check(len(sparse) <= t, f"{spec.name}: Lemma 2.6 disjoint side violated")
    check(forced >= lemma_bound, f"{spec.name}: Lemma 2.6 far-from-disjoint side violated")
    check(forced > alpha_t, f"{spec.name}: Lemma 2.7 threshold does not separate the cases")
    return {
        "params": spec.name,
        "n": disjoint.n,
        "ell": ell,
        "beta": beta,
        "sparse_size": len(sparse),
        "threshold_t": t,
        "alpha_t": alpha_t,
        "forced": forced,
        "lemma_bound": lemma_bound,
        "gap_detectable": forced > alpha_t,
    }


register(
    Experiment(
        id="E10",
        title="Lemma 2.6 / Theorem 2.8: gap-disjointness regime (beta <= ell)",
        headline="deterministic-regime spanner-size gap and the Lemma 2.7 threshold",
        columns=(
            ("params", "params", None),
            ("n", "n", None),
            ("ell", "ell", None),
            ("beta", "beta", None),
            ("sparse size", "sparse_size", None),
            ("t=c*ell^2", "threshold_t", None),
            ("alpha*t", "alpha_t", ".3f"),
            ("forced D edges", "forced", None),
            ("beta^2*ell^2/12", "lemma_bound", None),
            ("gap detectable", "gap_detectable", None),
        ),
        scenarios=[
            ScenarioSpec.make(
                "E10", f"n'={n_target} alpha={alpha}", n_target=n_target, alpha=alpha
            )
            for n_target, alpha in [(1000, 1.0), (1600, 1.0), (2500, 2.0)]
        ],
        run_scenario=_run_e10,
    )
)


# --------------------------------------------------------------------------
# E11 — Figure 2 + Theorems 2.9 / 2.10: weighted constructions
# --------------------------------------------------------------------------


def _run_e11(spec: ScenarioSpec) -> dict[str, Any]:
    ell = spec.param("ell")
    construction = spec.param("construction")
    n_bits = ell * ell
    disjoint_inst = random_disjoint_instance(n_bits, seed=ell)
    intersect_inst = random_intersecting_instance(n_bits, 1, seed=ell + 1)
    if construction == "directed":
        gw_d = build_construction_gw(ell, disjoint_inst)
        gw_i = build_construction_gw(ell, intersect_inst)
        n = gw_d.graph.number_of_nodes()
        cut_edges = len(gw_d.cut_edges())
        zero_disjoint = has_zero_cost_spanner(gw_d, spec.param("k"))
        zero_intersecting = has_zero_cost_spanner(gw_i, spec.param("k"))
    else:
        k = spec.param("k")
        und_d = build_construction_gw_undirected(ell, disjoint_inst, k=k)
        und_i = build_construction_gw_undirected(ell, intersect_inst, k=k)
        n = und_d.graph.number_of_nodes()
        cut_edges = 3 * ell
        zero_disjoint = has_zero_cost_spanner_undirected(und_d)
        zero_intersecting = has_zero_cost_spanner_undirected(und_i)
    # Zero-cost spanner exists iff the inputs are disjoint.
    check(zero_disjoint is True, f"{spec.name}: disjoint case lost its zero-cost spanner")
    check(zero_intersecting is False, f"{spec.name}: intersecting case has a zero-cost spanner")
    return {
        "construction": spec.name,
        "n": n,
        "cut_edges": cut_edges,
        "zero_cost_disjoint": zero_disjoint,
        "zero_cost_intersecting": zero_intersecting,
    }


register(
    Experiment(
        id="E11",
        title="Figure 2 / Theorems 2.9-2.10: zero-cost spanner iff inputs disjoint",
        headline="weighted constructions G_w: zero-cost spanners exist iff inputs disjoint",
        columns=(
            ("construction", "construction", None),
            ("n", "n", None),
            ("cut edges", "cut_edges", None),
            ("zero-cost (disjoint)", "zero_cost_disjoint", None),
            ("zero-cost (intersecting)", "zero_cost_intersecting", None),
        ),
        scenarios=[
            ScenarioSpec.make(
                "E11",
                f"{construction} k={k}, ell={ell}",
                ell=ell,
                construction=construction,
                k=k,
            )
            for ell in (4, 8, 12)
            for construction, k in [("directed", 4), ("undirected", 4), ("undirected", 6)]
        ],
        run_scenario=_run_e11,
    )
)


# --------------------------------------------------------------------------
# E12 — Figure 3 + Claim 3.1 + Lemma 3.2: 2-spanner vs vertex cover
# --------------------------------------------------------------------------


def _run_e12(spec: ScenarioSpec) -> dict[str, Any]:
    graph = build_graph(spec.param("graph"))
    reduction = build_mvc_reduction(graph)
    if spec.param("solver") == "exact":
        mvc = len(exact_vertex_cover(graph))
        opt_spanner = minimum_k_spanner_exact(reduction.reduced, 2, use_weights=True)
        cost = sum(reduction.reduced.weight(*edge) for edge in opt_spanner)
        # Claim 3.1: the exact weighted 2-spanner cost of G_S equals MVC(G).
        check(cost == mvc, f"{spec.name}: spanner cost {cost} != MVC {mvc}")
        return {
            "workload": spec.name,
            "solver": "exact",
            "cover": mvc,
            "spanner_cost": float(cost),
            "greedy": None,
            "status": "equal",
        }
    result = run_two_spanner(
        reduction.reduced, variant=WeightedVariant(), seed=spec.param("run_seed")
    )
    check(is_k_spanner(reduction.reduced, result.edges, 2), f"{spec.name}: invalid 2-spanner")
    cover = spanner_to_vertex_cover(reduction, result.edges)
    check(is_vertex_cover(graph, cover), f"{spec.name}: output is not a vertex cover")
    cost = result.cost(reduction.reduced)
    # Lemma 3.2 transfer: the derived cover is bounded by the spanner cost.
    check(len(cover) <= cost + 1e-9, f"{spec.name}: cover exceeds spanner cost")
    return {
        "workload": spec.name,
        "solver": "distributed weighted 2-spanner",
        "cover": len(cover),
        "spanner_cost": cost,
        "greedy": len(greedy_matching_vertex_cover(graph)),
        "status": "cover<=cost",
    }


register(
    Experiment(
        id="E12",
        title="Figure 3 / Claim 3.1: weighted 2-spanner of G_S vs vertex cover of G",
        headline="MVC reduction: exact equality (Claim 3.1) and the Lemma 3.2 transfer",
        targeted=True,
        columns=(
            ("workload", "workload", None),
            ("solver", "solver", None),
            ("cover size", "cover", None),
            ("spanner cost", "spanner_cost", ".3f"),
            ("greedy 2-approx VC", "greedy", None),
            ("check", "status", None),
        ),
        scenarios=[
            ScenarioSpec.make("E12", name, graph=graph, solver="exact")
            for name, graph in [
                ("path n=6", ("path", 6)),
                ("cycle n=7", ("cycle", 7)),
                ("gnp n=8 p=0.35", ("connected_gnp", 8, 0.35, 1)),
            ]
        ]
        + [
            ScenarioSpec.make("E12", name, graph=graph, solver="distributed", run_seed=4)
            for name, graph in [
                ("gnp n=14 p=0.3", ("connected_gnp", 14, 0.3, 2)),
                ("gnp n=18 p=0.2", ("connected_gnp", 18, 0.2, 3)),
            ]
        ],
        run_scenario=_run_e12,
    )
)
