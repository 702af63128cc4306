"""Registry definitions for the substrate experiments: E16 (indexed-engine
throughput), E17 (Congested Clique vs CONGEST) and E18 (stepped columnar
scale sweep).

E16 and E18 measure wall time by design, so their timing lives under
``timing.*`` result keys — the one namespace the determinism contract
excludes (see :func:`repro.experiments.runner.strip_timing`); physics
(rounds, edges, metrics) must still be bit-for-bit identical across engines
and runs.  The engine-speedup *assertions* stay in the pytest wrappers
(``benchmarks/bench_e16_simulator_throughput.py`` /
``benchmarks/bench_e18_scale.py``) where the environment knobs live;
the registry ``verify`` hooks only pin physics equality so CLI sweeps on
loaded machines never flake.

E17 compares edge sets across scenarios through a canonical hash instead of
embedding every edge list in the report.  E18 pushes a pure-broadcast
flood-max workload (``repro.core.flood_max``) to n >= 20000 on the
*stepped* ``columnar`` engine (lowering off, so every round runs the
per-node programs and the columnar collect), with an indexed-engine twin
at n = 20000 as the differential/throughput baseline.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any

from repro.core import (
    clique_spanner_round_bound,
    run_clique_two_spanner,
    run_flood_max,
    run_two_spanner,
)
from repro.distributed import DEFAULT_ENGINE, congest_model
from repro.experiments.families import build_graph
from repro.experiments.registry import (
    Experiment,
    check,
    check_flood_max,
    check_twins,
    register,
)
from repro.experiments.runner import rate_timing, timed, timing_columns
from repro.experiments.spec import ScenarioSpec
from repro.spanner import is_k_spanner


def edges_digest(edges) -> str:
    """Canonical content hash of an undirected edge set."""
    canonical = sorted(tuple(sorted(edge)) for edge in edges)
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------
# E16 — simulator throughput: rounds/sec of the indexed execution core
# --------------------------------------------------------------------------


def _run_e16(spec: ScenarioSpec) -> dict[str, Any]:
    graph = build_graph(spec.param("graph"))
    engine = spec.engine or DEFAULT_ENGINE
    result, seconds = timed(
        run_two_spanner, graph, seed=spec.param("run_seed"), engine=engine
    )
    return {
        "engine": engine,
        "rounds": result.rounds,
        "edges": result.size,
        "metrics": result.metrics,
        "timing": rate_timing(seconds, result.rounds, unit="rounds"),
    }


def _verify_e16(results) -> dict[str, Any]:
    reference, indexed = results
    # Identical physics on both engines; speed is asserted by the benchmark
    # wrapper (E16_MIN_SPEEDUP), not here, so CLI sweeps stay noise-proof.
    check_twins("E16", reference, indexed, exempt=("engine",))
    return {"rounds": reference["rounds"], "edges": reference["edges"]}


register(
    Experiment(
        id="E16",
        title="simulator throughput on G(600, 0.05) two-spanner (seed 1)",
        headline="rounds/sec of the indexed engine vs the seed reference engine",
        targeted=True,
        columns=(
            ("engine", "engine", None),
            ("rounds", "rounds", None),
            ("spanner edges", "edges", None),
            *timing_columns(unit="rounds", header="rounds/sec", fmt=".3f"),
        ),
        scenarios=[
            ScenarioSpec.make(
                "E16", engine, graph=("gnp", 600, 0.05, 7), engine=engine, run_seed=1
            )
            for engine in ("reference", "indexed")
        ],
        run_scenario=_run_e16,
        verify=_verify_e16,
    )
)


# --------------------------------------------------------------------------
# E17 — Congested Clique 2-spanner vs the paper's CONGEST 2-spanner
# --------------------------------------------------------------------------

_E17_INSTANCES = [(48, 0.20, 3), (96, 0.20, 5)]
_E17_SEED = 2
# rounds <= C_LOG * log2(n): holds since 2*ceil(log2 n)+2 <= 3*log2 n, n >= 16
_C_LOG = 3


def _run_e17(spec: ScenarioSpec) -> dict[str, Any]:
    graph = build_graph(spec.param("graph"))
    n = graph.number_of_nodes()
    variant = spec.param("variant")
    if variant == "congest":
        result = run_two_spanner(
            graph, seed=spec.param("run_seed"), model=congest_model(n, enforce=False)
        )
    else:
        engine = spec.engine or DEFAULT_ENGINE
        result = run_clique_two_spanner(graph, seed=spec.param("run_seed"), engine=engine)
        check(
            result.rounds <= _C_LOG * math.log2(n),
            f"{spec.name}: clique spanner used {result.rounds} rounds; "
            f"bound is {_C_LOG}*log2(n) = {_C_LOG * math.log2(n):.1f}",
        )
        check(
            result.rounds == clique_spanner_round_bound(n),
            f"{spec.name}: round count is not exactly 2*ceil(log2 n)+2",
        )
    check(is_k_spanner(graph, result.edges, 2), f"{spec.name}: invalid 2-spanner")
    return {
        "n": n,
        "m": graph.number_of_edges(),
        "model": variant if variant == "congest" else f"clique ({spec.engine or DEFAULT_ENGINE})",
        "instance": spec.param("instance"),
        "variant": variant,
        "rounds": result.rounds,
        "edges": len(result.edges),
        "edges_digest": edges_digest(result.edges),
        "metrics": result.metrics,
    }


def _verify_e17(results) -> dict[str, Any]:
    summary: dict[str, Any] = {}
    for n, _, _ in _E17_INSTANCES:
        instance = f"n={n}"
        group = {r["variant"]: r for r in results if r["instance"] == instance}
        indexed, reference = group["clique_indexed"], group["clique_reference"]
        check_twins(instance, indexed, reference, exempt=("variant", "model"))
        # The whole point of the clique model: exponentially fewer rounds.
        check(
            indexed["rounds"] < group["congest"]["rounds"],
            f"{instance}: clique model not faster than CONGEST",
        )
        summary[f"{instance}.clique_rounds"] = indexed["rounds"]
        summary[f"{instance}.congest_rounds"] = group["congest"]["rounds"]
    return summary


register(
    Experiment(
        id="E17",
        title="Congested Clique vs CONGEST 2-spanner (G(n, p), both fixed-seed)",
        headline="O(log n)-round clique 2-spanner vs the CONGEST algorithm, both engines",
        targeted=True,
        columns=(
            ("n", "n", None),
            ("m", "m", None),
            ("model", "model", None),
            ("rounds", "rounds", None),
            ("spanner edges", "edges", None),
            ("bits", "metrics.bits_sent", None),
            ("violations", "metrics.bandwidth_violations", None),
        ),
        scenarios=[
            ScenarioSpec.make(
                "E17",
                f"n={n} {variant}",
                graph=("gnp", n, p, graph_seed),
                instance=f"n={n}",
                variant=variant,
                engine=engine,
                run_seed=_E17_SEED,
            )
            for n, p, graph_seed in _E17_INSTANCES
            for variant, engine in [
                ("clique_indexed", "indexed"),
                ("clique_reference", "reference"),
                ("congest", None),
            ]
        ],
        run_scenario=_run_e17,
        verify=_verify_e17,
    )
)


# --------------------------------------------------------------------------
# E18 — stepped columnar scale sweep: flood-max broadcast at n >= 20000
# --------------------------------------------------------------------------

_E18_ROUNDS = 10
_E18_SEED = 3
_E18_GRAPHS = {
    # name -> (family tuple); p chosen for average degree ~10, and the
    # family's connect=True patch guarantees flood-max converges.
    "n=20000": ("sparse_connected_gnp", 20000, 0.0005, 18),
    "n=50000": ("sparse_connected_gnp", 50000, 0.0002, 19),
}


def _run_e18(spec: ScenarioSpec) -> dict[str, Any]:
    graph = build_graph(spec.param("graph"))
    engine = spec.engine or DEFAULT_ENGINE
    rounds = spec.param("rounds")
    # Stepped on purpose: E20/E23 cover the lowered path.
    result, seconds = timed(
        run_flood_max,
        graph,
        rounds=rounds,
        seed=spec.param("run_seed"),
        engine=engine,
        vectorize=False,
    )
    check_flood_max(spec.name, result, graph, budget=rounds)
    return {
        "engine": engine,
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "rounds": result.rounds,
        "leader": result.leader,
        "metrics": result.metrics,
        "timing": rate_timing(seconds, result.metrics.messages_sent),
    }


def _verify_e18(results) -> dict[str, Any]:
    columnar20, indexed20, columnar50 = results
    # Identical physics for columnar vs indexed at n=20000; the
    # columnar-vs-indexed throughput floor is asserted by the benchmark
    # wrapper (E18_MIN_SPEEDUP), not here, so CLI sweeps stay noise-proof.
    check_twins("n=20000", columnar20, indexed20, exempt=("engine",))
    check(columnar50["n"] >= 20000, "the scale scenario must cover n >= 20000")
    return {
        "n=20000.messages": columnar20["metrics.messages_sent"],
        "n=50000.messages": columnar50["metrics.messages_sent"],
        "n=50000.leader": columnar50["leader"],
    }


register(
    Experiment(
        id="E18",
        title="stepped columnar scale sweep: flood-max broadcast up to n=50000",
        headline="stepped columnar engine vs indexed on pure-broadcast traffic",
        columns=(
            ("n", "n", None),
            ("m", "m", None),
            ("engine", "engine", None),
            ("rounds", "rounds", None),
            ("messages", "metrics.messages_sent", None),
            *timing_columns(),
        ),
        scenarios=[
            ScenarioSpec.make(
                "E18",
                f"{instance} {engine}",
                engine=engine,
                graph=_E18_GRAPHS[instance],
                rounds=_E18_ROUNDS,
                run_seed=_E18_SEED,
            )
            for instance, engine in [
                ("n=20000", "columnar"),
                ("n=20000", "indexed"),
                ("n=50000", "columnar"),
            ]
        ],
        run_scenario=_run_e18,
        verify=_verify_e18,
    )
)
