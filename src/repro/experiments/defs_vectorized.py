"""Registry definition for E23 — the vectorized program-lowering tier.

E23 pins the whole-round lowering layer (``repro.distributed.vectorize``):
the columnar engine detects lowerable flood-max runs and executes them with
zero per-node Python calls, and this tier proves the physics are unchanged.
Two twin pairs at n = 20000 on the exact E18/E20 anchor graph — fixed-budget
and retransmitting flood-max, each run once lowered and once with
``vectorize=False`` (the stepped per-node path) — must agree bit-for-bit on
every non-timing key.  The mega points then rerun the E20 scale sweep
(n = 2*10^5, 5*10^5, 10^6 on the freeze-direct CSR family) through the
lowered path, and one n = 20000 scenario runs lowered flood-max on the
O(n + m) ``barabasi_albert_csr`` power-law family.

Every scenario asserts that the lowering decision matched the spec
(``Simulator.lowered``), so a silent fallback to stepping can never
masquerade as a passing lowered run.  As with E20, wall time lives under
``timing.*`` — excluded from the determinism contract — and the
lowered-vs-stepped speedup *assertion* lives in
``benchmarks/bench_e23_vectorized.py`` behind the ``E23_MIN_SPEEDUP`` knob;
the registry ``verify`` hook only pins physics so CLI sweeps on loaded
machines never flake.
"""

from __future__ import annotations

from typing import Any

from repro.core.flood_max import (
    FloodMaxProgram,
    RobustFloodMaxProgram,
    _summarise,
    robust_flood_max_round_bound,
)
from repro.distributed.models import broadcast_congest_model
from repro.distributed.simulator import Simulator
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

_E23_SEED = 3

#: scenario name -> (family tuple, workload, budget, lowered, streaming).
#: ``workload`` is "fixed" (budget = round count) or "robust" (budget =
#: patience).  The n=20000 twins reuse the E18/E20 anchor graph verbatim;
#: the mega points reuse the E20 CSR family tuples, so the graph memo in
#: ``experiments.families`` shares one build between the tiers per worker.
_E23_SCENARIOS: dict[str, tuple[tuple[Any, ...], str, int, bool, bool]] = {
    "n=20000 lowered": (
        ("sparse_connected_gnp", 20000, 0.0005, 18), "fixed", 10, True, False,
    ),
    "n=20000 stepped": (
        ("sparse_connected_gnp", 20000, 0.0005, 18), "fixed", 10, False, False,
    ),
    "n=20000 robust lowered": (
        ("sparse_connected_gnp", 20000, 0.0005, 18), "robust", 10, True, False,
    ),
    "n=20000 robust stepped": (
        ("sparse_connected_gnp", 20000, 0.0005, 18), "robust", 10, False, False,
    ),
    "n=20000 ba lowered": (
        ("barabasi_albert_csr", 20000, 6, 18), "fixed", 10, True, False,
    ),
    "n=200000": (("sparse_gnp_csr", 200000, 6e-5, 20), "fixed", 12, True, True),
    "n=500000": (("sparse_gnp_csr", 500000, 2.6e-5, 21), "fixed", 12, True, True),
    "n=1000000": (("sparse_gnp_csr", 1000000, 1.4e-5, 22), "fixed", 12, True, True),
}

#: result keys the lowered/stepped twins may legitimately differ on.
_TWIN_EXEMPT = ("scenario", "mode")


def _run_e23(spec: ScenarioSpec) -> dict[str, Any]:
    graph = build_graph(spec.param("graph"))
    n = graph.number_of_nodes()
    workload = spec.param("workload")
    budget = spec.param("budget")
    lowered = bool(spec.param("lowered", True))
    if workload == "fixed":
        program = lambda v: FloodMaxProgram(v, budget)  # noqa: E731
        max_rounds = 10_000
    else:
        program = lambda v: RobustFloodMaxProgram(v, budget)  # noqa: E731
        max_rounds = robust_flood_max_round_bound(n, budget)
    sim = Simulator(
        graph,
        program,
        model=broadcast_congest_model(n),
        seed=spec.param("run_seed"),
        engine="columnar",
        streaming_metrics=bool(spec.param("streaming", False)),
        vectorize=lowered,
    )
    result, seconds = timed(lambda: _summarise(sim.run(max_rounds=max_rounds)))
    check(
        sim.lowered == lowered,
        f"{spec.name}: lowering decision {sim.lowered} does not match the "
        f"spec's lowered={lowered}",
    )
    # Only the fixed-budget program pins its round and message counts.
    fixed_budget = budget if workload == "fixed" else None
    check_flood_max(spec.name, result, graph, budget=fixed_budget)
    return {
        "scenario": spec.name,
        "mode": "lowered" if lowered else "stepped",
        "workload": workload,
        "n": n,
        "m": graph.number_of_edges(),
        "rounds": result.rounds,
        "leader": result.leader,
        "metrics": result.metrics,
        "timing": rate_timing(seconds, result.metrics.messages_sent),
    }


def _verify_e23(results) -> dict[str, Any]:
    by_name = {result["scenario"]: result for result in results}
    for left, right in (
        ("n=20000 lowered", "n=20000 stepped"),
        ("n=20000 robust lowered", "n=20000 robust stepped"),
    ):
        lowered = by_name.get(left)
        stepped = by_name.get(right)
        if lowered is None or stepped is None:
            continue
        # The tentpole contract: lowering must be physically invisible —
        # every non-timing key of the twins agrees bit-for-bit.
        check_twins(f"{left} / {right}", lowered, stepped, exempt=_TWIN_EXEMPT)
    summary: dict[str, Any] = {}
    for name, result in by_name.items():
        if result["n"] >= 100_000:
            summary[f"{name}.messages"] = result["metrics.messages_sent"]
            summary[f"{name}.leader"] = result["leader"]
    if len(results) == len(_E23_SCENARIOS):
        check(
            by_name["n=1000000"]["n"] == 1_000_000,
            "the E23 flagship scenario must run lowered at n = 10^6",
        )
    return summary


register(
    Experiment(
        id="E23",
        title="program lowering: vectorized whole-round flood-max kernels",
        headline="lowered columnar rounds with zero per-node Python calls",
        columns=(
            ("n", "n", None),
            ("m", "m", None),
            ("mode", "mode", None),
            ("workload", "workload", None),
            ("rounds", "rounds", None),
            ("messages", "metrics.messages_sent", None),
            *timing_columns(),
        ),
        scenarios=[
            ScenarioSpec.make(
                "E23",
                name,
                engine="columnar",
                graph=graph,
                workload=workload,
                budget=budget,
                lowered=lowered,
                streaming=streaming,
                run_seed=_E23_SEED,
            )
            for name, (graph, workload, budget, lowered, streaming) in _E23_SCENARIOS.items()
        ],
        run_scenario=_run_e23,
        verify=_verify_e23,
    )
)
