"""Registry definition for E20 — the columnar mega-scale tier.

E20 pushes the pure-broadcast flood-max workload (``repro.core.flood_max``)
through the ``columnar`` engine at n = 2*10^5, 5*10^5 and 10^6 on the
freeze-direct ``sparse_gnp_csr`` family (average degree ~12–14, connectivity
patched, so a 12-round budget always covers the diameter).  An n = 20000
point on the *exact* E18 graph anchors the tier: its physics equal E18's
stepped and indexed runs of that graph, which ties the mega-scale runs back
to the engine-parity contract without paying an indexed-engine run at
10^6.

Mega-scale scenarios opt into ``streaming_metrics`` (bounded
``bits_per_round`` history; scalar counters stay exact), so a full E20 run
at n = 10^6 holds peak RSS to the graph + columns, not to a
per-round-history that grows with the run.

As with E16/E18, wall time lives under ``timing.*`` — excluded from the
determinism contract — and the columnar-vs-indexed speedup *assertion* lives
in ``benchmarks/bench_e20_columnar.py`` behind the ``E20_MIN_SPEEDUP``
knob; the registry ``verify`` hook only pins physics so CLI sweeps on
loaded machines never flake.
"""

from __future__ import annotations

from typing import Any

from repro.core import run_flood_max
from repro.experiments.families import build_graph
from repro.experiments.registry import Experiment, check, check_flood_max, register
from repro.experiments.runner import rate_timing, timed, timing_columns
from repro.experiments.spec import ScenarioSpec

_E20_SEED = 3

#: scenario name -> (family tuple, engine, round budget, streaming metrics).
#: The n=20000 point reuses the E18 graph verbatim (same family/seed) so it
#: is directly comparable against the E18 baselines; the mega
#: points use the freeze-direct CSR family with p giving average degree
#: ~12–14 (diameter well under the 12-round budget after the connectivity
#: patch).
_E20_SCENARIOS: dict[str, tuple[tuple[Any, ...], str, int, bool]] = {
    "n=20000 columnar": (("sparse_connected_gnp", 20000, 0.0005, 18), "columnar", 10, False),
    "n=200000": (("sparse_gnp_csr", 200000, 6e-5, 20), "columnar", 12, True),
    "n=500000": (("sparse_gnp_csr", 500000, 2.6e-5, 21), "columnar", 12, True),
    "n=1000000": (("sparse_gnp_csr", 1000000, 1.4e-5, 22), "columnar", 12, True),
}


def _run_e20(spec: ScenarioSpec) -> dict[str, Any]:
    graph = build_graph(spec.param("graph"))
    engine = spec.engine or "columnar"
    rounds = spec.param("rounds")
    result, seconds = timed(
        run_flood_max,
        graph,
        rounds=rounds,
        seed=spec.param("run_seed"),
        engine=engine,
        streaming_metrics=bool(spec.param("streaming", False)),
    )
    check_flood_max(spec.name, result, graph, budget=rounds)
    return {
        "scenario": spec.name,
        "engine": engine,
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "rounds": result.rounds,
        "leader": result.leader,
        "metrics": result.metrics,
        "timing": rate_timing(seconds, result.metrics.messages_sent),
    }


def _verify_e20(results) -> dict[str, Any]:
    by_name = {result["scenario"]: result for result in results}
    summary: dict[str, Any] = {}
    for name, result in by_name.items():
        if result["n"] >= 100_000:
            summary[f"{name}.messages"] = result["metrics.messages_sent"]
            summary[f"{name}.leader"] = result["leader"]
    if len(results) == len(_E20_SCENARIOS):
        # Unfiltered run: the flagship point must be present and at scale.
        check(
            by_name["n=1000000"]["n"] == 1_000_000,
            "the E20 flagship scenario must run at n = 10^6",
        )
    return summary


register(
    Experiment(
        id="E20",
        title="columnar mega-scale sweep: flood-max broadcast up to n=10^6",
        headline="flat-array columnar engine on pure-broadcast traffic at mega scale",
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
                "E20",
                name,
                engine=engine,
                graph=graph,
                rounds=rounds,
                streaming=streaming,
                run_seed=_E20_SEED,
            )
            for name, (graph, engine, rounds, streaming) in _E20_SCENARIOS.items()
        ],
        run_scenario=_run_e20,
        verify=_verify_e20,
    )
)
